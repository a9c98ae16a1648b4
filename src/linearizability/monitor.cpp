#include "linearizability/monitor.hpp"

#include <cassert>

#include "histories/history.hpp"
#include "linearizability/fast_register.hpp"

namespace bloom87 {

atomicity_monitor::atomicity_monitor(value_t initial, std::size_t capacity)
    : initial_(initial), log_(capacity) {}

void atomicity_monitor::port::begin_write(value_t v) {
    assert(!open_ && "port already has an operation in flight");
    event e;
    e.kind = event_kind::sim_invoke_write;
    e.processor = processor_;
    e.op = next_op_;
    e.value = v;
    owner_->log_.append(e);
    open_ = true;
    open_op_ = next_op_++;
    open_is_write_ = true;
}

void atomicity_monitor::port::end_write() {
    assert(open_ && open_is_write_);
    event e;
    e.kind = event_kind::sim_respond_write;
    e.processor = processor_;
    e.op = open_op_;
    owner_->log_.append(e);
    open_ = false;
}

void atomicity_monitor::port::begin_read() {
    assert(!open_ && "port already has an operation in flight");
    event e;
    e.kind = event_kind::sim_invoke_read;
    e.processor = processor_;
    e.op = next_op_;
    owner_->log_.append(e);
    open_ = true;
    open_op_ = next_op_++;
    open_is_write_ = false;
}

void atomicity_monitor::port::end_read(value_t result) {
    assert(open_ && !open_is_write_);
    event e;
    e.kind = event_kind::sim_respond_read;
    e.processor = processor_;
    e.op = open_op_;
    e.value = result;
    owner_->log_.append(e);
    open_ = false;
}

void atomicity_monitor::port::abandon() { open_ = false; }

monitor_verdict atomicity_monitor::verify() const {
    monitor_verdict out;
    if (log_.overflowed()) {
        out.diagnosis = "monitor capacity exceeded; history incomplete";
        return out;
    }
    const parse_result parsed = parse_history(log_.snapshot(), initial_);
    if (!parsed.ok()) {
        out.diagnosis = "malformed history: " + parsed.error->message;
        return out;
    }
    out.operations = parsed.hist.ops.size();
    const fast_check_result res = check_fast(parsed.hist.ops, initial_);
    if (!res.ok()) {
        out.diagnosis = "checker defect: " + *res.defect;
        return out;
    }
    out.atomic = res.linearizable;
    if (!out.atomic) out.diagnosis = res.diagnosis;
    return out;
}

}  // namespace bloom87
