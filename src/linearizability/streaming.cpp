#include "linearizability/streaming.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "linearizability/fast_register.hpp"

namespace bloom87 {
namespace {

/// Processor id reserved for the virtual reads appended at retirement;
/// far above anything the harness hands out.
constexpr processor_id vread_processor =
    std::numeric_limits<processor_id>::max();

}  // namespace

streaming_checker::streaming_checker(value_t initial, streaming_config cfg)
    : cfg_(cfg), initial_(initial) {
    if (cfg_.stride == 0) cfg_.stride = 1;
    if (cfg_.pending_grace == 0) {
        cfg_.pending_grace = 16 * cfg_.window + 1024;
    }
    candidates_.push_back(initial_);
    stats_.candidate_values = 1;
}

void streaming_checker::flag(std::string why) {
    violation_ = true;
    detection_pos_ = stats_.events;
    diagnosis_ = std::move(why);
}

void streaming_checker::ingest(const event& e) {
    if (violation_) return;
    ++stats_.events;  // gamma position of e is stats_.events - 1
    if (is_real(e.kind)) return;  // external schedule only
    if (is_invocation(e.kind)) {
        on_invocation(e);
    } else {
        on_response(e);
    }
    if (violation_) return;
    if (++since_check_ >= cfg_.stride) {
        since_check_ = 0;
        checkpoint();
    }
}

void streaming_checker::on_invocation(const event& e) {
    for (const open_op& o : open_) {
        if (o.op.id.processor == e.processor) {
            flag("malformed stream: processor " +
                 std::to_string(e.processor) +
                 " invoked an operation while one is open");
            return;
        }
    }
    open_op o;
    o.op.id = {e.processor, e.op};
    o.op.kind = e.kind == event_kind::sim_invoke_write ? op_kind::write
                                                       : op_kind::read;
    o.op.value = e.value;  // write argument; meaningless for reads until resp
    o.op.invoked = stats_.events - 1;
    o.op.responded = no_event;
    open_.push_back(std::move(o));
}

void streaming_checker::on_response(const event& e) {
    const op_id id{e.processor, e.op};
    auto it = std::find_if(open_.begin(), open_.end(), [&](const open_op& o) {
        return o.op.id.processor == e.processor;
    });
    if (it == open_.end() || it->op.id != id) {
        if (std::find(crashed_ids_.begin(), crashed_ids_.end(), id) !=
            crashed_ids_.end()) {
            flag("operation outlived pending_grace (" +
                 std::to_string(cfg_.pending_grace) +
                 " events) and then responded; raise the streaming window "
                 "or grace for this workload");
        } else {
            flag("malformed stream: response without a matching open "
                 "operation on processor " +
                 std::to_string(e.processor));
        }
        return;
    }
    const bool is_write = e.kind == event_kind::sim_respond_write;
    if ((it->op.kind == op_kind::write) != is_write) {
        flag("malformed stream: response kind does not match the open "
             "operation on processor " +
             std::to_string(e.processor));
        return;
    }
    operation op = std::move(it->op);
    open_.erase(it);
    op.responded = stats_.events - 1;
    if (op.kind == op_kind::read) op.value = e.value;
    uncertified_.push_back(std::move(op));
    ++stats_.ops_completed;
    stats_.retained_ops = certified_.size() + uncertified_.size();
    stats_.peak_retained_ops =
        std::max(stats_.peak_retained_ops, stats_.retained_ops);
}

void streaming_checker::checkpoint() {
    run_check();
    if (!violation_) advance_cut();
}

void streaming_checker::run_check() {
    ++stats_.checkpoints;
    stats_.uncertified_peak =
        std::max(stats_.uncertified_peak, uncertified_.size());
    if (uncertified_.empty() && open_.empty() && pending_.empty()) return;
    std::vector<operation> ops;
    ops.reserve(uncertified_.size() + open_.size() + pending_.size());
    ops.insert(ops.end(), uncertified_.begin(), uncertified_.end());
    ops.insert(ops.end(), pending_.begin(), pending_.end());
    for (const open_op& o : open_) ops.push_back(o.op);

    std::string first_failure;
    if (last_pass_ >= candidates_.size()) last_pass_ = 0;
    for (std::size_t k = 0; k < candidates_.size(); ++k) {
        const std::size_t i = (last_pass_ + k) % candidates_.size();
        const fast_check_result res = check_fast(ops, candidates_[i]);
        if (res.ok() && res.linearizable) {
            last_pass_ = i;
            return;
        }
        if (first_failure.empty()) {
            first_failure = res.ok() ? res.diagnosis
                                     : "checker defect: " + *res.defect;
        }
    }
    flag("streaming window not linearizable against any candidate current "
         "value (|V|=" +
         std::to_string(candidates_.size()) + "): " + first_failure);
}

void streaming_checker::advance_cut() {
    // Declare overdue open operations crashed so an eternally-pending op
    // (a crashed port) cannot pin the cut forever.
    for (std::size_t i = 0; i < open_.size();) {
        const operation& op = open_[i].op;
        if (op.invoked + cfg_.pending_grace < stats_.events) {
            crashed_ids_.push_back(op.id);
            if (op.kind == op_kind::write) {
                // Kept: a later read of this value decides the write DID
                // take effect (normalize keeps read-from pending writes).
                pending_.push_back(op);
            }
            open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
    stats_.pending_carried = pending_.size();

    // The cut must not split any live operation. uncertified_ is sorted by
    // responded: certify the longest prefix [0, k) whose last response
    // lands before every open invocation and before every later
    // uncertified invocation -- a quiescent cut in stream position space.
    std::uint64_t upper = no_event;
    for (const open_op& o : open_) {
        upper = std::min(upper, static_cast<std::uint64_t>(o.op.invoked));
    }
    std::uint64_t later_min_inv = no_event;  // over uncertified_[k, n)
    for (std::size_t k = uncertified_.size(); k > 0; --k) {
        const operation& last = uncertified_[k - 1];
        if (last.responded < upper && later_min_inv > last.responded) {
            certify(k);
            break;
        }
        later_min_inv = std::min(later_min_inv,
                                 static_cast<std::uint64_t>(last.invoked));
    }
    if (violation_) return;

    // Certified ops are released once `window` events behind the frontier.
    if (stats_.events > cfg_.window) {
        const std::uint64_t horizon = stats_.events - cfg_.window;
        std::size_t released = 0;
        while (!certified_.empty() &&
               certified_.front().responded < horizon) {
            certified_.pop_front();
            ++released;
        }
        if (released > 0) {
            stats_.ops_retired += released;
            ++stats_.retire_batches;
        }
    }
    stats_.retained_ops = certified_.size() + uncertified_.size();
}

void streaming_checker::certify(std::size_t k) {
    const auto batch_end =
        uncertified_.begin() + static_cast<std::ptrdiff_t>(k);
    std::vector<operation> batch(std::make_move_iterator(uncertified_.begin()),
                                 std::make_move_iterator(batch_end));
    uncertified_.erase(uncertified_.begin(), batch_end);

    // A certified read that observed a carried pending (crashed) write
    // decides that write: materialize it into the batch.
    for (std::size_t r = 0; r < k; ++r) {
        if (batch[r].kind != op_kind::read) continue;
        auto it = std::find_if(
            pending_.begin(), pending_.end(), [&](const operation& w) {
                return w.value == batch[r].value;
            });
        if (it != pending_.end()) {
            batch.push_back(std::move(*it));
            pending_.erase(it);
        }
    }

    // Recompute the candidate current values: u survives iff some
    // linearization of the batch (from some previous candidate) ends with
    // value u -- probed by appending a virtual read of u after the batch.
    //
    // The universe of possible u is pruned before probing (this is what
    // keeps certification O(batch), not O(batch^2)): writes are totally
    // ordered among themselves, so a write real-time-followed by another
    // write (some write invoked after its response) can never linearize
    // last -- only the real-time-maximal writes are eligible, and there
    // are at most `writers` of those. And if the batch contains any write,
    // SOME write linearizes last, so the previous candidates (values no
    // batch write produced) cannot survive at all.
    std::vector<value_t> universe;
    std::uint64_t max_write_inv = 0;
    bool batch_has_write = false;
    for (const operation& op : batch) {
        if (op.kind != op_kind::write) continue;
        batch_has_write = true;
        max_write_inv = std::max(
            max_write_inv, static_cast<std::uint64_t>(op.invoked));
    }
    if (!batch_has_write) {
        universe = candidates_;
    } else {
        for (const operation& op : batch) {
            // A write's own invocation precedes its response, so the
            // global max works: followed iff some OTHER write was invoked
            // after this response.
            if (op.kind == op_kind::write &&
                max_write_inv <= static_cast<std::uint64_t>(op.responded)) {
                universe.push_back(op.value);
            }
        }
    }
    std::vector<value_t> next;
    for (const value_t u : universe) {
        operation vread;
        vread.id = {vread_processor, vread_seq_++};
        vread.kind = op_kind::read;
        vread.value = u;
        vread.invoked = stats_.events;
        vread.responded = stats_.events + 1;
        batch.push_back(vread);
        for (const value_t v : candidates_) {
            const fast_check_result res = check_fast(batch, v);
            if (res.ok() && res.linearizable) {
                next.push_back(u);
                break;
            }
        }
        batch.pop_back();
    }
    if (next.empty()) {
        // Unreachable when the checkpoint passed (its witness restricted
        // to the batch ends with SOME value); kept as a loud guard rather
        // than a silent soundness hole.
        flag("internal error: no candidate current value survived "
             "certification");
        return;
    }
    candidates_ = std::move(next);
    last_pass_ = 0;

    certified_.insert(certified_.end(),
                      std::make_move_iterator(batch.begin()),
                      std::make_move_iterator(
                          batch.begin() + static_cast<std::ptrdiff_t>(k)));
    stats_.candidate_values = candidates_.size();
    stats_.pending_carried = pending_.size();
}

bool streaming_checker::check_now() {
    if (violation_) return true;
    since_check_ = 0;
    checkpoint();
    return violation_;
}

bool streaming_checker::finish() {
    if (violation_) return true;
    run_check();
    return violation_;
}

}  // namespace bloom87
