// bloom87: runtime atomicity monitoring for any register implementation.
//
// A thin, thread-safe facade over the event log + checkers: application
// code reports each operation's boundaries through a per-processor port,
// and verify() renders a verdict over everything recorded so far. Use it
// to put ANY register implementation (including ones outside this
// repository) under the same verification regime as the built-in ones:
//
//   atomicity_monitor mon(0);
//   auto port = mon.make_port(2);
//   port.begin_read();
//   value_t v = my_register.read();
//   port.end_read(v);
//   ...
//   auto verdict = mon.verify();   // after the run
//
// Monitoring only observes invocation/response order (it cannot see the
// register's internals), so it checks exactly what linearizability is
// defined over: the external history.
#pragma once

#include <string>

#include "histories/event_log.hpp"
#include "histories/events.hpp"

namespace bloom87 {

struct monitor_verdict {
    bool atomic{false};
    std::size_t operations{0};
    std::string diagnosis;  ///< empty when atomic; else what broke
};

class atomicity_monitor {
public:
    /// `capacity` bounds the number of recorded events (2 per operation).
    explicit atomicity_monitor(value_t initial, std::size_t capacity = 1 << 20);

    atomicity_monitor(const atomicity_monitor&) = delete;
    atomicity_monitor& operator=(const atomicity_monitor&) = delete;

    /// One port per processor; each port must be driven by one thread at a
    /// time (operations on a port are sequential, as the model requires).
    class port {
    public:
        void begin_write(value_t v);
        void end_write();
        void begin_read();
        void end_read(value_t result);

        /// Report a crashed operation: begin_* was called but the op never
        /// finished. (Optional -- an un-ended op is treated as pending
        /// anyway; this just lets the port be reused afterwards.)
        void abandon();

    private:
        friend class atomicity_monitor;
        port(atomicity_monitor& owner, processor_id processor)
            : owner_(&owner), processor_(processor) {}

        atomicity_monitor* owner_;
        processor_id processor_;
        op_index next_op_{0};
        bool open_{false};
        op_index open_op_{0};
        bool open_is_write_{false};
    };

    [[nodiscard]] port make_port(processor_id processor) {
        return port{*this, processor};
    }

    /// Checks everything recorded so far. Call after the threads driving
    /// ports are quiescent (typically joined); in-flight operations are
    /// treated as pending (crashed).
    [[nodiscard]] monitor_verdict verify() const;

    /// True if the monitor ran out of capacity (verify() also reports it).
    [[nodiscard]] bool overflowed() const noexcept { return log_.overflowed(); }

private:
    value_t initial_;
    event_log log_;
};

}  // namespace bloom87
