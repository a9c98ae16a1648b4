// bloom87: bounded-memory STREAMING linearizability checking.
//
// The post-hoc checkers (and PR 4's online_verifier) re-examine the whole
// recorded prefix on every poll: O(n) memory and O(n^2/stride) total work,
// which caps how long a run they can watch. This checker consumes the
// gamma event stream once, judges each event at a checkpoint only until
// a certified cut passes it, and still renders a verdict equivalent to
// running check_fast over the entire history.
//
// How certification stays sound AND complete:
//
//  * The checker CERTIFIES a prefix only across a QUIESCENT CUT: a stream
//    position c with every completed operation responded before c or
//    invoked at/after c, and every open operation invoked after c (no
//    operation spans c). Real time then already orders every certified
//    op before every later one, so any linearization of the full history
//    is a linearization of the certified prefix followed by one of the
//    suffix -- nothing about the prefix other than its final value can
//    constrain the future.
//  * That final value is not always unique: concurrent certified writes
//    can linearize in either order. The checker therefore carries a
//    CANDIDATE SET V of possible current values at the cut. At each
//    certification it recomputes V by appending a virtual read of each
//    candidate u to the newly certified batch and asking check_fast
//    whether some linearization ends with value u (starting from some
//    previous candidate). |V| is bounded by the writes concurrent at the
//    cut, in practice <= writers+1.
//  * Each checkpoint judges only the UNCERTIFIED SUFFIX -- the completed
//    ops past the cut, the open ops and the carried pending writes --
//    against V, and accepts iff it checks out against at least one v in
//    V. Since V summarizes its prefix exactly, that still decides "is
//    everything so far linearizable". After every passing checkpoint the
//    cut advances to the latest quiescent cut, bounded only by the open
//    operations' invocations.
//  * A read of a value that is neither in the suffix nor in V surfaces
//    through check_fast/normalize as "read returned a value no write
//    produced" -- which in this setting is precisely a stale read of a
//    certified, overwritten value. Sound: u not in V means no
//    linearization of the prefix ends with u, and every interleaving puts
//    the whole prefix before the reader.
//  * Pending operations never block the cut for long. An operation still
//    open `pending_grace` events after its invocation is declared crashed:
//    pending reads are dropped (they constrain nothing), pending writes
//    are carried and presented to every later check (normalize keeps a
//    pending write exactly when some read observed it), so "did that
//    crashed write land?" stays undecided until a reader decides it --
//    at which point the write is materialized into the certified batch.
//    Carried pendings are bounded by the number of ports. If a declared-
//    crashed operation responds after all (the grace was set shorter than
//    a real stall), the checker reports it as a configuration violation
//    rather than silently mis-judging.
//
// Memory: `window` bounds retained memory only. Certified operations stay
// retained until they are `window` events behind the frontier and are
// then released; they are never judged again. With the uncertified
// suffix, ports and |V| on top, memory is independent of run length.
// Work: a checkpoint's cost follows the events since the last quiescent
// cut, not the window -- the suffix check plus the probes over the newly
// certified batch. An operation held open across a long preemption pins
// the cut at its invocation, exactly as it pinned retirement when the
// window also bounded the cut, so the worst case (a suffix as long as the
// stall, at most `pending_grace` events) is unchanged.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "histories/events.hpp"
#include "histories/history.hpp"

namespace bloom87 {

struct streaming_config {
    /// Certified operations stay retained until they are this many events
    /// behind the frontier. Bounds memory only: no checkpoint reads them
    /// again, and the certified cut does not wait for it.
    std::size_t window{4096};
    /// Events ingested between incremental checks.
    std::size_t stride{256};
    /// An operation still open this many events after its invocation is
    /// declared crashed and stops blocking certification. 0 = auto
    /// (16 * window + 1024).
    std::size_t pending_grace{0};
};

struct streaming_stats {
    std::uint64_t events{0};          ///< gamma events ingested
    std::uint64_t ops_completed{0};
    std::uint64_t ops_retired{0};     ///< certified, then released
    std::uint64_t checkpoints{0};     ///< incremental checks run
    std::uint64_t retire_batches{0};  ///< releases of certified ops
    std::size_t retained_ops{0};      ///< certified + uncertified right now
    std::size_t peak_retained_ops{0};
    /// Most completed-but-uncertified ops judged at one checkpoint.
    std::size_t uncertified_peak{0};
    std::size_t candidate_values{0};  ///< |V| right now
    std::size_t pending_carried{0};   ///< declared-crashed writes carried
};

class streaming_checker {
public:
    explicit streaming_checker(value_t initial, streaming_config cfg = {});

    streaming_checker(const streaming_checker&) = delete;
    streaming_checker& operator=(const streaming_checker&) = delete;

    /// Feeds the next gamma event. Real-register accesses are skipped --
    /// linearizability is defined over the external schedule only. A found
    /// violation is sticky; further events are ignored.
    void ingest(const event& e);

    /// Forces an incremental check of everything uncertified right now.
    /// Returns violation_found().
    bool check_now();

    /// Final check after the stream ends; returns violation_found().
    bool finish();

    [[nodiscard]] bool violation_found() const noexcept { return violation_; }
    [[nodiscard]] const std::string& diagnosis() const noexcept {
        return diagnosis_;
    }
    /// Stream position (events ingested) when the violation was flagged.
    [[nodiscard]] std::uint64_t detection_pos() const noexcept {
        return detection_pos_;
    }
    [[nodiscard]] const streaming_stats& stats() const noexcept {
        return stats_;
    }

private:
    void flag(std::string why);
    void on_invocation(const event& e);
    void on_response(const event& e);
    /// run_check, then advance_cut if it passed.
    void checkpoint();
    /// One check_fast pass over uncertified + open + carried-pending ops
    /// against every candidate current value; flags on total failure.
    void run_check();
    /// Declares overdue open ops crashed, certifies up to the latest
    /// quiescent cut, and releases certified ops `window` events behind.
    void advance_cut();
    /// Certifies uncertified_[0, k): recomputes V over that batch.
    void certify(std::size_t k);

    streaming_config cfg_;
    value_t initial_;

    struct open_op {
        operation op;
    };
    std::vector<open_op> open_;           ///< <= one per processor
    std::deque<operation> certified_;     ///< behind the cut, kept `window`
    std::vector<operation> uncertified_;  ///< completed, ascending responded
    std::vector<operation> pending_;      ///< declared-crashed writes carried
    std::vector<op_id> crashed_ids_;      ///< declared-crashed, for late resps
    std::vector<value_t> candidates_;     ///< V: possible values at the cut
    std::size_t last_pass_{0};            ///< index into candidates_: hint

    std::uint64_t since_check_{0};
    op_index vread_seq_{0};               ///< virtual-read op counter

    bool violation_{false};
    std::string diagnosis_;
    std::uint64_t detection_pos_{0};
    streaming_stats stats_{};
};

}  // namespace bloom87
