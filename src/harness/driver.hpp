// bloom87: the one workload driver every bench/example/stress binary uses.
//
// The driver owns the run lifecycle that used to be copy-pasted across ~14
// binaries: build a register from the registry by name, script a workload
// (histories/workload.hpp), line threads up on a start gate, run warmup and
// a measured epoch, optionally inject crashes/stalls at the protocols'
// vulnerable points, collect per-thread latency samples and event logs
// without cross-thread contention, and hand the recorded history to the
// checker pipeline (checkers.hpp).
//
// Two schedules:
//   * threads -- real concurrency, one OS thread per processor;
//   * seeded  -- a single-thread seeded interleaving at operation
//     granularity (the model-check-style scheduler): same seed, same
//     workload, same history, byte for byte. Determinism is what the
//     harness tests pin.
//
// Two history collectors:
//   * gamma      -- the register (or its adapter) appends simulated
//     invocations/responses into one shared MPMC event_log; required for
//     the recording substrate, whose REAL accesses must interleave with
//     the simulated events in one total order;
//   * per_thread -- each worker records into its own fixed-capacity
//     lock-free ring (histories/thread_log.hpp), stamping every record
//     from one shared relaxed fetch_add counter -- the only shared write
//     on the record path. The driver merges the rings into gamma order by
//     ascending stamp; under the seeded schedule the merge is
//     byte-identical across runs.
//
// A run can additionally carry the bounded-memory STREAMING checker
// (linearizability/streaming.hpp) alongside either collector: it tails
// the shared log (gamma) or consumes the live ring merge (per_thread),
// verifying the run while it happens in O(window) memory. That is the
// only configuration in which a TIMED run may collect: per_thread +
// streaming_monitor checks and discards events instead of retaining them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/registry.hpp"
#include "histories/workload.hpp"

namespace bloom87::harness {

/// How the driver records the run's external schedule.
enum class collect_mode : std::uint8_t {
    none,        ///< throughput runs: nothing recorded
    gamma,       ///< one shared event_log (register/adapter self-logs)
    per_thread,  ///< lock-free per-thread rings, merged by sequence stamp
};

/// How operations are interleaved.
enum class schedule_mode : std::uint8_t {
    threads,  ///< one OS thread per processor (real concurrency)
    seeded,   ///< deterministic single-thread interleaving from the seed
};

/// What a per_thread producer does when its event ring is full.
enum class ring_policy : std::uint8_t {
    block,  ///< stall between ops until the consumer drains (default)
    drop,   ///< skip the whole op, count it (run_result::ops_dropped)
};

/// Adversarial pacing and failure injection, applied to scripted ops.
struct pacing {
    /// Fraction (num/den) of writer ops run through write_paced with a
    /// yield-loop pause (opens the impotent-write window deliberately).
    std::uint64_t writer_pace_num{0};
    std::uint64_t writer_pace_den{1};
    /// Fraction of reader ops run through read_paced (the very slow reader).
    std::uint64_t reader_pace_num{0};
    std::uint64_t reader_pace_den{1};
    /// Number of scheduler yields a paused operation sleeps for.
    unsigned pause_yields{64};
    /// Fraction of writer writes that CRASH mid-protocol (write_crashed),
    /// cycling through the three crash points. Only meaningful on registers
    /// with crash machinery; others fall back to a plain write.
    std::uint64_t crash_num{0};
    std::uint64_t crash_den{1};
};

/// Everything one run needs.
struct run_spec {
    std::string register_name{"bloom/packed"};
    value_t initial{0};
    workload_config load{};
    std::uint64_t seed{1};

    /// 0 = scripted run (each processor runs its script once).
    /// > 0 = timed run: scripts are cycled until the clock expires
    /// (collect must be none -- histories of a timed run are unbounded).
    unsigned duration_ms{0};
    unsigned warmup_ms{0};
    /// Timed runs: after the epoch ends, workers get this long to finish
    /// their in-flight op before the driver trips the global abort flag --
    /// net/ quorum phases then bail out as `unavailable` instead of pumping
    /// a dead majority forever. No workload blocks past duration + grace.
    unsigned grace_ms{1000};

    collect_mode collect{collect_mode::none};
    schedule_mode schedule{schedule_mode::threads};
    pacing pace{};

    /// Writers serve scripted reads through the cached-read protocol
    /// (Section 5, 1-2 real reads) where the register supports it.
    bool cached_writer_reads{false};

    /// Sample every k-th operation's latency (0 = no sampling).
    unsigned latency_sample_every{0};

    /// Substrate fault injection (faulty/ registers only; the driver
    /// rejects an active spec on any other family).
    fault_spec fault{};

    /// Run the online verifier concurrently with the run (collect must be
    /// gamma) and fill run_result::online with what it caught.
    bool online_monitor{false};
    /// The verifier re-checks after every this-many new events.
    unsigned monitor_stride{64};

    /// Run the bounded-memory STREAMING checker concurrently with the run
    /// and fill run_result::stream. collect=gamma tails the shared log;
    /// collect=per_thread consumes the live ring merge. The only monitor
    /// that may watch a TIMED run (with collect=per_thread: events are
    /// checked and discarded, never retained).
    bool streaming_monitor{false};
    /// Streaming checker knobs: events of context kept behind the
    /// frontier, and events ingested between incremental checks.
    unsigned stream_window{4096};
    unsigned stream_stride{256};

    /// Backpressure policy of the per_thread rings. `drop` sheds load
    /// instead of stalling: a full ring skips the ENTIRE next operation
    /// (not executed, not recorded -- recording gaps would fabricate
    /// checker violations) and counts it in run_result::ops_dropped.
    ring_policy ring{ring_policy::block};

    /// Replica count for net/ compositions (ignored elsewhere).
    std::size_t net_servers{3};

    /// Timed threads-mode runs only: multiplex this many simulated
    /// open-loop clients over the worker threads (0 = classic closed
    /// loop). Each client issues one scripted op every client_pace_ns;
    /// latency is measured from the client's DUE time, so queueing delay
    /// at saturation is included (no coordinated omission).
    unsigned clients{0};
    std::uint64_t client_pace_ns{1000000};
};

/// Per-processor outcome.
struct thread_result {
    processor_id processor{0};
    port_role role{port_role::reader};
    std::uint64_t reads{0};
    std::uint64_t writes{0};
    double ops_per_sec{0};
    /// Latency percentiles over the sampled ops, in microseconds; zero
    /// when sampling was off. Quantiles come from a log-scale histogram
    /// (util/histogram.hpp, ~6% resolution); max_us is exact.
    double p50_us{0};
    double p99_us{0};
    double p999_us{0};
    double max_us{0};
    std::uint64_t samples{0};
};

/// Latency distribution merged across every worker thread.
struct latency_stats {
    double p50_us{0};
    double p99_us{0};
    double p999_us{0};
    double max_us{0};
    std::uint64_t samples{0};
};

/// What the streaming checker saw during a monitored run
/// (run_spec::streaming_monitor). `latency_ops` mirrors the online
/// verifier's robustness metric: completed operations between the first
/// injected fault and the stream position where the violation was
/// flagged.
struct stream_outcome {
    bool ran{false};
    std::uint64_t events{0};          ///< gamma events ingested
    std::uint64_t ops_completed{0};
    std::uint64_t ops_retired{0};
    std::uint64_t checkpoints{0};
    std::uint64_t retained_peak{0};   ///< bounded-memory witness
    /// Most uncertified ops judged at one checkpoint (<= retained_peak):
    /// what a checkpoint costs.
    std::uint64_t uncertified_peak{0};
    std::uint64_t producer_stalls{0}; ///< ring backpressure events
    bool violation{false};
    std::uint64_t detection_pos{0};
    std::uint64_t latency_ops{0};
    std::string diagnosis;
};

/// What the online verifier saw during a monitored run (run_spec::
/// online_monitor). `latency_ops` is the robustness metric of
/// bench_fault_matrix: completed operations between the first injected
/// fault and the end of the minimal violating prefix -- how long a
/// corrupted execution can masquerade as atomic.
struct online_detection {
    bool ran{false};
    bool violation{false};
    std::string diagnosis;
    /// True when the watcher thread flagged the violation DURING the run
    /// (else the post-run final check caught it).
    bool caught_live{false};
    /// Gamma position at the first injection (no_event: nothing injected).
    event_pos injection_pos{no_event};
    /// Events in the minimal violating prefix (0 when no violation).
    std::uint64_t detection_prefix{0};
    /// Completed ops between injection and detection; meaningful only when
    /// a violation was found and an injection position is known.
    std::uint64_t latency_ops{0};
    /// The operation whose event closes the minimal violating prefix.
    bool culprit_known{false};
    op_id culprit{};
};

/// Whole-run outcome. When `ok` is false nothing else is meaningful except
/// `error`.
struct run_result {
    bool ok{false};
    std::string error;

    register_info info{};
    double measured_s{0};      ///< measured epoch wall time
    std::uint64_t total_reads{0};
    std::uint64_t total_writes{0};
    std::uint64_t crashes_injected{0};
    /// Operations shed by the drop ring policy (zero under block).
    std::uint64_t ops_dropped{0};
    std::vector<thread_result> threads;

    /// Recorded external schedule (collect != none), in gamma order.
    std::vector<event> events;
    bool log_overflowed{false};

    /// Substrate fault injection counters (faulty/ registers; zero
    /// elsewhere) and the monitors' findings.
    fault_counts faults_injected{};
    online_detection online{};
    stream_outcome stream{};

    /// Message-layer counters (net/ compositions; `ran` false elsewhere).
    net_stats net{};

    /// Self-healing overhead (repair/ compositions; `ran` false elsewhere).
    repair_stats repair{};

    /// Merged latency distribution across all threads (empty when
    /// sampling was off and no clients were configured).
    latency_stats latency{};
};

/// Runs one spec. Validates the spec against the registry entry (writer
/// range, recording requirements, timed-run restrictions) and reports
/// violations through run_result::error instead of crashing.
[[nodiscard]] run_result run(const run_spec& spec);

/// Returns freed heap pages to the OS between configs so one config's
/// allocations are not billed to the next (glibc only; no-op elsewhere).
void trim_heap();

/// Single-thread operation-latency microbenchmark through the registry:
/// median-of-batches nanoseconds for a simulated write, a simulated read,
/// and (where supported) the writer's cached read.
struct latency_result {
    bool ok{false};
    std::string error;
    double write_ns{0};
    double read_ns{0};
    double cached_read_ns{-1};  ///< < 0: register has no cached-read path
};

[[nodiscard]] latency_result measure_latency(const std::string& register_name,
                                             std::size_t writers,
                                             std::size_t readers,
                                             std::uint64_t iters);

/// The Section 4 wait-freedom experiment: one participant stalls mid-
/// operation (a lock holder asleep in its critical section, a Bloom writer
/// asleep between its real read and real write, a reader crashed mid-read)
/// while a reader samples its own latency. Blocking designs transmit the
/// stall to the reader's max; wait-free designs do not.
struct stall_spec {
    std::string register_name{"bloom/packed"};
    std::size_t writers{2};
    /// Which side stalls: a writer port or a second reader port.
    port_role stalled_role{port_role::writer};
    unsigned stall_ms{20};
    unsigned run_ms{60};
};

struct stall_result {
    bool ok{false};
    std::string error;
    std::uint64_t reads{0};  ///< reader ops completed during the run
    double p50_us{0};
    double p99_us{0};
    double p999_us{0};
    double max_us{0};
};

[[nodiscard]] stall_result measure_stall(const stall_spec& spec);

}  // namespace bloom87::harness
