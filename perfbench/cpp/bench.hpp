// perfbench: pieces every workload shares -- the clock, order statistics,
// the result record a run fills, and the two building blocks register-
// closed and net-quorum have in common: a closed-loop epoch over the
// registry's type-erased ports, and the untimed scripted verification pass.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness/registry.hpp"
#include "trace.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

[[nodiscard]] inline double secs(std::uint64_t from_ns, std::uint64_t to_ns) {
    return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Command-line options of one invocation.
struct options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10};
    bool trace{false};
    std::string out_dir{"."};  ///< where a traced run writes its spans
};

/// What one invocation reports: the verdict of its output checks, the
/// operations it attempted and failed, and its metrics by name and unit.
struct outcome {
    struct metric {
        std::string name;
        double value{0};
        std::string unit;
    };

    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<metric> metrics;
    std::vector<std::string> failures;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Records a failed output check; `ops` operations count as failed.
    void fail(std::string why, std::uint64_t ops) {
        correct = false;
        failed += ops;
        failures.push_back(std::move(why));
    }
};

[[nodiscard]] double median(std::vector<double> v);

/// Quantile q of latency samples, taken as the mean of the samples ranked
/// within half a percentile of q. Nanosecond samples tie often; averaging a
/// narrow rank window keeps the estimate's digits without moving it.
[[nodiscard]] double smooth_quantile(std::vector<std::uint64_t>& samples,
                                     double q);

/// Peak resident set of this process so far, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Fixed-capacity store of latency samples, allocated and touched before
/// an epoch's set-up is timed, so that neither its allocation nor its
/// growth lands in set-up time or in the epoch's resident memory. Keeps the
/// most recent `capacity` samples.
class sample_buffer {
public:
    /// Capacity of a measured epoch's buffer; set-up-only samples keep the
    /// default of 1, so that back-to-back set-ups are not spaced apart by
    /// megabytes of page faults.
    static constexpr std::size_t epoch_capacity = std::size_t{1} << 18;

    explicit sample_buffer(std::size_t capacity = 1) : v_(capacity) {}

    void record(std::uint64_t ns) noexcept { v_[n_++ % v_.size()] = ns; }
    [[nodiscard]] std::size_t size() const noexcept { return std::min(n_, v_.size()); }
    void append_to(std::vector<std::uint64_t>& out) const {
        out.insert(out.end(), v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(size()));
    }

private:
    std::vector<std::uint64_t> v_;
    std::size_t n_{0};
};

/// Pins the calling thread to one of the process's usable CPUs: slot s
/// maps to the (s mod n)-th of the n usable CPUs. Epochs rotate their
/// threads' slots and verification passes rotate theirs, so each run
/// samples every CPU equally instead of whichever CPUs the scheduler
/// picked -- on a shared host some CPUs run slower than others. No-op when
/// fewer than `needed` CPUs are usable (the threads could not all run).
void pin_to_slot(std::size_t slot, std::size_t needed);

/// Runs `fn` on a fresh thread pinned by pin_to_slot(slot, 1) and waits.
template <typename F>
void run_pinned(std::size_t slot, F&& fn) {
    std::jthread t([&] {
        pin_to_slot(slot, 1);
        fn();
    });
}

/// Start line of an epoch's worker threads. Workers check in and sleep
/// until the line opens; sleeping (not spinning) leaves the cores free for
/// the workers still being started, which keeps set-up time steady.
class start_line {
public:
    explicit start_line(std::size_t workers) : workers_(workers) {}

    /// Worker side: check in, then sleep until open().
    void arrive_and_wait() {
        if (ready_.fetch_add(1) + 1 == workers_) ready_.notify_one();
        open_.wait(false);
    }
    /// Starter side: sleep until every worker has checked in.
    void wait_ready() {
        for (std::size_t r = ready_.load(); r < workers_; r = ready_.load()) ready_.wait(r);
    }
    void open() {
        open_.store(true);
        open_.notify_all();
    }

private:
    std::size_t workers_;
    std::atomic<std::size_t> ready_{0};
    std::atomic<bool> open_{false};
};

/// Shape of an untimed run of the three epoch-based workloads: `epochs`
/// measured epochs, each followed by a group of set-up-only samples (see
/// sample_setups), then `verify_passes` verification passes. Epochs rotate
/// their threads over the CPU slots and verification passes take one slot
/// each, so on 4 CPUs every slot carries equal weight; rates are totals
/// over the epochs and latency quantiles come from the pooled samples, so
/// that weight is what they average over.
inline constexpr int epochs = 24;
inline constexpr int verify_passes = 8;
inline constexpr int setup_samples_per_epoch = 3;

/// Takes the group of set-up-only samples that follows a measured epoch:
/// a warm-up, dropped because it pays for the heap the epoch gave back,
/// then `setup_samples_per_epoch` kept, appended to `kept`. Groups after
/// every epoch spread a run's samples over the whole run; back to back,
/// they would span a few milliseconds and catch the shared host in a
/// single state. `setup(i)` takes sample i and returns its seconds.
template <typename Setup>
void sample_setups(Setup&& setup, std::vector<double>& kept) {
    (void)setup(0);
    for (int k = 1; k <= setup_samples_per_epoch; ++k) kept.push_back(setup(k));
}

/// Samples each epoch adds to a run's latency pool: a fixed count (fewer
/// only when an epoch sampled fewer ops), so the pool's memory is the same
/// from run to run.
inline constexpr std::size_t pooled_per_epoch = 20'000;

/// Adds min(pooled_per_epoch, from.size()) of `from`'s samples, evenly
/// spaced, to `into`.
void pool_samples(const std::vector<std::uint64_t>& from, std::vector<std::uint64_t>& into);

/// The workloads' operation mix: writers read on 1/4 of their ops.
inline constexpr std::uint64_t writer_read_num = 1;
inline constexpr std::uint64_t writer_read_den = 4;

/// One closed-loop configuration over a registry register.
struct loop_config {
    std::string register_name;
    std::size_t writers{2};
    std::size_t readers{2};
    std::size_t servers{3};   ///< net/ compositions only
    std::uint64_t seed{1};
    unsigned sample_every{1}; ///< time every k-th op of each thread
    std::size_t rotation{0};  ///< worker p runs on CPU slot p + rotation
};

/// What one closed-loop epoch measured.
struct epoch_stats {
    double setup_s{0};  ///< build register + ports, start workers at the gate
    double epoch_s{0};  ///< gate open .. stop
    std::uint64_t ops{0};
    std::vector<std::uint64_t> latency_ns;  ///< sampled op latencies
    bloom87::harness::net_stats net{};      ///< net/ counters at the end
    std::uint64_t op_ns{0};      ///< traced: summed op time, all threads
    std::uint64_t worker_ns{0};  ///< traced: summed worker wall time
};

/// Builds the register, starts one worker thread per port on a start gate,
/// runs the closed loop for `seconds` and joins. `seconds == 0` measures
/// set-up alone. With `bufs` non-null (one buffer per worker) the epoch is
/// traced: every op is timed and a sample is recorded as `op_span` spans
/// under one worker span per thread. False (with `error`) when the
/// register cannot be built.
bool run_closed_epoch(const loop_config& cfg, double seconds, epoch_stats& out,
                      std::string* error, std::vector<span_buffer>* bufs = nullptr,
                      const char* op_span = nullptr);

/// The untimed output check of register-closed and net-quorum: a scripted
/// run of the same register and mix, collected per thread and passed
/// through run_checkers(fast) on CPU slot cfg.rotation.
struct verify_stats {
    bool pass{false};
    std::string why;
    std::uint64_t ops{0};
    std::uint64_t events{0};
    double wall_s{0};   ///< scripted run + check
    double check_s{0};  ///< run_checkers(fast) alone
};

[[nodiscard]] verify_stats verify_scripted(const loop_config& cfg,
                                           std::size_t ops_per_proc);

/// The untimed run of register-closed and net-quorum: closed-loop epochs
/// of `base` (see `epochs` above), then verification passes of
/// `verify_ops_per_proc` ops per processor; fills every end-to-end metric.
/// Operations a net/ register reports unavailable count as failed.
void run_closed_workload(const std::string& label, const loop_config& base,
                         std::size_t verify_ops_per_proc, const options& opt,
                         outcome& out);

}  // namespace perfbench
