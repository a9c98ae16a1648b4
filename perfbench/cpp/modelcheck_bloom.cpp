// modelcheck-bloom: mc::explore on Bloom's protocol, partial-order and
// symmetry reduction on. The only workload that runs modelcheck.
//
// The untimed run times many explores of a model with 2 writes per writer
// and one reader doing 2 reads, on 1 thread, and reports their median: one
// explore of the ROADMAP's target model (3 writes per writer, 1 reader x 1
// read) takes seconds, so a run would hold only two or three of them, and
// its median would follow the shared host's drift. The traced run explores
// the target model on 4 threads and on 1 thread.
#include "modelcheck/explorer.hpp"
#include "modelcheck/processes.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bloom87;

namespace {

/// One Bloom model: two writers, one reader, and its exact distinct-history
/// count.
struct bloom_model {
    int writes_per_writer;
    int reads_per_reader;
    std::uint64_t histories;

    /// Simulated operations and gamma events in one history.
    [[nodiscard]] constexpr int ops_per_history() const {
        return 2 * writes_per_writer + reads_per_reader;
    }
    [[nodiscard]] constexpr int events_per_history() const { return 2 * ops_per_history(); }
};

/// The model the untimed run measures.
constexpr bloom_model measured{2, 2, 247'354};
/// The ROADMAP's target configuration (baseline count in ROADMAP.md).
constexpr bloom_model target{3, 1, 342'156};
constexpr unsigned measured_threads = 1;
constexpr unsigned target_threads = 4;
constexpr int setup_reps = 5;
constexpr int setup_batch = 1000;

mc::mc_register atomic_reg(mc::mc_value domain) {
    mc::mc_register r;
    r.level = mc::reg_level::atomic;
    r.domain = domain;
    return r;
}

mc::sim_state bloom_state(const bloom_model& m) {
    mc::sim_state s;
    const auto domain = static_cast<mc::mc_value>((2 * m.writes_per_writer + 1) * 2);
    s.registers = {atomic_reg(domain), atomic_reg(domain)};
    std::vector<mc::mc_value> s0, s1;
    for (int i = 1; i <= m.writes_per_writer; ++i) {
        s0.push_back(static_cast<mc::mc_value>(i));
        s1.push_back(static_cast<mc::mc_value>(m.writes_per_writer + i));
    }
    s.procs.push_back(mc::make_bloom_writer(0, s0));
    s.procs.push_back(mc::make_bloom_writer(1, s1));
    s.procs.push_back(mc::make_bloom_reader(2, m.reads_per_reader));
    return s;
}

mc::explore_config explore_cfg(unsigned threads) {
    mc::explore_config cfg;
    cfg.threads = threads;
    cfg.por = true;
    cfg.symmetry = true;
    return cfg;
}

/// One explore, timed, with its verdict checked. Returns wall seconds.
double timed_explore(const bloom_model& m, unsigned threads, mc::explore_result& res,
                     outcome& out) {
    const mc::sim_state s = bloom_state(m);
    const std::uint64_t t0 = now_ns();
    res = mc::explore(s, explore_cfg(threads));
    const double wall = secs(t0, now_ns());
    ++out.attempted;
    if (!res.property_holds || res.truncated || res.distinct_histories != m.histories) {
        out.fail("modelcheck-bloom (" + std::to_string(m.writes_per_writer) + " writes, " +
                     std::to_string(m.reads_per_reader) +
                     " reads): property_holds=" + std::to_string(res.property_holds) +
                     " truncated=" + std::to_string(res.truncated) +
                     " distinct_histories=" + std::to_string(res.distinct_histories) +
                     " (expected " + std::to_string(m.histories) + ")",
                 1);
    }
    return wall;
}

}  // namespace

void run_modelcheck_bloom(const options& opt, outcome& out) {
    // Set-up is building the model's initial state: cheap, so each sample
    // times a batch of builds. A group of samples precedes every explore,
    // so that the samples spread over the run instead of catching the
    // shared host in the few milliseconds they take back to back.
    std::vector<double> setups;
    const auto sample_setups = [&] {
        for (int i = 0; i < setup_reps; ++i) {
            const std::uint64_t t0 = now_ns();
            for (int b = 0; b < setup_batch; ++b) {
                const mc::sim_state s = bloom_state(measured);
                if (s.procs.size() != 3) out.fail("modelcheck-bloom: bad initial state", 1);
            }
            setups.push_back(secs(t0, now_ns()) / setup_batch);
        }
    };

    // A warm-up explore, then complete explores until the run's time is
    // spent.
    mc::explore_result warm;
    timed_explore(measured, measured_threads, warm, out);
    std::vector<double> walls;
    const std::uint64_t start = now_ns();
    do {
        sample_setups();
        mc::explore_result res;
        walls.push_back(timed_explore(measured, measured_threads, res, out));
    } while (secs(start, now_ns()) < opt.seconds);

    // One explore is one request. A run holds too few of them to estimate
    // a tail, so both latency percentiles report the median explore.
    const double explore_s = median(walls);
    const auto hist = static_cast<double>(measured.histories);
    out.add("ops_per_s", hist * measured.ops_per_history() / explore_s, "1/s");
    out.add("lat_p50_us", explore_s * 1e6, "us");
    out.add("lat_p99_us", explore_s * 1e6, "us");
    out.add("checker_events_per_s", hist * measured.events_per_history() / explore_s, "1/s");
    out.add("explore_s", explore_s, "s");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void trace_modelcheck_bloom(const options& /*opt*/, outcome& out,
                            std::vector<span_buffer>& buffers) {
    span_buffer buf(30, 16);
    const std::uint64_t m0 = now_ns();
    const std::int64_t root = buf.open("bench.main", -1, 0, m0);

    mc::explore_result untraced_res;
    const double untraced_s = timed_explore(target, target_threads, untraced_res, out);

    const std::uint64_t seg0 = now_ns();
    const std::uint64_t s0 = now_ns();
    const mc::sim_state s = bloom_state(target);
    const std::uint64_t s1 = now_ns();
    buf.add("modelcheck.setup", root, 0, s0, s1);
    const mc::explore_result res = mc::explore(s, explore_cfg(target_threads));
    const std::uint64_t s2 = now_ns();
    buf.add("modelcheck.explore", root, 0, s1, s2);
    const std::uint64_t seg1 = now_ns();
    ++out.attempted;
    if (!res.property_holds || res.truncated || res.distinct_histories != target.histories) {
        out.fail("modelcheck-bloom (traced): verdict or history count differs", 1);
    }

    mc::explore_result t1_res;
    const std::uint64_t o0 = now_ns();
    const double t1_s = timed_explore(target, 1, t1_res, out);
    buf.add("modelcheck.explore_t1", root, 0, o0, now_ns());
    buf.close(root, now_ns());
    buffers.push_back(std::move(buf));

    const double traced_s = secs(s1, s2);
    const mc::reduction_stats& r = res.reduction;
    out.add("modelcheck.core_states", static_cast<double>(r.core_states), "count");
    out.add("modelcheck.core_edges", static_cast<double>(r.core_edges), "count");
    out.add("modelcheck.sleep_pruned", static_cast<double>(r.sleep_pruned), "count");
    out.add("modelcheck.enumerated_paths", static_cast<double>(r.enumerated_paths), "count");
    out.add("modelcheck.distinct_histories", static_cast<double>(res.distinct_histories), "count");
    out.add("modelcheck.paths_per_history",
            static_cast<double>(r.enumerated_paths) / static_cast<double>(res.distinct_histories),
            "ratio");
    out.add("modelcheck.graph_bytes", static_cast<double>(res.memory.graph_bytes), "bytes");
    out.add("modelcheck.explore_s_t1", t1_s, "s");
    out.add("modelcheck.thread_speedup", t1_s / traced_s, "ratio");
    out.add("trace.modelcheck-bloom.overhead", traced_s / untraced_s, "ratio");
    out.add("trace.modelcheck-bloom.unattributed_frac",
            1.0 - secs(s0, s2) / secs(seg0, seg1), "frac");
}

}  // namespace perfbench
