#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include <sched.h>

#include "harness/checkers.hpp"
#include "harness/driver.hpp"
#include "histories/workload.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace perfbench {

using namespace bloom87;

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double smooth_quantile(std::vector<std::uint64_t>& samples, double q) {
    if (samples.empty()) return 0;
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<double>(samples.size());
    auto lo = static_cast<std::size_t>(std::max(0.0, (q - 0.005) * n));
    auto hi = static_cast<std::size_t>(std::min(n, (q + 0.005) * n));
    lo = std::min(lo, samples.size() - 1);
    hi = std::max(hi, lo + 1);
    double sum = 0;
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<double>(samples[i]);
    return sum / static_cast<double>(hi - lo);
}

double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kib / 1024.0;
}

void pool_samples(const std::vector<std::uint64_t>& from, std::vector<std::uint64_t>& into) {
    const std::size_t n = std::min(pooled_per_epoch, from.size());
    for (std::size_t i = 0; i < n; ++i) into.push_back(from[i * from.size() / n]);
}

void pin_to_slot(std::size_t slot, std::size_t needed) {
    cpu_set_t usable;
    CPU_ZERO(&usable);
    if (sched_getaffinity(0, sizeof usable, &usable) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &usable)) cpus.push_back(c);
    }
    if (cpus.empty() || cpus.size() < needed) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[slot % cpus.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
}

bool run_closed_epoch(const loop_config& cfg, double seconds, epoch_stats& out,
                      std::string* error, std::vector<span_buffer>* bufs,
                      const char* op_span) {
    const bool traced = bufs != nullptr;
    const std::size_t n = cfg.writers + cfg.readers;
    struct worker_out {
        std::uint64_t ops{0};
        sample_buffer lat;
        std::uint64_t op_ns{0};
        std::uint64_t wall_ns{0};
    };
    std::vector<worker_out> res(n);
    if (seconds > 0) {
        for (worker_out& w : res) w.lat = sample_buffer(sample_buffer::epoch_capacity);
        // Sized for full buffers and touched now, so that the epoch's
        // resident memory does not follow its throughput.
        out.latency_ns.assign(n * sample_buffer::epoch_capacity, 0);
    }

    const std::uint64_t t_setup = now_ns();
    std::atomic<bool> abort{false};
    harness::register_args args;
    args.writers = cfg.writers;
    args.readers = cfg.readers;
    args.servers = cfg.servers;
    args.net_seed = cfg.seed;
    args.abort = &abort;
    std::unique_ptr<harness::any_register> reg =
        harness::make_register(cfg.register_name, args, error);
    if (reg == nullptr) return false;

    std::vector<std::unique_ptr<harness::any_port>> ports;
    for (std::size_t p = 0; p < n; ++p) {
        ports.push_back(reg->make_port(
            static_cast<processor_id>(p),
            p < cfg.writers ? harness::port_role::writer
                            : harness::port_role::reader));
    }

    start_line line(n);
    stop_flag stop;
    std::atomic<value_t> sink{0};
    {
        std::vector<std::jthread> pool;
        for (std::size_t p = 0; p < n; ++p) {
            pool.emplace_back([&, p] {
                rng gen(cfg.seed * 0x9e3779b97f4a7c15ULL + p);
                harness::any_port& port = *ports[p];
                const bool writer = p < cfg.writers;
                const auto proc = static_cast<processor_id>(p);
                worker_out& w = res[p];
                std::uint32_t fresh = 0;
                value_t local = 0;
                span_buffer* buf = traced ? &(*bufs)[p] : nullptr;
                line.arrive_and_wait();
                pin_to_slot(p + cfg.rotation, n);
                const std::uint64_t w0 = now_ns();
                const std::int64_t root = traced ? buf->open("bench.worker", -1, 0, w0) : -1;
                while (!stop.stop_requested()) {
                    const bool sampled = w.ops % cfg.sample_every == 0;
                    const bool timed = traced || sampled;
                    const std::uint64_t t0 = timed ? now_ns() : 0;
                    if (writer && !gen.chance(writer_read_num, writer_read_den)) {
                        port.write(unique_value(proc, fresh++));
                    } else {
                        local += port.read();
                    }
                    ++w.ops;
                    if (!timed) continue;
                    const std::uint64_t t1 = now_ns();
                    if (sampled) w.lat.record(t1 - t0);
                    if (!traced) continue;
                    w.op_ns += t1 - t0;
                    if (w.ops % 16 == 0 && buf->room(1)) buf->add(op_span, root, w.ops, t0, t1);
                }
                const std::uint64_t w1 = now_ns();
                if (traced) buf->close(root, w1);
                w.wall_ns = w1 - w0;
                sink.fetch_add(local, std::memory_order_relaxed);
            });
        }
        line.wait_ready();
        const std::uint64_t t_open = now_ns();
        out.setup_s = secs(t_setup, t_open);
        line.open();
        if (seconds > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
        }
        stop.request_stop();
        out.epoch_s = secs(t_open, now_ns());
    }  // jthreads join here

    out.ops = 0;
    out.latency_ns.clear();
    std::size_t samples = 0;
    for (const worker_out& w : res) samples += w.lat.size();
    out.latency_ns.reserve(samples);
    for (const worker_out& w : res) {
        out.ops += w.ops;
        out.op_ns += w.op_ns;
        out.worker_ns += w.wall_ns;
        w.lat.append_to(out.latency_ns);
    }
    out.net = reg->net();
    if (seconds > 0) harness::trim_heap();
    return true;
}

verify_stats verify_scripted(const loop_config& cfg, std::size_t ops_per_proc) {
    verify_stats v;
    harness::run_spec spec;
    spec.register_name = cfg.register_name;
    spec.load.writers = cfg.writers;
    spec.load.readers = cfg.readers;
    spec.load.ops_per_writer = ops_per_proc;
    spec.load.ops_per_reader = ops_per_proc;
    spec.load.writer_read_num = writer_read_num;
    spec.load.writer_read_den = writer_read_den;
    spec.seed = cfg.seed;
    spec.collect = harness::collect_mode::per_thread;
    spec.schedule = harness::schedule_mode::threads;
    spec.net_servers = cfg.servers;

    const std::uint64_t t0 = now_ns();
    const harness::run_result r = harness::run(spec);
    v.ops = ops_per_proc * (cfg.writers + cfg.readers);
    if (!r.ok) {
        v.why = "scripted run failed: " + r.error;
        return v;
    }
    v.events = r.events.size();
    std::uint64_t tc = 0;
    std::uint64_t t1 = 0;
    harness::pipeline_result pr;
    run_pinned(cfg.rotation, [&] {
        tc = now_ns();
        pr = harness::run_checkers(r.events, spec.initial, {harness::checker_kind::fast});
        t1 = now_ns();
    });
    v.wall_s = secs(t0, t1);
    v.check_s = secs(tc, t1);
    harness::trim_heap();

    if (r.ops_dropped != 0 || r.net.unavailable_ops != 0) {
        v.why = "scripted run dropped " + std::to_string(r.ops_dropped) +
                " ops (" + std::to_string(r.net.unavailable_ops) +
                " unavailable)";
        return v;
    }
    if (!pr.parsed) {
        v.why = "history did not parse: " + pr.parse_error;
        return v;
    }
    if (pr.operations != v.ops) {
        v.why = "history holds " + std::to_string(pr.operations) +
                " operations, expected " + std::to_string(v.ops);
        return v;
    }
    for (const harness::check_verdict& cv : pr.verdicts) {
        if (!cv.ran) {
            v.why = "fast checker skipped: " + cv.skip_reason;
            return v;
        }
        if (!cv.pass) {
            v.why = "fast checker: " + cv.diagnosis;
            return v;
        }
    }
    v.pass = true;
    return v;
}

void run_closed_workload(const std::string& label, const loop_config& base,
                         std::size_t verify_ops_per_proc, const options& opt,
                         outcome& out) {
    const auto config = [&](std::uint64_t seed, std::size_t rotation) {
        loop_config c = base;
        c.seed = seed;
        c.rotation = rotation;
        return c;
    };
    const auto count_unavailable = [&](const epoch_stats& es) {
        if (es.net.unavailable_ops != 0) {
            out.fail(label + ": " + std::to_string(es.net.unavailable_ops) +
                         " operations unavailable",
                     es.net.unavailable_ops);
        }
    };
    std::string err;
    epoch_stats warm;
    if (!run_closed_epoch(config(opt.seed, 0), 0.1, warm, &err)) {
        out.fail(label + ": " + err, 0);
        return;
    }
    out.attempted += warm.ops;
    count_unavailable(warm);

    std::vector<std::uint64_t> lat;
    lat.reserve(epochs * pooled_per_epoch);
    std::vector<double> setups;
    std::uint64_t ops = 0;
    double epoch_s = 0;
    for (int e = 0; e < epochs; ++e) {
        epoch_stats es;
        (void)run_closed_epoch(config(opt.seed + 1 + e, e), opt.seconds / epochs, es, &err);
        count_unavailable(es);
        ops += es.ops;
        epoch_s += es.epoch_s;
        pool_samples(es.latency_ns, lat);
        sample_setups(
            [&](int k) {
                epoch_stats ss;
                (void)run_closed_epoch(config(opt.seed, static_cast<std::size_t>(e + k)), 0, ss,
                                       &err);
                return ss.setup_s;
            },
            setups);
    }
    out.attempted += ops;
    const double rss = peak_rss_mb();  // the measured phase's peak

    double wall_s = 0, check_s = 0;
    std::uint64_t events = 0;
    for (int v = 0; v < verify_passes; ++v) {
        const verify_stats vs = verify_scripted(config(opt.seed + 100 + v, v), verify_ops_per_proc);
        out.attempted += vs.ops;
        if (!vs.pass) {
            out.fail(label + " verification: " + vs.why, vs.ops);
            continue;
        }
        wall_s += vs.wall_s;
        check_s += vs.check_s;
        events += vs.events;
    }

    out.add("ops_per_s", static_cast<double>(ops) / epoch_s, "1/s");
    out.add("lat_p50_us", smooth_quantile(lat, 0.50) / 1000.0, "us");
    out.add("lat_p99_us", smooth_quantile(lat, 0.99) / 1000.0, "us");
    out.add("checker_events_per_s", static_cast<double>(events) / check_s, "1/s");
    out.add("explore_s", wall_s / verify_passes, "s");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", rss, "MB");
}

}  // namespace perfbench
