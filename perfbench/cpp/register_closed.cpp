// register-closed: bloom/packed, 2 writers + 2 readers on 4 threads, closed
// loop, writers reading on 1/4 of their ops. Only registers, core and
// harness do work -- the paper's own cost claim, measured.
#include <algorithm>
#include <memory>
#include <thread>

#include "core/two_writer.hpp"
#include "harness/driver.hpp"
#include "registers/packed_atomic.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bloom87;

namespace {

constexpr std::size_t verify_ops_per_proc = 25'000;

loop_config closed_config(std::uint64_t seed) {
    loop_config cfg;
    cfg.register_name = "bloom/packed";
    cfg.writers = 2;
    cfg.readers = 2;
    cfg.seed = seed;
    cfg.sample_every = 16;
    return cfg;
}

/// The registry's bloom/packed carries 56-bit values in a 7-byte payload;
/// the direct instantiations below use the same layout so that template
/// and registry ops move identical words.
struct payload56 {
    unsigned char bytes[7];
};

payload56 to_payload(value_t v) noexcept {
    payload56 p;
    for (int i = 0; i < 7; ++i) {
        p.bytes[i] = static_cast<unsigned char>(static_cast<std::uint64_t>(v) >> (8 * i));
    }
    return p;
}

value_t from_payload(payload56 p) noexcept {
    std::uint64_t v = 0;
    for (int i = 0; i < 7; ++i) v |= static_cast<std::uint64_t>(p.bytes[i]) << (8 * i);
    return static_cast<value_t>(v);
}

/// Per-thread sink of the substrate wrapper: counts the real accesses of
/// the current operation and their time, and records access spans for
/// sampled operations.
struct access_probe {
    span_buffer* buf{nullptr};
    std::int64_t op_span{-1};  ///< >= 0 while a sampled op is open
    std::uint64_t op_id{0};
    std::uint32_t reads{0};
    std::uint32_t writes{0};
    std::uint64_t access_ns{0};
    std::vector<std::uint64_t> access_samples;

    void begin_op(std::int64_t span_idx, std::uint64_t id) noexcept {
        op_span = span_idx;
        op_id = id;
        reads = writes = 0;
        access_ns = 0;
    }
    void on_access(bool write, std::uint64_t t0, std::uint64_t t1) {
        ++(write ? writes : reads);
        access_ns += t1 - t0;
        if (op_span >= 0) {
            buf->add(write ? "registers.write" : "registers.read", op_span,
                     op_id, t0, t1);
            access_samples.push_back(t1 - t0);
        }
    }
};

thread_local access_probe* current_probe = nullptr;

/// Substrate wrapper that times each real access of the unchanged
/// protocol code and reports it to the calling thread's probe.
template <typename T, typename Inner>
class timed_substrate {
public:
    explicit timed_substrate(tagged<T> initial) : inner_(initial) {}

    [[nodiscard]] tagged<T> read(access_context ctx = {}) {
        const std::uint64_t t0 = now_ns();
        const tagged<T> v = inner_.read(ctx);
        const std::uint64_t t1 = now_ns();
        if (current_probe != nullptr) current_probe->on_access(false, t0, t1);
        return v;
    }
    void write(tagged<T> v, access_context ctx = {}) {
        const std::uint64_t t0 = now_ns();
        inner_.write(v, ctx);
        const std::uint64_t t1 = now_ns();
        if (current_probe != nullptr) current_probe->on_access(true, t0, t1);
    }

private:
    Inner inner_;
};

using direct_reg = two_writer_register<payload56, packed_atomic_register<payload56>>;
using traced_reg = two_writer_register<
    payload56, timed_substrate<payload56, packed_atomic_register<payload56>>>;

/// Per-thread totals of the traced epoch.
struct traced_thread {
    std::uint64_t read_ops{0}, write_ops{0};
    std::uint64_t read_op_reads{0}, read_op_writes{0};
    std::uint64_t write_op_reads{0}, write_op_writes{0};
    std::uint64_t op_ns{0}, access_ns{0}, worker_ns{0};
    std::vector<std::uint64_t> self_samples;
    std::vector<std::uint64_t> access_samples;
};

/// Single-thread best-of-5 batch timing of the direct template, the same
/// method harness::measure_latency applies through the registry.
void direct_latency(std::uint64_t iters, double& write_ns, double& read_ns) {
    direct_reg reg(to_payload(0));
    auto& w = reg.writer0();
    auto r = reg.make_reader(2);
    value_t sink = 0;
    const auto bench = [&](auto&& body) {
        double best = 0;
        for (int rep = 0; rep < 5; ++rep) {
            const std::uint64_t t0 = now_ns();
            for (std::uint64_t i = 0; i < iters; ++i) body(i);
            const double ns = static_cast<double>(now_ns() - t0) / static_cast<double>(iters);
            if (rep == 0 || ns < best) best = ns;
        }
        return best;
    };
    write_ns = bench([&](std::uint64_t i) {
        w.write(to_payload(unique_value(0, static_cast<std::uint32_t>(i))));
    });
    read_ns = bench([&](std::uint64_t) { sink += from_payload(r.read()); });
    if (sink == 0x7f7f7f7f7f7f7f7fLL) read_ns += 0.0;
}

}  // namespace

void run_register_closed(const options& opt, outcome& out) {
    run_closed_workload("register-closed", closed_config(opt.seed), verify_ops_per_proc, opt,
                        out);
}

void trace_register_closed(const options& opt, double seconds, outcome& out,
                           std::vector<span_buffer>& buffers) {
    constexpr unsigned sample_every = 64;
    std::string err;

    // Untraced reference epoch: the workload's own loop through the registry.
    epoch_stats plain;
    if (!run_closed_epoch(closed_config(opt.seed), seconds, plain, &err)) {
        out.fail("register-closed: " + err, 0);
        return;
    }
    const double plain_rate = static_cast<double>(plain.ops) / plain.epoch_s;

    // Traced epoch: the same mix on the direct template over the timing
    // substrate wrapper.
    traced_reg reg(to_payload(0));
    constexpr std::size_t n = 4;
    std::vector<traced_thread> res(n);
    std::vector<span_buffer> bufs;
    for (std::size_t p = 0; p < n; ++p) bufs.emplace_back(static_cast<std::uint32_t>(p), std::size_t{1} << 18);
    start_line line(n);
    stop_flag stop;
    std::uint64_t t_open = 0, t_stop = 0;
    {
        std::vector<std::jthread> pool;
        for (std::size_t p = 0; p < n; ++p) {
            pool.emplace_back([&, p] {
                const bool writer = p < 2;
                traced_reg::writer* w =
                    writer ? (p == 0 ? &reg.writer0() : &reg.writer1()) : nullptr;
                traced_reg::reader rd = reg.make_reader(static_cast<processor_id>(p));
                rng gen(opt.seed * 0x9e3779b97f4a7c15ULL + p);
                span_buffer& buf = bufs[p];
                traced_thread& t = res[p];
                access_probe probe;
                probe.buf = &buf;
                current_probe = &probe;
                std::uint32_t fresh = 0;
                value_t sink = 0;
                line.arrive_and_wait();
                pin_to_slot(p, n);
                const std::uint64_t w0 = now_ns();
                const std::int64_t root = buf.open("bench.worker", -1, 0, w0);
                for (std::uint64_t op = 1; !stop.stop_requested(); ++op) {
                    const bool is_write =
                        writer && !gen.chance(writer_read_num, writer_read_den);
                    const bool sampled = op % sample_every == 0;
                    const bool spanned = sampled && buf.room(4);
                    const std::uint64_t t0 = now_ns();
                    const std::int64_t s =
                        spanned ? buf.open(is_write ? "core.write" : "core.read", root, op, t0)
                                : -1;
                    probe.begin_op(s, op);
                    if (is_write) {
                        w->write(to_payload(unique_value(static_cast<processor_id>(p), fresh++)));
                    } else {
                        sink += from_payload(writer ? w->read() : rd.read());
                    }
                    const std::uint64_t t1 = now_ns();
                    if (spanned) buf.close(s, t1);
                    t.op_ns += t1 - t0;
                    t.access_ns += probe.access_ns;
                    if (sampled) t.self_samples.push_back(t1 - t0 - probe.access_ns);
                    if (is_write) {
                        ++t.write_ops;
                        t.write_op_reads += probe.reads;
                        t.write_op_writes += probe.writes;
                    } else {
                        ++t.read_ops;
                        t.read_op_reads += probe.reads;
                        t.read_op_writes += probe.writes;
                    }
                }
                const std::uint64_t w1 = now_ns();
                buf.close(root, w1);
                t.worker_ns = w1 - w0;
                t.access_samples = std::move(probe.access_samples);
                current_probe = nullptr;
                if (sink == 0x7f7f7f7f7f7f7f7fLL) t.op_ns += 1;
            });
        }
        line.wait_ready();
        t_open = now_ns();
        line.open();
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
        stop.request_stop();
        t_stop = now_ns();
    }

    traced_thread all;
    for (traced_thread& t : res) {
        all.read_ops += t.read_ops;
        all.write_ops += t.write_ops;
        all.read_op_reads += t.read_op_reads;
        all.read_op_writes += t.read_op_writes;
        all.write_op_reads += t.write_op_reads;
        all.write_op_writes += t.write_op_writes;
        all.op_ns += t.op_ns;
        all.access_ns += t.access_ns;
        all.worker_ns += t.worker_ns;
        all.self_samples.insert(all.self_samples.end(), t.self_samples.begin(), t.self_samples.end());
        all.access_samples.insert(all.access_samples.end(), t.access_samples.begin(), t.access_samples.end());
    }
    for (span_buffer& b : bufs) buffers.push_back(std::move(b));

    const std::uint64_t traced_ops = all.read_ops + all.write_ops;
    out.attempted += plain.ops + traced_ops;
    const double reads_per_read =
        static_cast<double>(all.read_op_reads + all.read_op_writes) /
        static_cast<double>(all.read_ops);
    const double accesses_per_write =
        static_cast<double>(all.write_op_reads + all.write_op_writes) /
        static_cast<double>(all.write_ops);
    // The paper's cost claim, exactly: 3 real reads per read; 1 real read +
    // 1 real write per write.
    if (all.read_op_writes != 0 || all.read_op_reads != 3 * all.read_ops ||
        all.write_op_reads != all.write_ops || all.write_op_writes != all.write_ops) {
        out.fail("register-closed: real-access counts differ from 3 per read, 1R+1W per write",
                 traced_ops);
    }

    // Solo latencies through the registry and the cost of type erasure.
    std::vector<double> solo_w, solo_r, erasure;
    for (int i = 0; i < 5; ++i) {
        const harness::latency_result lr =
            harness::measure_latency("bloom/packed", 2, 2, 200'000);
        if (!lr.ok) {
            out.fail("measure_latency: " + lr.error, 0);
            return;
        }
        double dw = 0, dr = 0;
        direct_latency(200'000, dw, dr);
        solo_w.push_back(lr.write_ns);
        solo_r.push_back(lr.read_ns);
        erasure.push_back(((lr.write_ns - dw) + (lr.read_ns - dr)) / 2);
    }

    const double traced_rate = static_cast<double>(traced_ops) / secs(t_open, t_stop);
    out.add("registers.real_reads_per_read", reads_per_read, "count");
    out.add("registers.real_accesses_per_write", accesses_per_write, "count");
    out.add("registers.access_ns_p50", smooth_quantile(all.access_samples, 0.5), "ns");
    out.add("registers.busy_frac",
            static_cast<double>(all.access_ns) / static_cast<double>(all.op_ns), "frac");
    out.add("core.self_ns_p50", smooth_quantile(all.self_samples, 0.5), "ns");
    out.add("core.solo_write_ns", median(solo_w), "ns");
    out.add("core.solo_read_ns", median(solo_r), "ns");
    out.add("harness.erasure_ns", median(erasure), "ns");
    out.add("trace.register-closed.overhead", traced_rate / plain_rate, "ratio");
    out.add("trace.register-closed.unattributed_frac",
            1.0 - static_cast<double>(all.op_ns) / static_cast<double>(all.worker_ns),
            "frac");
}

}  // namespace perfbench
