// stream-monitored: bloom/packed with 2 writers + 1 reader, each recording
// into its own event_ring, and a merge thread feeding the live ring_merger
// output to the streaming checker (4 threads). The register does little of
// the work here; histories and linearizability set the pace.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "harness/checkers.hpp"
#include "harness/driver.hpp"
#include "histories/thread_log.hpp"
#include "histories/workload.hpp"
#include "linearizability/streaming.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bloom87;

namespace {

constexpr std::size_t writers = 2;
constexpr std::size_t readers = 1;
constexpr std::size_t procs = writers + readers;
constexpr std::size_t verify_ops_per_proc = 4'000;
constexpr std::size_t recorded_ops_per_proc = 20'000;
/// Live rings are small, as in the harness driver: ring slack is how far
/// the merged stream can run past a preempted producer's open operation.
constexpr std::size_t live_ring_capacity = 1024;
constexpr unsigned span_every = 16;  ///< traced: record every k-th op as spans

streaming_config stream_config() {
    streaming_config c;
    c.window = 4096;
    c.stride = 256;
    return c;
}

event make_event(event_kind kind, processor_id proc, op_index op, value_t v) {
    event e;
    e.kind = kind;
    e.processor = proc;
    e.op = op;
    e.value = v;
    return e;
}

/// Layer totals of a traced epoch.
struct stream_layers {
    std::uint64_t producer_ns{0}, reserve_ns{0}, push_ns{0}, op_ns{0};
    std::uint64_t merger_ns{0}, merge_ns{0}, ingest_ns{0}, checkpoint_ns{0};
    std::vector<std::uint64_t> checkpoint_samples;
    std::size_t candidates_peak{0};
};

struct stream_epoch {
    double setup_s{0};
    double epoch_s{0};
    double verified_s{0};  ///< line open .. checker finished
    std::uint64_t ops{0};
    std::uint64_t events{0};
    std::uint64_t stalls{0};
    std::size_t retained_peak{0};
    bool violation{false};
    std::string diagnosis;
    std::vector<std::uint64_t> latency_ns;
    stream_layers layers;
};

/// One monitored epoch. With `bufs` non-null the epoch is traced: every
/// reserve, push, register op, merge step and ingest is timed, and a sample
/// of operations is recorded as spans (buffers 0..2 producers, 3 merger).
bool run_stream_epoch(std::uint64_t seed, std::size_t rotation, double seconds,
                      stream_epoch& out, std::vector<span_buffer>* bufs,
                      std::string* error) {
    const bool traced = bufs != nullptr;
    struct producer_out {
        std::uint64_t ops{0};
        sample_buffer lat;
        std::uint64_t wall_ns{0}, reserve_ns{0}, push_ns{0}, op_ns{0};
    };
    std::vector<producer_out> res(procs);
    if (seconds > 0) {
        for (producer_out& w : res) w.lat = sample_buffer(sample_buffer::epoch_capacity);
        // Sized for full buffers and touched now, so that the epoch's
        // resident memory does not follow its throughput.
        out.latency_ns.assign(procs * sample_buffer::epoch_capacity, 0);
    }

    const std::uint64_t t_setup = now_ns();
    harness::register_args args;
    args.writers = writers;
    args.readers = readers;
    std::unique_ptr<harness::any_register> reg =
        harness::make_register("bloom/packed", args, error);
    if (reg == nullptr) return false;
    std::vector<std::unique_ptr<harness::any_port>> ports;
    std::vector<std::unique_ptr<event_ring>> rings;
    std::vector<event_ring*> ring_ptrs;
    for (std::size_t p = 0; p < procs; ++p) {
        ports.push_back(reg->make_port(static_cast<processor_id>(p),
                                       p < writers ? harness::port_role::writer
                                                   : harness::port_role::reader));
        rings.push_back(std::make_unique<event_ring>(live_ring_capacity));
        ring_ptrs.push_back(rings.back().get());
    }
    seq_source seqs;
    streaming_checker chk(0, stream_config());

    start_line line(procs + 1);
    stop_flag stop;
    std::uint64_t t_open = 0, t_stop = 0, t_verified = 0;
    std::uint64_t events = 0;
    stream_layers& L = out.layers;
    {
        std::vector<std::jthread> pool;
        for (std::size_t p = 0; p < procs; ++p) {
            pool.emplace_back([&, p] {
                rng gen(seed * 0x9e3779b97f4a7c15ULL + p);
                harness::any_port& port = *ports[p];
                event_ring& ring = *rings[p];
                span_buffer* buf = traced ? &(*bufs)[p] : nullptr;
                const bool writer = p < writers;
                const auto proc = static_cast<processor_id>(p);
                producer_out& w = res[p];
                std::uint32_t fresh = 0;
                op_index next_op = 0;
                line.arrive_and_wait();
                pin_to_slot(p + rotation, procs + 1);
                const std::uint64_t w0 = now_ns();
                const std::int64_t root = traced ? buf->open("bench.worker", -1, 0, w0) : -1;
                while (!stop.stop_requested()) {
                    const std::uint64_t r0 = traced ? now_ns() : 0;
                    ring.reserve(2);
                    const bool is_write =
                        writer && !gen.chance(writer_read_num, writer_read_den);
                    const std::uint64_t t0 = now_ns();
                    const value_t v = is_write ? unique_value(proc, fresh++) : 0;
                    ring.push(seqs.draw(),
                              make_event(is_write ? event_kind::sim_invoke_write
                                                  : event_kind::sim_invoke_read,
                                         proc, next_op, v));
                    const std::uint64_t t1 = traced ? now_ns() : 0;
                    value_t result = 0;
                    if (is_write) {
                        port.write(v);
                    } else {
                        result = port.read();
                    }
                    const std::uint64_t t2 = traced ? now_ns() : 0;
                    ring.push(seqs.draw(),
                              make_event(is_write ? event_kind::sim_respond_write
                                                  : event_kind::sim_respond_read,
                                         proc, next_op, result));
                    ++next_op;
                    ++w.ops;
                    const std::uint64_t t3 = now_ns();
                    w.lat.record(t3 - t0);
                    if (!traced) continue;
                    w.reserve_ns += t0 - r0;
                    w.push_ns += (t1 - t0) + (t3 - t2);
                    w.op_ns += t2 - t1;
                    if (w.ops % span_every == 0 && buf->room(5)) {
                        buf->add("histories.reserve", root, next_op, r0, t0);
                        const std::int64_t s = buf->add("stream.op", root, next_op, t0, t3);
                        buf->add("histories.push", s, next_op, t0, t1);
                        buf->add("harness.op", s, next_op, t1, t2);
                        buf->add("histories.push", s, next_op, t2, t3);
                    }
                }
                ring.finish();
                const std::uint64_t w1 = now_ns();
                if (traced) buf->close(root, w1);
                w.wall_ns = w1 - w0;
            });
        }
        pool.emplace_back([&] {
            span_buffer* buf = traced ? &(*bufs)[procs] : nullptr;
            ring_merger merger(ring_ptrs);
            line.arrive_and_wait();
            pin_to_slot(procs + rotation, procs + 1);
            const std::uint64_t m0 = now_ns();
            const std::int64_t root = traced ? buf->open("bench.merger", -1, 0, m0) : -1;
            stamped_event se;
            for (;;) {
                const std::uint64_t a = traced ? now_ns() : 0;
                const bool got = merger.next(&se);
                const std::uint64_t b = traced ? now_ns() : 0;
                if (!got) {
                    if (traced) L.merge_ns += b - a;
                    break;
                }
                const std::uint64_t cp = chk.stats().checkpoints;
                chk.ingest(se.e);
                ++events;
                if (!traced) continue;
                const std::uint64_t c = now_ns();
                L.merge_ns += b - a;
                L.ingest_ns += c - b;
                const bool checkpoint = chk.stats().checkpoints != cp;
                if (checkpoint) {
                    L.checkpoint_ns += c - b;
                    L.checkpoint_samples.push_back(c - b);
                }
                L.candidates_peak = std::max(L.candidates_peak, chk.stats().candidate_values);
                if ((checkpoint || events % 256 == 0) && buf->room(2)) {
                    buf->add("histories.merge", root, se.seq, a, b);
                    buf->add("linearizability.ingest", root, se.seq, b, c);
                }
            }
            const std::uint64_t f0 = traced ? now_ns() : 0;
            chk.finish();
            const std::uint64_t m1 = now_ns();
            if (traced) {
                L.ingest_ns += m1 - f0;
                if (buf->room(1)) buf->add("linearizability.finish", root, 0, f0, m1);
                buf->close(root, m1);
                L.merger_ns = m1 - m0;
            }
            t_verified = m1;
        });
        line.wait_ready();
        t_open = now_ns();
        out.setup_s = secs(t_setup, t_open);
        line.open();
        if (seconds > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
        }
        stop.request_stop();
        t_stop = now_ns();
    }

    out.epoch_s = secs(t_open, t_stop);
    out.verified_s = secs(t_open, t_verified);
    out.events = events;
    std::size_t samples = 0;
    for (const producer_out& w : res) samples += w.lat.size();
    out.latency_ns.clear();
    out.latency_ns.reserve(samples);
    out.retained_peak = chk.stats().peak_retained_ops;
    out.violation = chk.violation_found();
    out.diagnosis = chk.diagnosis();
    if (seconds > 0) harness::trim_heap();
    for (std::size_t p = 0; p < procs; ++p) {
        const producer_out& w = res[p];
        out.ops += w.ops;
        out.stalls += rings[p]->stalls();
        w.lat.append_to(out.latency_ns);
        L.producer_ns += w.wall_ns;
        L.reserve_ns += w.reserve_ns;
        L.push_ns += w.push_ns;
        L.op_ns += w.op_ns;
    }
    return true;
}

/// A recorded run: the same mix, each producer filling a ring that covers
/// its whole script, nothing consuming until every producer is done.
std::vector<std::unique_ptr<event_ring>> record_rings(std::uint64_t seed,
                                                      std::size_t ops_per_proc,
                                                      std::string* error) {
    std::vector<std::unique_ptr<event_ring>> rings;
    harness::register_args args;
    args.writers = writers;
    args.readers = readers;
    std::unique_ptr<harness::any_register> reg =
        harness::make_register("bloom/packed", args, error);
    if (reg == nullptr) return rings;
    std::vector<std::unique_ptr<harness::any_port>> ports;
    for (std::size_t p = 0; p < procs; ++p) {
        ports.push_back(reg->make_port(static_cast<processor_id>(p),
                                       p < writers ? harness::port_role::writer
                                                   : harness::port_role::reader));
        rings.push_back(std::make_unique<event_ring>(2 * ops_per_proc + 8));
    }
    seq_source seqs;
    start_gate gate;
    std::vector<std::jthread> pool;
    for (std::size_t p = 0; p < procs; ++p) {
        pool.emplace_back([&, p] {
            rng gen(seed * 0x9e3779b97f4a7c15ULL + p);
            const auto proc = static_cast<processor_id>(p);
            std::uint32_t fresh = 0;
            gate.wait();
            for (op_index op = 0; op < ops_per_proc; ++op) {
                const bool is_write = p < writers && !gen.chance(writer_read_num, writer_read_den);
                const value_t v = is_write ? unique_value(proc, fresh++) : 0;
                rings[p]->push(seqs.draw(), make_event(is_write ? event_kind::sim_invoke_write
                                                                : event_kind::sim_invoke_read,
                                                       proc, op, v));
                value_t result = 0;
                if (is_write) {
                    ports[p]->write(v);
                } else {
                    result = ports[p]->read();
                }
                rings[p]->push(seqs.draw(), make_event(is_write ? event_kind::sim_respond_write
                                                                : event_kind::sim_respond_read,
                                                       proc, op, result));
            }
            rings[p]->finish();
        });
    }
    gate.open();
    pool.clear();  // joins
    return rings;
}

/// Streaming replay of a finished history: ingest every event, then finish.
bool replay(const std::vector<event>& events, double& seconds, std::string& why) {
    streaming_checker chk(0, stream_config());
    const std::uint64_t t0 = now_ns();
    for (const event& e : events) chk.ingest(e);
    chk.finish();
    seconds = secs(t0, now_ns());
    why = chk.diagnosis();
    return !chk.violation_found();
}

bool batch_check(const std::vector<event>& events, double& seconds, std::string& why) {
    const std::uint64_t t0 = now_ns();
    const harness::pipeline_result pr =
        harness::run_checkers(events, 0, {harness::checker_kind::fast});
    seconds = secs(t0, now_ns());
    if (!pr.all_pass() || pr.verdicts.empty() || !pr.verdicts[0].ran) {
        why = pr.parsed ? (pr.verdicts.empty() ? "no verdict" : pr.verdicts[0].diagnosis +
                                                                    pr.verdicts[0].skip_reason)
                        : pr.parse_error;
        return false;
    }
    return true;
}

/// Verification pass: a scripted run of the same register and mix,
/// replayed through a fresh streaming checker and through the batch fast
/// checker on CPU slot `rotation`; both must accept it. Returns the pass's
/// wall seconds, or a negative value after recording the failure.
double verify_pass(std::uint64_t seed, std::size_t rotation, outcome& out) {
    harness::run_spec spec;
    spec.register_name = "bloom/packed";
    spec.load.writers = writers;
    spec.load.readers = readers;
    spec.load.ops_per_writer = verify_ops_per_proc;
    spec.load.ops_per_reader = verify_ops_per_proc;
    spec.load.writer_read_num = writer_read_num;
    spec.load.writer_read_den = writer_read_den;
    spec.seed = seed;
    spec.collect = harness::collect_mode::per_thread;
    const std::uint64_t t0 = now_ns();
    const harness::run_result r = harness::run(spec);
    const std::uint64_t ops = verify_ops_per_proc * procs;
    out.attempted += ops;
    if (!r.ok) {
        out.fail("stream-monitored verification run: " + r.error, ops);
        return -1;
    }
    double replay_s = 0, batch_s = 0;
    std::string why;
    bool streamed = false, batched = false;
    run_pinned(rotation, [&] {
        streamed = replay(r.events, replay_s, why);
        batched = streamed && batch_check(r.events, batch_s, why);
    });
    if (!streamed) {
        out.fail("stream-monitored verification: streaming replay: " + why, ops);
        return -1;
    }
    if (!batched) {
        out.fail("stream-monitored verification: fast checker: " + why, ops);
        return -1;
    }
    const double wall = secs(t0, now_ns());
    harness::trim_heap();
    return wall;
}

}  // namespace

void run_stream_monitored(const options& opt, outcome& out) {
    std::string err;
    stream_epoch warm;
    if (!run_stream_epoch(opt.seed, 0, 0.1, warm, nullptr, &err)) {
        out.fail("stream-monitored: " + err, 0);
        return;
    }
    out.attempted += warm.ops;
    if (warm.violation) out.fail("stream-monitored: streaming violation: " + warm.diagnosis, warm.ops);

    std::vector<std::uint64_t> lat;
    lat.reserve(epochs * pooled_per_epoch);
    std::vector<double> setups;
    std::uint64_t ops = 0, events = 0;
    double epoch_s = 0, verified_s = 0;
    for (int e = 0; e < epochs; ++e) {
        stream_epoch se;
        (void)run_stream_epoch(opt.seed + 1 + e, e, opt.seconds / epochs, se, nullptr, &err);
        sample_setups(
            [&](int k) {
                stream_epoch ss;
                (void)run_stream_epoch(opt.seed, static_cast<std::size_t>(e + k), 0, ss,
                                       nullptr, &err);
                return ss.setup_s;
            },
            setups);
        out.attempted += se.ops;
        if (se.violation) {
            out.fail("stream-monitored: streaming violation: " + se.diagnosis, se.ops);
            continue;
        }
        ops += se.ops;
        events += se.events;
        epoch_s += se.epoch_s;
        verified_s += se.verified_s;
        pool_samples(se.latency_ns, lat);
    }
    const double rss = peak_rss_mb();  // the measured phase's peak

    double wall_s = 0;
    for (int v = 0; v < verify_passes; ++v) {
        wall_s += std::max(0.0, verify_pass(opt.seed + 100 + v, v, out));
    }

    out.add("ops_per_s", static_cast<double>(ops) / epoch_s, "1/s");
    out.add("lat_p50_us", smooth_quantile(lat, 0.50) / 1000.0, "us");
    out.add("lat_p99_us", smooth_quantile(lat, 0.99) / 1000.0, "us");
    out.add("checker_events_per_s", static_cast<double>(events) / verified_s, "1/s");
    out.add("explore_s", wall_s / verify_passes, "s");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", rss, "MB");
}

void trace_stream_monitored(const options& opt, double seconds, outcome& out,
                            std::vector<span_buffer>& buffers) {
    std::string err;
    stream_epoch plain;
    if (!run_stream_epoch(opt.seed, 0, seconds, plain, nullptr, &err)) {
        out.fail("stream-monitored: " + err, 0);
        return;
    }
    out.attempted += plain.ops;
    if (plain.violation) out.fail("stream-monitored: streaming violation: " + plain.diagnosis, plain.ops);

    std::vector<span_buffer> bufs;
    for (std::size_t p = 0; p <= procs; ++p) {
        bufs.emplace_back(static_cast<std::uint32_t>(10 + p), std::size_t{1} << 17);
    }
    stream_epoch traced;
    (void)run_stream_epoch(opt.seed, 0, seconds, traced, &bufs, &err);
    for (span_buffer& b : bufs) buffers.push_back(std::move(b));
    out.attempted += traced.ops;
    if (traced.violation) {
        out.fail("stream-monitored (traced): streaming violation: " + traced.diagnosis, traced.ops);
    }
    const stream_layers& L = traced.layers;

    // Recorded run: merge alone, streaming replay alone, batch check alone.
    std::vector<std::unique_ptr<event_ring>> rings =
        record_rings(opt.seed + 7, recorded_ops_per_proc, &err);
    if (rings.empty()) {
        out.fail("stream-monitored: " + err, 0);
        return;
    }
    std::vector<event_ring*> rp;
    for (const auto& r : rings) rp.push_back(r.get());
    std::vector<event> history;
    history.reserve(2 * recorded_ops_per_proc * procs);
    const std::uint64_t m0 = now_ns();
    {
        ring_merger merger(rp);
        stamped_event se;
        while (merger.next(&se)) history.push_back(se.e);
    }
    const double merge_s = secs(m0, now_ns());
    const std::uint64_t recorded_ops = recorded_ops_per_proc * procs;
    out.attempted += recorded_ops;
    double replay_s = 0, batch_s = 0;
    std::string why;
    if (!replay(history, replay_s, why)) {
        out.fail("stream-monitored recorded run: streaming replay: " + why, recorded_ops);
    }
    if (!batch_check(history, batch_s, why)) {
        out.fail("stream-monitored recorded run: fast checker: " + why, recorded_ops);
    }
    const auto n_events = static_cast<double>(history.size());

    const double plain_rate = static_cast<double>(plain.ops) / plain.epoch_s;
    const double traced_rate = static_cast<double>(traced.ops) / traced.epoch_s;
    const double covered = static_cast<double>(L.reserve_ns + L.push_ns + L.op_ns +
                                               L.merge_ns + L.ingest_ns);
    const double wall = static_cast<double>(L.producer_ns + L.merger_ns);
    std::vector<std::uint64_t> cps = L.checkpoint_samples;

    out.add("histories.producer_stalls_per_op",
            static_cast<double>(plain.stalls) / static_cast<double>(plain.ops), "count");
    out.add("histories.merge_events_per_s", n_events / merge_s, "1/s");
    out.add("histories.push_ns_per_op",
            static_cast<double>(L.push_ns) / static_cast<double>(traced.ops), "ns");
    out.add("histories.reserve_frac", static_cast<double>(L.reserve_ns) /
                                          static_cast<double>(L.producer_ns), "frac");
    out.add("linearizability.replay_events_per_s", n_events / replay_s, "1/s");
    out.add("linearizability.batch_events_per_s", n_events / batch_s, "1/s");
    out.add("linearizability.checkpoint_ms_p50", smooth_quantile(cps, 0.50) / 1e6, "ms");
    out.add("linearizability.checkpoint_ms_p99", smooth_quantile(cps, 0.99) / 1e6, "ms");
    out.add("linearizability.checkpoint_share",
            static_cast<double>(L.checkpoint_ns) / static_cast<double>(L.ingest_ns), "frac");
    out.add("linearizability.candidates_peak", static_cast<double>(L.candidates_peak), "count");
    out.add("linearizability.retained_peak", static_cast<double>(traced.retained_peak), "count");
    out.add("trace.stream-monitored.overhead", traced_rate / plain_rate, "ratio");
    out.add("trace.stream-monitored.unattributed_frac", 1.0 - covered / wall, "frac");
}

}  // namespace perfbench
