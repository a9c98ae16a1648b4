#include "harness/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "histories/thread_log.hpp"
#include "linearizability/monitor.hpp"
#include "linearizability/streaming.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace bloom87::harness {
namespace {

using steady = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            steady::now().time_since_epoch())
            .count());
}

/// Executes one processor's script against its port, applying pacing, crash
/// injection, latency sampling, and (per_thread collection) lock-free ring
/// recording. Used verbatim by both the thread-per-processor and the seeded
/// single-thread schedules.
class script_runner {
public:
    script_runner(any_port& port, const std::vector<workload_op>& script,
                  processor_id proc, port_role role, const run_spec& spec,
                  std::uint64_t rng_seed, event_ring* ring, seq_source* seqs,
                  pause_fn pause)
        : port_(&port), script_(&script), proc_(proc), role_(role),
          spec_(&spec), gen_(rng_seed), ring_(ring), seqs_(seqs),
          pause_(std::move(pause)) {}

    [[nodiscard]] bool exhausted() const noexcept {
        return cursor_ >= script_->size();
    }

    /// Runs the next scripted op; false when the script is exhausted.
    /// A port killed by a port_crash fault abandons the rest of its script
    /// (every later operation on that port would be a no-op anyway).
    bool step() {
        if (exhausted()) return false;
        if (port_->crashed()) {
            cursor_ = script_->size();
            return false;
        }
        run_op((*script_)[cursor_++]);
        return true;
    }

    /// Runs the next scripted op on behalf of an open-loop client whose
    /// request became due at `due_ns`: the recorded latency spans due ->
    /// completion, so queueing delay at saturation is charged to the op
    /// (no coordinated omission). Every paced op is recorded, ignoring
    /// latency_sample_every. False when the script is exhausted.
    bool step_paced(std::uint64_t due_ns) {
        if (exhausted()) return false;
        if (port_->crashed()) {
            cursor_ = script_->size();
            return false;
        }
        const workload_op& op = (*script_)[cursor_++];
        ++op_counter_;
        if (!ring_space()) return true;  // dropped; the client's slot is spent
        if (op.kind == op_kind::write) {
            do_write(op.value);
        } else {
            do_read();
        }
        const std::uint64_t end = now_ns();
        hist_.record(end > due_ns ? end - due_ns : 0);
        return true;
    }

    /// Restarts the script (timed runs cycle it).
    void rewind() noexcept { cursor_ = 0; }

    void reset_counters() noexcept {
        reads_ = writes_ = crashes_ = dropped_ = 0;
        hist_.clear();
    }

    [[nodiscard]] processor_id processor() const noexcept { return proc_; }
    [[nodiscard]] port_role role() const noexcept { return role_; }
    [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
    [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
    [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
    [[nodiscard]] const latency_histogram& hist() const noexcept {
        return hist_;
    }

private:
    /// Backpressure lands HERE, between operations, never inside one (see
    /// event_ring::reserve). Returns false when the drop policy sheds the
    /// op: it is skipped ENTIRELY -- executing it unrecorded would hand
    /// the checkers a history with invisible writes.
    [[nodiscard]] bool ring_space() {
        if (ring_ == nullptr) return true;
        if (spec_->ring == ring_policy::drop) {
            if (ring_->try_reserve(2)) return true;
            ++dropped_;
            return false;
        }
        ring_->reserve(2);
        return true;
    }

    void run_op(const workload_op& op) {
        const bool sample =
            spec_->latency_sample_every != 0 &&
            op_counter_ % spec_->latency_sample_every == 0;
        ++op_counter_;
        if (!ring_space()) return;
        const std::uint64_t t0 = sample ? now_ns() : 0;
        if (op.kind == op_kind::write) {
            do_write(op.value);
        } else {
            do_read();
        }
        if (sample) hist_.record(now_ns() - t0);
    }

    void do_write(value_t v) {
        // Timed runs cycle the script, which would repeat the scripted
        // write values -- and every checker requires globally unique
        // writes. Substitute a fresh unique value per write instead (the
        // scripted value only matters for scripted reproducibility).
        if (spec_->duration_ms > 0) {
            v = unique_value(proc_,
                             static_cast<std::uint32_t>(fresh_write_++));
        }
        record(op_kind::write, /*response=*/false, v);
        const pacing& pace = spec_->pace;
        bool crashed = false;
        if (pace.crash_num != 0 && gen_.chance(pace.crash_num, pace.crash_den)) {
            const auto cp = static_cast<crash_point>(next_crash_point_);
            next_crash_point_ = (next_crash_point_ + 1) % 3;
            if (port_->write_crashed(v, cp)) {
                crashed = true;
                ++crashes_;
            } else {
                port_->write(v);  // no crash machinery: plain write
            }
        } else if (pace.writer_pace_num != 0 &&
                   gen_.chance(pace.writer_pace_num, pace.writer_pace_den)) {
            port_->write_paced(v, pause_);
        } else {
            port_->write(v);
        }
        ++writes_;
        // A crashed write is never acknowledged: invocation without
        // response, which the history parser records as pending. The same
        // holds when a port_crash fault killed the port mid-write.
        if (!crashed && !port_->crashed()) {
            record(op_kind::write, /*response=*/true, 0);
        }
    }

    void do_read() {
        record(op_kind::read, /*response=*/false, 0);
        const pacing& pace = spec_->pace;
        value_t out;
        if (spec_->cached_writer_reads && role_ == port_role::writer &&
            port_->read_cached(out)) {
            // served from the writer's cache (Section 5)
        } else if (pace.reader_pace_num != 0 && role_ == port_role::reader &&
                   gen_.chance(pace.reader_pace_num, pace.reader_pace_den)) {
            out = port_->read_paced(pause_);
        } else {
            out = port_->read();
        }
        ++reads_;
        // A read on a port killed mid-operation stays pending.
        if (!port_->crashed()) record(op_kind::read, /*response=*/true, out);
    }

    /// Records one sim event into this thread's ring: a stamp drawn from
    /// the shared relaxed counter (the only cross-thread write on the
    /// path), then plain stores plus one release publish. The stamp is
    /// drawn inside the operation's invocation..response window, so the
    /// fetch_add order is a legal serialization and the seq merge
    /// reconstructs a valid external schedule.
    void record(op_kind kind, bool response, value_t v) {
        if (ring_ == nullptr) return;
        event e;
        e.processor = proc_;
        e.op = record_op_ - (response ? 1 : 0);
        if (!response) ++record_op_;
        e.value = v;
        if (kind == op_kind::write) {
            e.kind = response ? event_kind::sim_respond_write
                              : event_kind::sim_invoke_write;
        } else {
            e.kind = response ? event_kind::sim_respond_read
                              : event_kind::sim_invoke_read;
        }
        ring_->push(seqs_->draw(), e);
    }

    any_port* port_;
    const std::vector<workload_op>* script_;
    processor_id proc_;
    port_role role_;
    const run_spec* spec_;
    rng gen_;
    event_ring* ring_;
    seq_source* seqs_;
    pause_fn pause_;

    std::size_t cursor_{0};
    std::uint64_t op_counter_{0};
    std::uint64_t fresh_write_{0};
    op_index record_op_{0};
    unsigned next_crash_point_{0};
    std::uint64_t reads_{0};
    std::uint64_t writes_{0};
    std::uint64_t crashes_{0};
    std::uint64_t dropped_{0};
    latency_histogram hist_;
};

void fill_latency(thread_result& tr, const latency_histogram& h) {
    tr.samples = h.count();
    if (tr.samples == 0) return;
    tr.p50_us = h.quantile(0.50) / 1000.0;
    tr.p99_us = h.quantile(0.99) / 1000.0;
    tr.p999_us = h.quantile(0.999) / 1000.0;
    tr.max_us = static_cast<double>(h.max_ns()) / 1000.0;
}

void fill_latency(latency_stats& ls, const latency_histogram& h) {
    ls.samples = h.count();
    if (ls.samples == 0) return;
    ls.p50_us = h.quantile(0.50) / 1000.0;
    ls.p99_us = h.quantile(0.99) / 1000.0;
    ls.p999_us = h.quantile(0.999) / 1000.0;
    ls.max_us = static_cast<double>(h.max_ns()) / 1000.0;
}

[[nodiscard]] std::uint64_t per_proc_seed(std::uint64_t seed, std::size_t p) {
    std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (p + 1);
    return splitmix64_next(s);
}

run_result fail(std::string why) {
    run_result r;
    r.error = std::move(why);
    return r;
}

}  // namespace

void trim_heap() {
#if defined(__GLIBC__)
    // One config's freed heap must not be billed to the next (the fix
    // bench_modelcheck shipped in PR 1, applied here for every harness run).
    malloc_trim(0);
#endif
}

run_result run(const run_spec& spec) {
    trim_heap();

    const registry_entry* entry = find_register(spec.register_name);
    if (entry == nullptr) {
        return fail("unknown register '" + spec.register_name + "'");
    }
    if (spec.load.writers < entry->info.min_writers ||
        spec.load.writers > entry->info.max_writers) {
        return fail(entry->info.name + " supports " +
                    std::to_string(entry->info.min_writers) + ".." +
                    std::to_string(entry->info.max_writers) +
                    " writers, got " + std::to_string(spec.load.writers));
    }
    if (entry->info.requires_log && spec.collect != collect_mode::gamma) {
        return fail(entry->info.name +
                    " records real accesses into a shared gamma log; run it "
                    "with collect=gamma");
    }
    const bool timed = spec.duration_ms > 0;
    if (timed && spec.collect != collect_mode::none &&
        !(spec.collect == collect_mode::per_thread &&
          spec.streaming_monitor)) {
        return fail("timed runs produce unbounded histories; collect on a "
                    "timed run only with per_thread + streaming_monitor "
                    "(events are checked and discarded, never retained)");
    }
    if (timed && spec.schedule == schedule_mode::seeded) {
        return fail("the seeded schedule is scripted-only (duration_ms=0)");
    }
    if (spec.fault.active() && entry->info.family != "faulty" &&
        entry->info.family != "net" && entry->info.family != "repair") {
        return fail(entry->info.name +
                    " has no fault plan; --fault needs a faulty/, repair/ "
                    "or net/ register");
    }
    if (spec.online_monitor && spec.collect != collect_mode::gamma) {
        return fail("the online monitor polls the shared gamma log; run "
                    "with collect=gamma");
    }
    if (spec.streaming_monitor && spec.collect == collect_mode::none) {
        return fail("the streaming checker consumes recorded events; run "
                    "with collect=gamma or collect=per_thread");
    }
    if (spec.online_monitor && spec.streaming_monitor) {
        return fail("pick one monitor: online (post-hoc prefix polling) or "
                    "streaming (bounded-memory)");
    }
    if (spec.clients > 0 &&
        (!timed || spec.schedule != schedule_mode::threads)) {
        return fail("simulated open-loop clients need a timed threads-mode "
                    "run (duration_ms > 0)");
    }
    if (spec.clients > 0 &&
        spec.clients < spec.load.writers + spec.load.readers) {
        return fail("need at least one client per worker thread (an idle "
                    "worker's empty ring would stall the live merge)");
    }

    const workload wl = make_workload(spec.load, spec.seed);
    if (!wl.valid()) return fail("generated workload failed validation");

    // Recording substrate: <= 4 real accesses per op on top of the 2
    // invocation/response events; net/ compositions additionally log one
    // replica touch per delivered client protocol message (up to 2 quorum
    // phases x servers per op, plus retransmission duplicates). 16x leaves
    // slack for cached-read paths and default-sized (3-server) quorums.
    event_log log(spec.collect == collect_mode::gamma
                      ? wl.total_ops() * 16 + 4096
                      : 1);
    register_args args;
    args.initial = spec.initial;
    args.writers = spec.load.writers;
    args.readers = spec.load.readers;
    args.log = spec.collect == collect_mode::gamma ? &log : nullptr;
    args.fault = spec.fault;
    args.servers = spec.net_servers;
    // Bus delivery order varies with the run seed (reproducibly), without
    // colliding with the per-processor workload seed stream.
    std::uint64_t net_seed = spec.seed ^ 0x6e65742d62757331ULL;
    args.net_seed = splitmix64_next(net_seed);
    // Global per-op deadline: a timed run's watchdog trips this flag
    // grace_ms after the epoch ends, and every in-flight net/ quorum phase
    // bails out as `unavailable` instead of pumping a dead majority past
    // the run's clock. Must outlive the register (phases poll it).
    std::atomic<bool> abort_ops{false};
    args.abort = &abort_ops;

    std::string make_error;
    std::unique_ptr<any_register> reg =
        make_register(spec.register_name, args, &make_error);
    if (reg == nullptr) return fail(std::move(make_error));

    const std::size_t n_procs = wl.scripts.size();
    std::vector<std::unique_ptr<any_port>> ports;
    ports.reserve(n_procs);
    for (std::size_t p = 0; p < n_procs; ++p) {
        const port_role role =
            p < wl.writers ? port_role::writer : port_role::reader;
        ports.push_back(
            reg->make_port(static_cast<processor_id>(p), role));
    }

    const bool per_thread = spec.collect == collect_mode::per_thread;
    // Scripted rings cover the whole script (<= 2 events per op), so push
    // never blocks and the ring is a flat slab. Timed streaming rings are
    // bounded; a full ring backpressures its producer (counted in stalls).
    // Timed streaming rings are kept SMALL on purpose: ring slack is
    // exactly how far the merged stream can run past one preempted
    // mid-operation producer, and every event streamed past an open op
    // stays retained in the checker (the quiescent cut cannot pass it).
    // Big rings -> huge retained windows -> superlinear checkpoint cost.
    seq_source seqs;
    std::vector<std::unique_ptr<event_ring>> rings;
    if (per_thread) {
        rings.reserve(n_procs);
        for (std::size_t p = 0; p < n_procs; ++p) {
            rings.push_back(std::make_unique<event_ring>(
                timed ? std::size_t{1} << 10
                      : wl.scripts[p].size() * 2 + 8));
        }
    }

    run_result result;
    result.info = entry->info;
    result.threads.resize(n_procs);
    std::vector<latency_histogram> hists(n_procs);

    // The online watcher polls growing prefixes of the gamma log while the
    // run appends to it. Reads-only, so even the seeded single-thread
    // schedule stays byte-for-byte deterministic underneath it.
    online_verifier verifier(log, spec.initial, spec.monitor_stride);
    std::atomic<bool> run_done{false};
    std::atomic<bool> caught_live{false};
    std::thread watcher;
    if (spec.online_monitor) {
        watcher = std::thread([&] {
            while (!run_done.load(std::memory_order_acquire)) {
                if (verifier.poll()) {
                    caught_live.store(true, std::memory_order_relaxed);
                    return;
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        });
    }

    // The streaming checker rides alongside either collector. collect=gamma:
    // a tail thread chases the shared log one published event at a time.
    // collect=per_thread: the merge thread below feeds it the live seq-order
    // merge. Ingest is sticky on violation, so the tails just drain.
    streaming_config scfg;
    scfg.window = spec.stream_window;
    scfg.stride = spec.stream_stride;
    streaming_checker stream_chk(spec.initial, scfg);
    std::thread stream_tail;
    if (spec.streaming_monitor && spec.collect == collect_mode::gamma) {
        stream_tail = std::thread([&] {
            std::size_t checked = 0;
            while (!run_done.load(std::memory_order_acquire)) {
                const std::size_t avail = log.size();
                if (checked == avail) {
                    std::this_thread::yield();
                    continue;
                }
                while (checked < avail) stream_chk.ingest(log.read_at(checked++));
            }
            const std::size_t avail = log.size();
            while (checked < avail) stream_chk.ingest(log.read_at(checked++));
            stream_chk.finish();
        });
    }

    // per_thread collection. Timed runs need a LIVE consumer: rings are
    // bounded, so one merge thread runs the k-way seq merge concurrently,
    // feeding the streaming checker and discarding (backpressure throttles
    // the producers to the checker's pace). Scripted runs record at pure
    // ring-push speed instead -- the rings cover the whole script, so the
    // merge runs AFTER the workers finish, off the measured path. Merged
    // order is a pure function of seq stamps either way, so consumer
    // timing never changes the history.
    const bool retain_merge = per_thread && !timed;
    const auto drain_merge = [&] {
        std::vector<event_ring*> rp;
        rp.reserve(rings.size());
        for (const auto& r : rings) rp.push_back(r.get());
        ring_merger merger(rp);
        stamped_event se;
        while (merger.next(&se)) {
            if (retain_merge) result.events.push_back(se.e);
            if (spec.streaming_monitor) stream_chk.ingest(se.e);
        }
        if (spec.streaming_monitor) stream_chk.finish();
    };
    std::thread merge_thread;
    if (per_thread && timed) merge_thread = std::thread(drain_merge);

    if (spec.schedule == schedule_mode::seeded) {
        // Deterministic single-thread interleaving at op granularity. A
        // paced operation's pause runs a bounded burst of OTHER processors'
        // ops, so the recorded gamma contains real overlap -- reproducibly.
        // Seq stamps are drawn by this one thread in schedule order, so the
        // merged per_thread history is byte-identical across runs.
        std::vector<script_runner> runners;
        runners.reserve(n_procs);
        bool in_pause = false;
        std::size_t current = n_procs;  // runner currently mid-operation
        rng sched(per_proc_seed(spec.seed, n_procs + 1));
        auto pause_burst = [&]() {
            if (in_pause) return;  // no nested pacing
            in_pause = true;
            for (unsigned i = 0; i < spec.pace.pause_yields; ++i) {
                std::vector<std::size_t> live;
                for (std::size_t p = 0; p < runners.size(); ++p) {
                    // Never step the paused runner itself: re-entering a
                    // port mid-operation would interleave one processor's
                    // invocation/response pairs with themselves.
                    if (p != current && !runners[p].exhausted()) {
                        live.push_back(p);
                    }
                }
                if (live.empty()) break;
                runners[live[sched.below(live.size())]].step();
            }
            in_pause = false;
        };
        for (std::size_t p = 0; p < n_procs; ++p) {
            runners.emplace_back(
                *ports[p], wl.scripts[p], static_cast<processor_id>(p),
                p < wl.writers ? port_role::writer : port_role::reader, spec,
                per_proc_seed(spec.seed, p),
                per_thread ? rings[p].get() : nullptr,
                per_thread ? &seqs : nullptr, pause_burst);
        }
        const std::uint64_t t0 = now_ns();
        for (;;) {
            std::vector<std::size_t> live;
            for (std::size_t p = 0; p < runners.size(); ++p) {
                if (!runners[p].exhausted()) live.push_back(p);
            }
            if (live.empty()) break;
            current = live[sched.below(live.size())];
            runners[current].step();
            current = n_procs;
        }
        result.measured_s = static_cast<double>(now_ns() - t0) / 1e9;
        if (per_thread) {
            for (auto& r : rings) r->finish();
        }
        for (std::size_t p = 0; p < n_procs; ++p) {
            thread_result& tr = result.threads[p];
            tr.processor = static_cast<processor_id>(p);
            tr.role = runners[p].role();
            tr.reads = runners[p].reads();
            tr.writes = runners[p].writes();
            result.crashes_injected += runners[p].crashes();
            result.ops_dropped += runners[p].dropped();
            fill_latency(tr, runners[p].hist());
            hists[p].merge(runners[p].hist());
        }
    } else {
        // One OS thread per processor. phase: 0 = warmup, 1 = measured
        // epoch, 2 = stop. Scripted runs (duration_ms == 0) skip warmup and
        // run each script exactly once.
        start_gate gate;
        std::atomic<int> phase{timed && spec.warmup_ms > 0 ? 0 : 1};
        std::atomic<std::uint64_t> crash_total{0};
        std::atomic<std::uint64_t> drop_total{0};
        std::vector<std::thread> pool;
        pool.reserve(n_procs);
        for (std::size_t p = 0; p < n_procs; ++p) {
            pool.emplace_back([&, p] {
                script_runner runner(
                    *ports[p], wl.scripts[p], static_cast<processor_id>(p),
                    p < wl.writers ? port_role::writer : port_role::reader,
                    spec, per_proc_seed(spec.seed, p),
                    per_thread ? rings[p].get() : nullptr,
                    per_thread ? &seqs : nullptr,
                    [yields = spec.pace.pause_yields] {
                        for (unsigned i = 0; i < yields; ++i) {
                            std::this_thread::yield();
                        }
                    });
                // Open-loop client multiplexing: this worker owns an even
                // share of spec.clients, each with its own due-time pacer.
                // The next op run is the earliest-due client's; latency is
                // measured from that due time (queueing included).
                auto paced_loop = [&](auto&& keep_going) {
                    const std::size_t total = spec.clients;
                    const std::size_t lo = p * total / n_procs;
                    const std::size_t hi = (p + 1) * total / n_procs;
                    const std::size_t nc = hi - lo;
                    if (nc == 0) return;  // more threads than clients
                    std::vector<std::uint64_t> due(nc);
                    const std::uint64_t start = now_ns();
                    for (std::size_t i = 0; i < nc; ++i) {
                        // Stagger arrivals across one pace interval so the
                        // clients don't fire in lockstep.
                        due[i] = start + i * spec.client_pace_ns / nc;
                    }
                    while (keep_going()) {
                        std::size_t best = 0;
                        for (std::size_t i = 1; i < nc; ++i) {
                            if (due[i] < due[best]) best = i;
                        }
                        const std::uint64_t t = now_ns();
                        if (due[best] > t) {
                            if (due[best] - t > 100000) {
                                std::this_thread::sleep_for(
                                    std::chrono::microseconds(20));
                            } else {
                                std::this_thread::yield();
                            }
                            continue;
                        }
                        if (!runner.step_paced(due[best])) {
                            runner.rewind();
                            continue;
                        }
                        due[best] += spec.client_pace_ns;
                    }
                };
                gate.wait();
                if (timed) {
                    if (spec.clients > 0) {
                        paced_loop([&] {
                            return phase.load(std::memory_order_acquire) == 0;
                        });
                        while (phase.load(std::memory_order_acquire) == 0) {
                            std::this_thread::yield();
                        }
                    } else {
                        while (phase.load(std::memory_order_acquire) == 0) {
                            if (!runner.step()) runner.rewind();
                        }
                    }
                    runner.reset_counters();
                }
                const std::uint64_t t0 = now_ns();
                if (timed) {
                    if (spec.clients > 0) {
                        paced_loop([&] {
                            return phase.load(std::memory_order_acquire) == 1;
                        });
                        while (phase.load(std::memory_order_acquire) == 1) {
                            std::this_thread::yield();
                        }
                    } else {
                        while (phase.load(std::memory_order_acquire) == 1) {
                            if (!runner.step()) runner.rewind();
                        }
                    }
                } else {
                    while (runner.step()) {}
                }
                const double secs = static_cast<double>(now_ns() - t0) / 1e9;
                if (per_thread) rings[p]->finish();
                thread_result& tr = result.threads[p];
                tr.processor = static_cast<processor_id>(p);
                tr.role = runner.role();
                tr.reads = runner.reads();
                tr.writes = runner.writes();
                tr.ops_per_sec =
                    secs > 0
                        ? static_cast<double>(tr.reads + tr.writes) / secs
                        : 0;
                fill_latency(tr, runner.hist());
                hists[p].merge(runner.hist());
                crash_total.fetch_add(runner.crashes(),
                                      std::memory_order_relaxed);
                drop_total.fetch_add(runner.dropped(),
                                     std::memory_order_relaxed);
            });
        }
        const std::uint64_t t0 = now_ns();
        gate.open();
        if (timed) {
            if (spec.warmup_ms > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(spec.warmup_ms));
                phase.store(1, std::memory_order_release);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(spec.duration_ms));
            phase.store(2, std::memory_order_release);
        }
        // Deadline watchdog: workers finish their in-flight op and exit,
        // but an op against an unavailable quorum (a crashed majority)
        // would otherwise pump until its retry bound -- or forever, with
        // retries disabled. Give them grace_ms, then trip the abort flag:
        // quorum phases poll it and surface `unavailable`, so joining is
        // bounded by duration + grace, never by a dead quorum.
        std::atomic<bool> workers_done{false};
        std::thread watchdog;
        if (timed) {
            watchdog = std::thread([&] {
                const std::uint64_t deadline =
                    now_ns() +
                    static_cast<std::uint64_t>(spec.grace_ms) * 1000000ULL;
                while (!workers_done.load(std::memory_order_acquire)) {
                    if (now_ns() >= deadline) {
                        abort_ops.store(true, std::memory_order_release);
                        return;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            });
        }
        for (std::thread& t : pool) t.join();
        workers_done.store(true, std::memory_order_release);
        if (watchdog.joinable()) watchdog.join();
        result.measured_s =
            timed ? spec.duration_ms / 1000.0
                  : static_cast<double>(now_ns() - t0) / 1e9;
        result.crashes_injected = crash_total.load(std::memory_order_relaxed);
        result.ops_dropped = drop_total.load(std::memory_order_relaxed);
    }

    if (merge_thread.joinable()) merge_thread.join();
    if (per_thread && !timed) drain_merge();
    run_done.store(true, std::memory_order_release);
    if (watcher.joinable()) watcher.join();
    if (stream_tail.joinable()) stream_tail.join();

    for (const thread_result& tr : result.threads) {
        result.total_reads += tr.reads;
        result.total_writes += tr.writes;
    }
    {
        latency_histogram total;
        for (const latency_histogram& h : hists) total.merge(h);
        fill_latency(result.latency, total);
    }

    if (spec.collect == collect_mode::gamma) {
        result.events = log.snapshot();
        result.log_overflowed = log.overflowed();
    }

    result.faults_injected = reg->faults();
    result.net = reg->net();
    result.repair = reg->repair();
    // An op that exhausted its retries against an unavailable quorum never
    // responded: dropped but accounted, through the same seam as ring-
    // policy drops (the port parks itself, so the op stays pending in the
    // history -- the standard crashed-port semantics).
    result.ops_dropped += result.net.unavailable_ops;
    if (spec.online_monitor) {
        verifier.finish();  // violations that landed after the last poll
        online_detection& od = result.online;
        od.ran = true;
        od.injection_pos = result.faults_injected.first_injection;
        if (verifier.violation_found()) {
            od.violation = true;
            od.caught_live = caught_live.load(std::memory_order_relaxed);
            // Shrink to the minimal violating prefix; deterministic under
            // the seeded schedule even though the live watcher's poll
            // timing is not.
            const std::optional<op_id> culprit = verifier.locate_culprit();
            od.detection_prefix = verifier.detection_prefix();
            od.diagnosis = verifier.diagnosis();
            if (culprit.has_value()) {
                od.culprit_known = true;
                od.culprit = *culprit;
            }
            if (od.injection_pos != no_event) {
                for (std::size_t i = od.injection_pos;
                     i < od.detection_prefix && i < result.events.size();
                     ++i) {
                    if (is_response(result.events[i].kind)) ++od.latency_ops;
                }
            }
        }
    }
    if (spec.streaming_monitor) {
        stream_outcome& so = result.stream;
        so.ran = true;
        const streaming_stats& ss = stream_chk.stats();
        so.events = ss.events;
        so.ops_completed = ss.ops_completed;
        so.ops_retired = ss.ops_retired;
        so.checkpoints = ss.checkpoints;
        so.retained_peak = ss.peak_retained_ops;
        so.uncertified_peak = ss.uncertified_peak;
        for (const auto& r : rings) so.producer_stalls += r->stalls();
        if (stream_chk.violation_found()) {
            so.violation = true;
            so.detection_pos = stream_chk.detection_pos();
            so.diagnosis = stream_chk.diagnosis();
            const event_pos inj = result.faults_injected.first_injection;
            if (inj != no_event) {
                // detection_pos and result.events index the same stream
                // (the gamma log, or the retained seq merge), so completed
                // ops between injection and detection are countable.
                const std::size_t hi = std::min<std::size_t>(
                    so.detection_pos, result.events.size());
                for (std::size_t i = inj; i < hi; ++i) {
                    if (is_response(result.events[i].kind)) ++so.latency_ops;
                }
            }
        }
    }

    result.ok = true;
    return result;
}

latency_result measure_latency(const std::string& register_name,
                               std::size_t writers, std::size_t readers,
                               std::uint64_t iters) {
    trim_heap();
    latency_result res;
    if (readers == 0) {
        res.error = "measure_latency needs at least one reader";
        return res;
    }
    register_args args;
    args.writers = writers;
    args.readers = readers;
    std::string err;
    std::unique_ptr<any_register> reg =
        make_register(register_name, args, &err);
    if (reg == nullptr) {
        res.error = std::move(err);
        return res;
    }
    auto w = reg->make_port(0, port_role::writer);
    auto r = reg->make_port(static_cast<processor_id>(writers),
                            port_role::reader);

    value_t sink = 0;
    const auto bench = [&](auto&& body) {
        double best_ns = 0;
        for (int rep = 0; rep < 5; ++rep) {
            const std::uint64_t t0 = now_ns();
            for (std::uint64_t i = 0; i < iters; ++i) body(i);
            const double ns = static_cast<double>(now_ns() - t0) /
                              static_cast<double>(iters);
            if (rep == 0 || ns < best_ns) best_ns = ns;
        }
        return best_ns;
    };

    res.write_ns = bench([&](std::uint64_t i) {
        w->write(unique_value(0, static_cast<std::uint32_t>(i)));
    });
    res.read_ns = bench([&](std::uint64_t) { sink += r->read(); });
    value_t probe;
    if (w->read_cached(probe)) {
        res.cached_read_ns = bench([&](std::uint64_t) {
            value_t out = 0;
            (void)w->read_cached(out);
            sink += out;
        });
    }
    // Defeat dead-code elimination of the read loops.
    if (sink == 0x7f7f7f7f7f7f7f7fLL) res.read_ns += 0.0;
    res.ok = true;
    return res;
}

stall_result measure_stall(const stall_spec& spec) {
    trim_heap();
    stall_result res;
    register_args args;
    args.initial = 1;
    args.writers = spec.writers;
    args.readers = 2;  // the sampling reader + (reader stalls) the staller
    std::string err;
    std::unique_ptr<any_register> reg =
        make_register(spec.register_name, args, &err);
    if (reg == nullptr) {
        res.error = std::move(err);
        return res;
    }
    const auto first_reader = static_cast<processor_id>(spec.writers);
    auto sampler = reg->make_port(first_reader, port_role::reader);
    auto staller =
        spec.stalled_role == port_role::writer
            ? reg->make_port(0, port_role::writer)
            : reg->make_port(static_cast<processor_id>(spec.writers + 1),
                             port_role::reader);

    start_gate gate;
    stop_flag stop;
    std::atomic<bool> stall_supported{true};
    latency_histogram hist;

    std::thread stall_thread([&] {
        gate.wait();
        const bool supported = staller->stall([&] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(spec.stall_ms));
        });
        if (!supported) stall_supported.store(false);
    });
    std::thread read_thread([&] {
        gate.wait();
        value_t sink = 0;
        while (!stop.stop_requested()) {
            const std::uint64_t t0 = now_ns();
            sink += sampler->read();
            hist.record(now_ns() - t0);
        }
        if (sink == 0x7f7f7f7f7f7f7f7fLL) hist.record(0);
    });
    gate.open();
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.run_ms));
    stop.request_stop();
    stall_thread.join();
    read_thread.join();

    if (!stall_supported.load()) {
        res.error = spec.register_name + " has nothing to stall for role";
        return res;
    }
    res.reads = hist.count();
    res.p50_us = hist.quantile(0.50) / 1000.0;
    res.p99_us = hist.quantile(0.99) / 1000.0;
    res.p999_us = hist.quantile(0.999) / 1000.0;
    res.max_us = static_cast<double>(hist.max_ns()) / 1000.0;
    res.ok = true;
    return res;
}

}  // namespace bloom87::harness
