#include "harness/report.hpp"

#include <fstream>
#include <iostream>
#include <thread>

namespace bloom87::harness {
namespace {

[[nodiscard]] const char* schedule_name(schedule_mode m) {
    return m == schedule_mode::seeded ? "seeded" : "threads";
}

[[nodiscard]] const char* collect_name(collect_mode m) {
    switch (m) {
        case collect_mode::gamma: return "gamma";
        case collect_mode::per_thread: return "per_thread";
        case collect_mode::none: break;
    }
    return "none";
}

}  // namespace

report_writer::report_writer(std::ostream& os, const std::string& bench)
    : os_(os), w_(os) {
    w_.begin_object();
    w_.field("schema", "bloom87-harness-v7");
    w_.field("bench", bench);
    w_.key("environment").begin_object();
    w_.field("hardware_concurrency", std::thread::hardware_concurrency());
#if defined(__VERSION__)
    w_.field("compiler", __VERSION__);
#endif
#if defined(NDEBUG)
    w_.field("build", "release");
#else
    w_.field("build", "debug");
#endif
    w_.end_object();
    w_.key("runs").begin_array();
}

report_writer::~report_writer() { finish(); }

void report_writer::add_run(const run_spec& spec, const run_result& result,
                            const pipeline_result* checks,
                            const std::function<void(json_writer&)>& extra) {
    if (section_ != section::runs) return;
    w_.begin_object();
    w_.field("register", spec.register_name);
    w_.field("ok", result.ok);
    if (!result.ok) w_.field("error", result.error);

    w_.key("config").begin_object();
    w_.field("writers", static_cast<std::uint64_t>(spec.load.writers));
    w_.field("readers", static_cast<std::uint64_t>(spec.load.readers));
    w_.field("ops_per_writer",
             static_cast<std::uint64_t>(spec.load.ops_per_writer));
    w_.field("ops_per_reader",
             static_cast<std::uint64_t>(spec.load.ops_per_reader));
    w_.field("seed", spec.seed);
    w_.field("duration_ms", spec.duration_ms);
    w_.field("warmup_ms", spec.warmup_ms);
    w_.field("schedule", schedule_name(spec.schedule));
    w_.field("collect", collect_name(spec.collect));
    w_.field("cached_writer_reads", spec.cached_writer_reads);
    if (spec.streaming_monitor) {
        w_.field("stream_window", spec.stream_window);
        w_.field("stream_stride", spec.stream_stride);
    }
    if (spec.clients > 0) {
        w_.field("clients", spec.clients);
        w_.field("client_pace_ns", spec.client_pace_ns);
    }
    // v5: backpressure policy of the per_thread rings (named only when the
    // rings exist) and the replica count of net/ compositions.
    if (spec.collect == collect_mode::per_thread) {
        w_.field("ring_policy",
                 spec.ring == ring_policy::drop ? "drop" : "block");
    }
    if (result.net.ran) {
        w_.field("net_servers",
                 static_cast<std::uint64_t>(result.net.servers));
    }
    w_.end_object();

    w_.key("totals").begin_object();
    w_.field("reads", result.total_reads);
    w_.field("writes", result.total_writes);
    w_.field("measured_s", result.measured_s);
    const double total_ops =
        static_cast<double>(result.total_reads + result.total_writes);
    w_.field("ops_per_sec",
             result.measured_s > 0 ? total_ops / result.measured_s : 0.0);
    w_.field("crashes_injected", result.crashes_injected);
    // v5: operations shed by the drop ring policy (always present; zero
    // under block, so consumers can assert on it unconditionally).
    w_.field("ops_dropped", result.ops_dropped);
    w_.field("events", static_cast<std::uint64_t>(result.events.size()));
    w_.field("log_overflowed", result.log_overflowed);
    // v4: merged latency percentiles across every worker (histogram-based,
    // ~6% resolution; max is exact), present when anything was sampled.
    if (result.latency.samples > 0) {
        w_.key("latency").begin_object();
        w_.field("p50_us", result.latency.p50_us);
        w_.field("p99_us", result.latency.p99_us);
        w_.field("p999_us", result.latency.p999_us);
        w_.field("max_us", result.latency.max_us);
        w_.field("samples", result.latency.samples);
        w_.end_object();
    }
    w_.end_object();

    w_.key("threads").begin_array();
    for (const thread_result& tr : result.threads) {
        w_.begin_object();
        w_.field("processor", static_cast<int>(tr.processor));
        w_.field("role",
                 tr.role == port_role::writer ? "writer" : "reader");
        w_.field("reads", tr.reads);
        w_.field("writes", tr.writes);
        w_.field("ops_per_sec", tr.ops_per_sec);
        if (tr.samples > 0) {
            w_.field("p50_us", tr.p50_us);
            w_.field("p99_us", tr.p99_us);
            w_.field("p999_us", tr.p999_us);
            w_.field("max_us", tr.max_us);
            w_.field("samples", tr.samples);
        }
        w_.end_object();
    }
    w_.end_array();

    if (checks != nullptr) {
        w_.key("checkers").begin_array();
        for (const check_verdict& v : checks->verdicts) {
            w_.begin_object();
            w_.field("checker", checker_name(v.kind));
            w_.field("ran", v.ran);
            if (!v.ran) {
                w_.field("skip_reason", v.skip_reason);
            } else {
                w_.field("pass", v.pass);
                if (!v.pass) w_.field("diagnosis", v.diagnosis);
                w_.field("millis", v.millis);
                if (v.kind == checker_kind::bloom) {
                    w_.field("potent_writes",
                             static_cast<std::uint64_t>(v.potent_writes));
                    w_.field("impotent_writes",
                             static_cast<std::uint64_t>(v.impotent_writes));
                    w_.field("reads_of_potent",
                             static_cast<std::uint64_t>(v.reads_of_potent));
                    w_.field("reads_of_impotent",
                             static_cast<std::uint64_t>(v.reads_of_impotent));
                    w_.field("reads_of_initial",
                             static_cast<std::uint64_t>(v.reads_of_initial));
                }
                if (v.kind == checker_kind::race) {
                    w_.field("races", static_cast<std::uint64_t>(v.races));
                    w_.field("accesses_checked",
                             static_cast<std::uint64_t>(v.accesses_checked));
                    w_.field("contract", v.contract);
                    // v7: the hybrid second opinion's verdict.
                    w_.field("agreement", v.agreement);
                }
            }
            w_.end_object();
        }
        w_.end_array();
        w_.field("operations", static_cast<std::uint64_t>(checks->operations));
        w_.field("history_parsed", checks->parsed);
        if (!checks->parsed) w_.field("parse_error", checks->parse_error);
        w_.field("all_pass", checks->all_pass());

        // v3: the analysis block mirrors the race checker's verdict whenever
        // the checker was REQUESTED: detector statistics when it ran, an
        // explicit skip_reason when it could not (skipped work says why).
        // v7: the checker is HYBRID -- `pass` means both the happens-before
        // detector and the lockset second opinion certified; the nested
        // `lockset` block carries the second opinion's own verdict and the
        // `agreement` field names which detectors flagged.
        for (const check_verdict& v : checks->verdicts) {
            if (v.kind != checker_kind::race) continue;
            w_.key("analysis").begin_object();
            w_.field("checker", "race");
            w_.field("ran", v.ran);
            if (!v.ran) {
                w_.field("skip_reason", v.skip_reason);
            } else {
                w_.field("pass", v.pass);
                w_.field("races", static_cast<std::uint64_t>(v.races));
                w_.field("accesses_checked",
                         static_cast<std::uint64_t>(v.accesses_checked));
                w_.field("contract", v.contract);
                if (!v.pass) w_.field("diagnosis", v.diagnosis);
                w_.field("millis", v.millis);
                w_.field("agreement", v.agreement);
                w_.key("lockset").begin_object();
                w_.field("pass", v.lockset_pass);
                w_.field("warnings",
                         static_cast<std::uint64_t>(v.lockset_warnings));
                w_.field("divergences",
                         static_cast<std::uint64_t>(v.lockset_divergences));
                if (!v.lockset_pass) {
                    w_.field("diagnosis", v.lockset_diagnosis);
                }
                if (!v.divergence.empty()) {
                    w_.field("divergence", v.divergence);
                }
                w_.end_object();
            }
            w_.end_object();
            break;
        }
    }

    // v2: substrate fault injection + online detection, on fault runs and
    // monitored runs only (other runs keep their v1 shape exactly).
    if (spec.fault.active() || result.faults_injected.total() > 0 ||
        result.online.ran) {
        const fault_counts& fc = result.faults_injected;
        w_.key("faults").begin_object();
        w_.field("class", fault_class_name(spec.fault.cls));
        w_.field("rate_num", spec.fault.rate_num);
        w_.field("rate_den", spec.fault.rate_den);
        w_.field("fault_seed", spec.fault.seed);
        w_.field("at", spec.fault.at);
        // v6: composed multi-class plans (one roll per class per access,
        // first hit wins) plus the crash-recovery knobs.
        if (!spec.fault.composed.empty()) {
            w_.key("composed").begin_array();
            for (const fault_entry& fe : spec.fault.composed) {
                w_.begin_object();
                w_.field("class", fault_class_name(fe.cls));
                w_.field("rate_num", fe.rate_num);
                w_.field("rate_den", fe.rate_den);
                w_.end_object();
            }
            w_.end_array();
        }
        if (spec.fault.recover_after > 0) {
            w_.field("recover_after", spec.fault.recover_after);
        }
        if (spec.fault.crash_budget > 0) {
            w_.field("crash_budget", spec.fault.crash_budget);
        }
        w_.field("stale_reads", fc.stale_reads);
        w_.field("lost_writes", fc.lost_writes);
        w_.field("torn_values", fc.torn_values);
        w_.field("delayed_writes", fc.delayed_writes);
        w_.field("port_crashes", fc.port_crashes);
        w_.field("injected", fc.total());
        if (fc.first_injection != no_event) {
            w_.field("injection_pos", fc.first_injection);
        }
        if (result.online.ran) {
            const online_detection& od = result.online;
            w_.key("online").begin_object();
            w_.field("violation", od.violation);
            if (od.violation) {
                w_.field("caught_live", od.caught_live);
                w_.field("detection_prefix", od.detection_prefix);
                w_.field("latency_ops", od.latency_ops);
                if (od.culprit_known) {
                    w_.field("culprit_processor",
                             static_cast<int>(od.culprit.processor));
                    w_.field("culprit_op",
                             static_cast<std::uint64_t>(od.culprit.op));
                }
                w_.field("diagnosis", od.diagnosis);
            }
            w_.end_object();
        }
        w_.end_object();
    }

    // v5: message-layer traffic of a net/ composition's run (absent for
    // shared-memory registers). rounds_per_op and fast_path_rate are
    // derived here so consumers get the protocol's headline numbers
    // without recomputing.
    if (result.net.ran) {
        const net_stats& ns = result.net;
        w_.key("net").begin_object();
        w_.field("servers", static_cast<std::uint64_t>(ns.servers));
        w_.field("quorum", static_cast<std::uint64_t>(ns.quorum));
        w_.field("messages_sent", ns.sent);
        w_.field("messages_delivered", ns.delivered);
        w_.field("messages_lost", ns.lost);
        w_.field("messages_duplicated", ns.duplicated);
        w_.field("messages_delayed", ns.delayed);
        w_.field("retransmissions", ns.retransmissions);
        w_.field("server_crashes", ns.server_crashes);
        w_.field("ops", ns.ops);
        w_.field("rounds", ns.rounds);
        w_.field("rounds_per_op",
                 ns.ops > 0 ? static_cast<double>(ns.rounds) /
                                  static_cast<double>(ns.ops)
                            : 0.0);
        w_.field("fast_path_ops", ns.fast_path_ops);
        w_.field("fast_path_rate",
                 ns.ops > 0 ? static_cast<double>(ns.fast_path_ops) /
                                  static_cast<double>(ns.ops)
                            : 0.0);
        w_.end_object();
    }

    // v6: the crash-recovery / self-healing block. Present on net/ runs
    // (incarnation lifecycle + degradation counters) and on repair/ runs
    // (access-count overhead of masking injected faults); the two halves
    // share one block because they answer the same question -- what did
    // surviving the faults cost?
    if (result.net.ran || result.repair.ran) {
        w_.key("recovery").begin_object();
        if (result.net.ran) {
            const net_stats& ns = result.net;
            w_.field("recoveries", ns.recoveries);
            w_.field("catchup_rounds", ns.catchup_rounds);
            w_.field("stale_inc_drops", ns.stale_inc_drops);
            w_.field("unavailable_ops", ns.unavailable_ops);
        }
        if (result.repair.ran) {
            const repair_stats& rs = result.repair;
            w_.key("repair").begin_object();
            w_.field("verify_reads", rs.verify_reads);
            w_.field("rereads", rs.rereads);
            w_.field("rewrites", rs.rewrites);
            w_.field("repaired", rs.repaired);
            const double real_ops = static_cast<double>(
                result.total_reads + result.total_writes);
            // Extra substrate accesses per simulated op -- the measured
            // price of restoring atomicity under the injected fault rate.
            w_.field("overhead_accesses_per_op",
                     real_ops > 0
                         ? static_cast<double>(rs.verify_reads + rs.rereads +
                                               rs.rewrites) /
                               real_ops
                         : 0.0);
            w_.end_object();
        }
        w_.end_object();
    }

    // v4: what the streaming checker saw, on streaming-monitored runs only.
    if (result.stream.ran) {
        const stream_outcome& so = result.stream;
        w_.key("stream").begin_object();
        w_.field("events", so.events);
        w_.field("ops_completed", so.ops_completed);
        w_.field("ops_retired", so.ops_retired);
        w_.field("checkpoints", so.checkpoints);
        w_.field("retained_peak", so.retained_peak);
        w_.field("uncertified_peak", so.uncertified_peak);
        w_.field("producer_stalls", so.producer_stalls);
        w_.field("violation", so.violation);
        if (so.violation) {
            w_.field("detection_pos", so.detection_pos);
            w_.field("latency_ops", so.latency_ops);
            w_.field("diagnosis", so.diagnosis);
        }
        w_.end_object();
    }

    if (extra) extra(w_);
    w_.end_object();
}

void report_writer::add_table(const std::string& name, const table& t) {
    if (section_ == section::done) return;
    if (section_ == section::runs) {
        w_.end_array();
        w_.key("tables").begin_array();
        section_ = section::tables;
    }
    w_.begin_object();
    w_.field("name", name);
    w_.key("header").begin_array();
    for (const std::string& h : t.header()) w_.value(h);
    w_.end_array();
    w_.key("rows").begin_array();
    for (const auto& row : t.rows()) {
        w_.begin_array();
        for (const std::string& cell : row) w_.value(cell);
        w_.end_array();
    }
    w_.end_array();
    w_.end_object();
}

void report_writer::finish() {
    if (section_ == section::done) return;
    w_.end_array();  // runs or tables
    w_.end_object();
    os_ << "\n";
    section_ = section::done;
}

bool write_report_file(const std::string& path, const std::string& bench,
                       const run_spec& spec, const run_result& result,
                       const pipeline_result* checks) {
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    report_writer rep(os, bench);
    rep.add_run(spec, result, checks);
    rep.finish();
    std::cout << "wrote " << path << "\n";
    return true;
}

}  // namespace bloom87::harness
