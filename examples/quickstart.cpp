// quickstart: drive any registered register and check it, in one command.
//
// The harness (src/harness) builds a register by name, runs a scripted
// concurrent workload against it, records the external schedule, and hands
// the history to the checker pipeline -- the guarantee of Bloom (PODC 1987),
// demonstrated end to end:
//
//   ./build/examples/quickstart                          # defaults
//   ./build/examples/quickstart --list                   # what can I run?
//   ./build/examples/quickstart --register baseline/mutex --readers 8
//   ./build/examples/quickstart --check fast,monitor --json BENCH_harness.json
#include <cstdio>
#include <iostream>

#include "harness/checkers.hpp"
#include "harness/cli.hpp"
#include "harness/driver.hpp"
#include "harness/report.hpp"

using namespace bloom87;
using namespace bloom87::harness;

int main(int argc, char** argv) {
    common_flags flags;
    flags.readers = 3;
    flags.ops = 400;
    flag_parser parser("quickstart",
                       "run one register through the harness and check it");
    flags.add_to(parser);
    if (!parser.parse(argc, argv)) return 64;
    if (parser.help_requested()) return 0;
    if (flags.list) {
        print_register_list(std::cout);
        return 0;
    }

    std::string err;
    const auto kinds = parse_checker_list(flags.check, &err);
    if (!kinds) {
        std::cerr << "bad --check list: " << err << "\n";
        return 64;
    }

    run_spec spec = flags.to_spec();
    // Sample every operation unless the user asked for a coarser stride:
    // the quickstart summary prints the merged latency percentiles.
    if (spec.latency_sample_every == 0) spec.latency_sample_every = 1;
    const run_result result = run(spec);
    if (!result.ok) {
        std::cerr << "run failed: " << result.error << "\n";
        return 1;
    }

    std::printf("%s: %llu writes + %llu reads across %zu threads in %.2f ms\n",
                spec.register_name.c_str(),
                static_cast<unsigned long long>(result.total_writes),
                static_cast<unsigned long long>(result.total_reads),
                result.threads.size(), result.measured_s * 1e3);
    if (result.latency.samples > 0) {
        std::printf("  latency    p50 %.1f us, p99 %.1f us, p999 %.1f us "
                    "(max %.1f us, %llu samples)\n",
                    result.latency.p50_us, result.latency.p99_us,
                    result.latency.p999_us, result.latency.max_us,
                    static_cast<unsigned long long>(result.latency.samples));
    }
    if (spec.fault.active()) {
        std::printf("  fault      %s: %llu injected\n",
                    fault_class_name(spec.fault.cls),
                    static_cast<unsigned long long>(
                        result.faults_injected.total()));
    }
    if (result.stream.ran) {
        const stream_outcome& so = result.stream;
        if (so.violation) {
            const bool injected = so.injection_pos != no_event;
            std::printf("  streaming  VIOLATION at event %llu",
                        static_cast<unsigned long long>(so.detection_pos));
            if (injected) {
                std::printf(" (latency %llu ops)",
                            static_cast<unsigned long long>(so.latency_ops));
            }
            std::printf(": %s\n", so.diagnosis.c_str());
            if (so.culprit.has_value()) {
                std::printf("             minimal prefix %llu events",
                            static_cast<unsigned long long>(
                                so.detection_prefix));
                if (injected) {
                    std::printf(" (latency %llu ops after injection)",
                                static_cast<unsigned long long>(
                                    so.prefix_latency_ops));
                }
                std::printf(", culprit proc %u op %llu\n",
                            static_cast<unsigned>(so.culprit->processor),
                            static_cast<unsigned long long>(so.culprit->op));
            }
        } else {
            std::printf("  streaming  clean: %llu events, %llu ops retired, "
                        "retained peak %llu\n",
                        static_cast<unsigned long long>(so.events),
                        static_cast<unsigned long long>(so.ops_retired),
                        static_cast<unsigned long long>(so.retained_peak));
        }
    }

    const pipeline_result checks =
        run_checkers(result.events, spec.initial, *kinds, spec.register_name);
    if (!checks.parsed) {
        std::cerr << "recorded history failed to parse: " << checks.parse_error
                  << "\n";
        return 1;
    }
    for (const check_verdict& v : checks.verdicts) {
        if (!v.ran) {
            std::printf("  %-10s skipped: %s\n", checker_name(v.kind).c_str(),
                        v.skip_reason.c_str());
        } else if (v.pass) {
            std::printf("  %-10s %s (%.2f ms)\n", checker_name(v.kind).c_str(),
                        v.kind == checker_kind::race ? "RACE-FREE" : "ATOMIC",
                        v.millis);
        } else {
            std::printf("  %-10s VIOLATION (%.2f ms): %s\n",
                        checker_name(v.kind).c_str(), v.millis,
                        v.diagnosis.c_str());
        }
    }

    if (!flags.json_path.empty() &&
        !write_report_file(flags.json_path, "quickstart", spec, result,
                           &checks)) {
        return 66;
    }

    // The known-broken tournament is EXPECTED to fail its checkers, and a
    // run with an armed value-corrupting fault is expected to be flagged;
    // every other register must pass.
    const bool corruption_armed =
        spec.fault.active() && corrupts_values(spec.fault.cls);
    if (corruption_armed) {
        if (checks.all_pass() && !result.stream.violation) {
            std::printf("note: injected %s faults went undetected this run "
                        "(try more ops or a higher rate)\n",
                        fault_class_name(spec.fault.cls));
        }
    } else if (result.info.expected_atomic && !checks.all_pass()) {
        std::printf("UNEXPECTED: %s failed atomicity checking\n",
                    spec.register_name.c_str());
        return 1;
    }
    std::printf("done: history of %zu operations, verdicts as expected\n",
                checks.operations);
    return 0;
}
