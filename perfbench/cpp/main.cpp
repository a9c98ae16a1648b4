// perfbench: the benchmark binary. One invocation runs one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics.
// --trace 1 runs the traced breakdown: every layer's segment, each on the
// workload that exercises that layer, and reports the per-layer metrics
// plus each workload's tracing overhead and unattributed share; spans are
// written to DIR/<workload>-seed<N>.spans.jsonl. Human-readable lines come
// first; the last line of standard output is one JSON object. The exit
// code is 0 when every output check passed, 1 when one failed, 64 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

const char* const workload_names[] = {"register-closed", "stream-monitored",
                                      "net-quorum", "modelcheck-bloom"};

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "register-closed|stream-monitored|net-quorum|modelcheck-bloom "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n",
                 why);
    return 64;
}

void run_traced(const options& opt, outcome& out) {
    // One fifth of the run for each of the three timed segments' traced
    // epochs (each also runs an untraced epoch of the same length); the
    // model-check segment's explores have a fixed size.
    const double part = opt.seconds / 5;
    std::vector<span_buffer> buffers;
    trace_register_closed(opt, part, out, buffers);
    trace_stream_monitored(opt, part, out, buffers);
    trace_net_quorum(opt, part, out, buffers);
    trace_modelcheck_bloom(opt, out, buffers);

    const std::string bad = check_spans(buffers);
    if (!bad.empty()) out.fail("span check: " + bad, 0);
    const std::string path =
        opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".spans.jsonl";
    std::size_t n = 0;
    for (const span_buffer& b : buffers) n += b.spans().size();
    if (!write_spans(path, buffers)) {
        out.fail("cannot write spans to " + path, 0);
    } else {
        std::printf("spans: %zu written to %s\n", n, path.c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0') return usage("bad --seed");
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) {
                return usage("bad --seconds");
            }
        } else if (a == "--trace") {
            if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--out") {
            opt.out_dir = v;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }
    if (!have_workload) return usage("--workload is required");
    bool known = false;
    for (const char* w : workload_names) known = known || opt.workload == w;
    if (!known) return usage(("unknown workload " + opt.workload).c_str());

    outcome out;
    if (opt.trace) {
        run_traced(opt, out);
    } else if (opt.workload == "register-closed") {
        run_register_closed(opt, out);
    } else if (opt.workload == "stream-monitored") {
        run_stream_monitored(opt, out);
    } else if (opt.workload == "net-quorum") {
        run_net_quorum(opt, out);
    } else {
        run_modelcheck_bloom(opt, out);
    }

    for (const outcome::metric& m : out.metrics) {
        std::printf("%-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& f : out.failures) std::printf("FAILED: %s\n", f.c_str());

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const outcome::metric& m = out.metrics[i];
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        json += (i == 0 ? "" : ", ");
        json += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}, \"failures\": [";
    for (std::size_t i = 0; i < out.failures.size(); ++i) {
        json += (i == 0 ? "\"" : ", \"") + json_escape(out.failures[i]) + "\"";
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    return out.correct ? 0 : 1;
}
