// net-quorum: net/abd-mw over 3 servers with 2 writers + 1 reader, all
// three client threads pumping the in-process bus. Two-round writes run
// beside fast-path and write-back reads.
#include "harness/driver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t verify_ops_per_proc = 15'000;

loop_config net_config(std::uint64_t seed) {
    loop_config cfg;
    cfg.register_name = "net/abd-mw";
    cfg.writers = 2;
    cfg.readers = 1;
    cfg.servers = 3;
    cfg.seed = seed;
    cfg.sample_every = 1;
    return cfg;
}

/// Failed ops of a net epoch: those that exhausted their retries.
void count_unavailable(const epoch_stats& es, outcome& out) {
    if (es.net.unavailable_ops != 0) {
        out.fail("net-quorum: " + std::to_string(es.net.unavailable_ops) +
                     " operations unavailable",
                 es.net.unavailable_ops);
    }
}

}  // namespace

void run_net_quorum(const options& opt, outcome& out) {
    run_closed_workload("net-quorum", net_config(opt.seed), verify_ops_per_proc, opt, out);
}

void trace_net_quorum(const options& opt, double seconds, outcome& out,
                      std::vector<span_buffer>& buffers) {
    std::string err;
    epoch_stats plain;
    if (!run_closed_epoch(net_config(opt.seed), seconds, plain, &err)) {
        out.fail("net-quorum: " + err, 0);
        return;
    }
    out.attempted += plain.ops;
    count_unavailable(plain, out);

    std::vector<span_buffer> bufs;
    for (std::uint32_t p = 0; p < 3; ++p) bufs.emplace_back(20 + p, std::size_t{1} << 17);
    epoch_stats traced;
    (void)run_closed_epoch(net_config(opt.seed), seconds, traced, &err, &bufs, "net.op");
    for (span_buffer& b : bufs) buffers.push_back(std::move(b));
    out.attempted += traced.ops;
    count_unavailable(traced, out);

    std::vector<double> solo_r, solo_w;
    for (int i = 0; i < 5; ++i) {
        const bloom87::harness::latency_result lr =
            bloom87::harness::measure_latency("net/abd-mw", 2, 1, 20'000);
        if (!lr.ok) {
            out.fail("measure_latency: " + lr.error, 0);
            return;
        }
        solo_w.push_back(lr.write_ns / 1000.0);
        solo_r.push_back(lr.read_ns / 1000.0);
    }
    const double solo_op_us = (median(solo_r) + median(solo_w)) / 2;
    const double loaded_p50_us = smooth_quantile(plain.latency_ns, 0.50) / 1000.0;

    const bloom87::harness::net_stats& n = plain.net;
    const auto ops = static_cast<double>(n.ops);
    out.add("net.msgs_per_op", static_cast<double>(n.sent) / ops, "count");
    out.add("net.rounds_per_op", static_cast<double>(n.rounds) / ops, "count");
    out.add("net.fast_path_frac", static_cast<double>(n.fast_path_ops) / ops, "frac");
    out.add("net.retx_per_kop", 1000.0 * static_cast<double>(n.retransmissions) / ops, "count");
    out.add("net.unavailable_ops", static_cast<double>(n.unavailable_ops), "count");
    out.add("net.solo_read_us", median(solo_r), "us");
    out.add("net.solo_write_us", median(solo_w), "us");
    out.add("net.solo_op_us", solo_op_us, "us");
    out.add("net.wait_frac", 1.0 - solo_op_us / loaded_p50_us, "frac");
    out.add("trace.net-quorum.overhead",
            (static_cast<double>(traced.ops) / traced.epoch_s) /
                (static_cast<double>(plain.ops) / plain.epoch_s),
            "ratio");
    out.add("trace.net-quorum.unattributed_frac",
            1.0 - static_cast<double>(traced.op_ns) / static_cast<double>(traced.worker_ns),
            "frac");
}

}  // namespace perfbench
