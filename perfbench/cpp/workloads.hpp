// perfbench: the four workloads. Each untimed entry point runs one workload
// end to end and fills the end-to-end metrics; each trace_* entry point
// runs that workload's traced segment and fills the per-layer metrics of
// the layers it exercises, plus its tracing overhead and unattributed
// share. Spans go into `buffers`, one per recording thread.
#pragma once

#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

void run_register_closed(const options& opt, outcome& out);
void run_stream_monitored(const options& opt, outcome& out);
void run_net_quorum(const options& opt, outcome& out);
void run_modelcheck_bloom(const options& opt, outcome& out);

void trace_register_closed(const options& opt, double seconds, outcome& out,
                           std::vector<span_buffer>& buffers);
void trace_stream_monitored(const options& opt, double seconds, outcome& out,
                            std::vector<span_buffer>& buffers);
void trace_net_quorum(const options& opt, double seconds, outcome& out,
                      std::vector<span_buffer>& buffers);
void trace_modelcheck_bloom(const options& opt, outcome& out,
                            std::vector<span_buffer>& buffers);

}  // namespace perfbench
