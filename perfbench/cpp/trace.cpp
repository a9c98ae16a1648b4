#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

/// Self time of every span: duration minus the summed durations of its
/// direct children (children of one span run one after another on the
/// span's thread, so they never overlap).
std::vector<std::int64_t> self_times(const std::vector<span>& spans) {
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] = static_cast<std::int64_t>(spans[i].end_ns - spans[i].start_ns);
    }
    for (const span& s : spans) {
        if (s.parent >= 0) {
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<std::int64_t>(s.end_ns - s.start_ns);
        }
    }
    return self;
}

}  // namespace

std::string check_spans(const std::vector<span_buffer>& buffers) {
    for (const span_buffer& b : buffers) {
        const std::vector<span>& spans = b.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const span& s = spans[i];
            const std::string where = std::to_string(b.thread()) + "." +
                                      std::to_string(i) + " (" + s.name + ")";
            if (s.end_ns < s.start_ns) return "span " + where + " ends before it starts";
            if (s.parent >= static_cast<std::int64_t>(i)) {
                return "span " + where + " names a later parent";
            }
            if (s.parent >= 0) {
                const span& p = spans[static_cast<std::size_t>(s.parent)];
                if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
                    return "span " + where + " lies outside its parent";
                }
            }
        }
        const std::vector<std::int64_t> self = self_times(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (self[i] < 0) {
                return "span " + std::to_string(b.thread()) + "." +
                       std::to_string(i) + " (" + spans[i].name +
                       ") has negative self time";
            }
        }
    }
    return "";
}

bool write_spans(const std::string& path, const std::vector<span_buffer>& buffers) {
    std::ofstream out(path);
    if (!out) return false;
    for (const span_buffer& b : buffers) {
        const std::vector<span>& spans = b.spans();
        const std::vector<std::int64_t> self = self_times(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const span& s = spans[i];
            out << "{\"id\":\"" << b.thread() << '.' << i << "\",\"parent\":";
            if (s.parent < 0) {
                out << "null";
            } else {
                out << '"' << b.thread() << '.' << s.parent << '"';
            }
            out << ",\"thread\":" << b.thread() << ",\"op\":" << s.op
                << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
                << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i]
                << "}\n";
        }
    }
    return static_cast<bool>(out);
}

}  // namespace perfbench
