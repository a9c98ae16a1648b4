// perfbench: in-memory spans for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// library's layers; the library itself is not instrumented. Each thread
// owns one bounded span_buffer (no sharing, no locks); a span's parent is
// an index into the same buffer, because a span and the span that caused
// it always run on one thread here. Buffers are written out as JSON lines
// when the run ends. Layer totals do not depend on these buffers: the
// workloads accumulate them for every operation, and record full spans for
// a sample of operations only, which bounds memory on long runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct span {
    const char* name{""};
    std::int64_t parent{-1};  ///< index in the same buffer; -1 = root
    std::uint64_t op{0};      ///< operation id (per thread), 0 = none
    std::uint64_t start_ns{0};
    std::uint64_t end_ns{0};
};

class span_buffer {
public:
    span_buffer(std::uint32_t thread, std::size_t capacity) : thread_(thread) {
        spans_.reserve(capacity);
    }

    /// True when `n` more spans fit; callers sample whole operations so a
    /// recorded child never lacks its parent.
    [[nodiscard]] bool room(std::size_t n) const noexcept {
        return spans_.size() + n <= spans_.capacity();
    }

    /// Opens a span; close() sets its end. Returns its index.
    std::int64_t open(const char* name, std::int64_t parent, std::uint64_t op,
                      std::uint64_t start_ns) {
        spans_.push_back({name, parent, op, start_ns, start_ns});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }
    void close(std::int64_t idx, std::uint64_t end_ns) noexcept {
        spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
    }
    std::int64_t add(const char* name, std::int64_t parent, std::uint64_t op,
                     std::uint64_t start_ns, std::uint64_t end_ns) {
        spans_.push_back({name, parent, op, start_ns, end_ns});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    [[nodiscard]] std::uint32_t thread() const noexcept { return thread_; }
    [[nodiscard]] const std::vector<span>& spans() const noexcept {
        return spans_;
    }

private:
    std::uint32_t thread_;
    std::vector<span> spans_;
};

/// Checks that every span ends at or after its start, lies inside its
/// parent, and has non-negative self time (duration minus the part its
/// children cover). Returns "" when all hold, else the first offence.
[[nodiscard]] std::string check_spans(const std::vector<span_buffer>& buffers);

/// Writes every span as one JSON line: id, parent, thread, op, name,
/// start_ns, end_ns, self_ns. Ids are "<thread>.<index>". False on I/O
/// failure.
bool write_spans(const std::string& path, const std::vector<span_buffer>& buffers);

}  // namespace perfbench
