#include "linearizability/normalize.hpp"

#include <algorithm>
#include <utility>

namespace bloom87 {

normalized_view normalize_view(const std::vector<operation>& raw,
                               value_t initial, bool require_unique_writes) {
    normalized_view out;

    // Every write value (kept or dropped) with its raw index, sorted; and
    // every value a completed read returned, sorted. Two flat arrays
    // instead of node-based sets: lookups are binary searches.
    std::vector<std::pair<value_t, std::size_t>> written;
    std::vector<value_t> read_values;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i].kind == op_kind::write) {
            written.emplace_back(raw[i].value, i);
        } else if (raw[i].complete()) {
            read_values.push_back(raw[i].value);
        }
    }
    std::sort(written.begin(), written.end());
    std::sort(read_values.begin(), read_values.end());

    if (require_unique_writes) {
        // The defect names the first write, in raw order, that writes the
        // initial value or repeats an earlier write's value. Sorted by
        // (value, index), every entry of an equal-value run but its first
        // is such a repeat.
        std::size_t first_bad = raw.size();
        for (std::size_t k = 0; k < written.size(); ++k) {
            const bool bad =
                written[k].first == initial ||
                (k > 0 && written[k - 1].first == written[k].first);
            if (bad) first_bad = std::min(first_bad, written[k].second);
        }
        if (first_bad != raw.size()) {
            out.defect = raw[first_bad].value == initial
                             ? "write of the initial value breaks uniqueness"
                             : "duplicate write value; checkers require "
                               "unique writes";
            return out;
        }
    }

    out.ops.reserve(raw.size());
    for (const operation& op : raw) {
        if (!op.complete()) {
            if (op.kind == op_kind::read) continue;  // pending read: drop
            // Observed crash-write: must take effect. Its response is
            // already no_event, which is +infinity in comparisons.
            if (std::binary_search(read_values.begin(), read_values.end(),
                                   op.value)) {
                out.ops.push_back(&op);
            }
            continue;  // unobserved crash-write: drop
        }
        out.ops.push_back(&op);
    }

    // A read returning a value that no write (kept or dropped) ever wrote,
    // and that is not the initial value, can never linearize; catch it here
    // with a clear message instead of a generic checker failure.
    const auto by_value = [](const std::pair<value_t, std::size_t>& w,
                             value_t v) { return w.first < v; };
    for (const operation* op : out.ops) {
        if (op->kind != op_kind::read || op->value == initial) continue;
        const auto it = std::lower_bound(written.begin(), written.end(),
                                         op->value, by_value);
        if (it == written.end() || it->first != op->value) {
            out.defect = "read returned a value no write produced";
            return out;
        }
    }
    return out;
}

normalized_history normalize_history(const std::vector<operation>& raw,
                                     value_t initial,
                                     bool require_unique_writes) {
    const normalized_view view =
        normalize_view(raw, initial, require_unique_writes);
    normalized_history out;
    out.initial = initial;
    out.defect = view.defect;
    out.ops.reserve(view.ops.size());
    for (const operation* op : view.ops) out.ops.push_back(*op);
    return out;
}

}  // namespace bloom87
