#include "linearizability/fast_register.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <utility>

#include "linearizability/normalize.hpp"
#include "linearizability/spec.hpp"

namespace bloom87 {
namespace {

// Per-processor operation timeline. A processor is sequential, so both
// invocation and response positions are strictly increasing down each list.
struct processor_ops {
    processor_id proc{0};
    std::vector<std::size_t> writes;           // all writes, in program order
    std::vector<std::size_t> complete_writes;  // responded only (resp monotone)
    std::vector<std::size_t> complete_reads;   // responded only
};

}  // namespace

fast_check_result check_fast(const std::vector<operation>& raw, value_t initial) {
    fast_check_result out;
    const normalized_view norm = normalize_view(raw, initial);
    if (!norm.ok()) {
        out.defect = norm.defect;
        return out;
    }
    const std::vector<const operation*>& ops = norm.ops;
    const std::size_t n = ops.size();

    // --- node numbering: 0 = virtual initial write, 1.. = real writes ---
    // node[i] is op i's own node for a write and its dictating write's
    // node for a read; values map to nodes through one sorted array.
    std::vector<std::size_t> write_ops;  // node-1 -> op index
    std::vector<std::pair<value_t, std::size_t>> node_of_value;
    for (std::size_t i = 0; i < n; ++i) {
        if (ops[i]->kind == op_kind::write) {
            node_of_value.emplace_back(ops[i]->value, write_ops.size() + 1);
            write_ops.push_back(i);
        }
    }
    std::sort(node_of_value.begin(), node_of_value.end());
    const std::size_t num_nodes = write_ops.size() + 1;

    std::vector<std::size_t> node(n);
    for (std::size_t i = 0; i < n; ++i) {
        const operation& op = *ops[i];
        if (op.kind == op_kind::read && op.value == initial) {
            node[i] = 0;
            continue;
        }
        // normalize guarantees every read value names a kept write
        node[i] = std::lower_bound(node_of_value.begin(), node_of_value.end(),
                                   std::pair{op.value, std::size_t{0}})
                      ->second;
    }

    // --- local condition: no read from the future ---
    for (std::size_t i = 0; i < n; ++i) {
        const operation& op = *ops[i];
        if (op.kind != op_kind::read) continue;
        const std::size_t d = node[i];
        if (d != 0 && op.responded < ops[write_ops[d - 1]]->invoked) {
            out.diagnosis = "read returned a value written only after it finished";
            return out;
        }
    }

    // --- group per processor (a handful: a linear scan finds each) ---
    std::vector<processor_ops> per_proc;
    for (std::size_t i = 0; i < n; ++i) {
        const operation& op = *ops[i];
        auto it = std::find_if(
            per_proc.begin(), per_proc.end(),
            [&](const processor_ops& po) { return po.proc == op.id.processor; });
        if (it == per_proc.end()) {
            it = per_proc.insert(per_proc.end(), processor_ops{});
            it->proc = op.id.processor;
        }
        if (op.kind == op_kind::write) it->writes.push_back(i);
        if (op.complete()) {
            (op.kind == op_kind::write ? it->complete_writes
                                       : it->complete_reads).push_back(i);
        }
    }
    for (processor_ops& po : per_proc) {
        auto by_inv = [&](std::size_t a, std::size_t b) {
            return ops[a]->invoked < ops[b]->invoked;
        };
        std::sort(po.writes.begin(), po.writes.end(), by_inv);
        std::sort(po.complete_writes.begin(), po.complete_writes.end(), by_inv);
        std::sort(po.complete_reads.begin(), po.complete_reads.end(), by_inv);
    }

    // Last write of `po` whose response precedes `x`, or none. Pending
    // (crashed) writes never respond, so only complete writes qualify --
    // and over those, responses are monotone in program order.
    auto last_write_before = [&](const processor_ops& po,
                                 event_pos x) -> std::optional<std::size_t> {
        auto it = std::partition_point(
            po.complete_writes.begin(), po.complete_writes.end(),
            [&](std::size_t w) { return ops[w]->responded < x; });
        if (it == po.complete_writes.begin()) return std::nullopt;
        return *(it - 1);
    };
    // First write of `po` invoked after `x`, or none.
    auto first_write_after = [&](const processor_ops& po,
                                 event_pos x) -> std::optional<std::size_t> {
        auto it = std::partition_point(
            po.writes.begin(), po.writes.end(),
            [&](std::size_t w) { return ops[w]->invoked <= x; });
        if (it == po.writes.end()) return std::nullopt;
        return *it;
    };
    auto last_read_before = [&](const processor_ops& po,
                                event_pos x) -> std::optional<std::size_t> {
        auto it = std::partition_point(
            po.complete_reads.begin(), po.complete_reads.end(),
            [&](std::size_t r) { return ops[r]->responded < x; });
        if (it == po.complete_reads.begin()) return std::nullopt;
        return *(it - 1);
    };

    // --- build the constraint graph: an edge list, then compressed rows ---
    // (node ids fit 32 bits: a history holds far fewer than 2^32 writes)
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(num_nodes + n * per_proc.size());
    auto add_edge = [&](std::size_t from, std::size_t to) {
        if (from != to) {
            edges.emplace_back(static_cast<std::uint32_t>(from),
                               static_cast<std::uint32_t>(to));
        }
    };
    for (std::size_t m = 1; m < num_nodes; ++m) add_edge(0, m);  // initial first

    for (std::size_t i = 0; i < n; ++i) {
        const operation& op = *ops[i];
        const std::size_t d = node[i];
        if (op.kind == op_kind::write) {
            for (const processor_ops& po : per_proc) {
                if (auto w1 = last_write_before(po, op.invoked)) {  // (a)
                    add_edge(node[*w1], d);
                }
            }
        } else {
            for (const processor_ops& po : per_proc) {
                if (auto wb = last_write_before(po, op.invoked)) {  // (b)
                    add_edge(node[*wb], d);
                }
                if (auto wc = first_write_after(po, op.responded)) {  // (c)
                    add_edge(d, node[*wc]);
                }
                if (auto rb = last_read_before(po, op.invoked)) {  // (d)
                    add_edge(node[*rb], d);
                }
            }
        }
    }
    // The successors of node m are succ[first[m] .. first[m + 1]).
    std::vector<std::size_t> first(num_nodes + 1, 0);
    std::vector<std::size_t> indegree(num_nodes, 0);
    for (const auto& [from, to] : edges) {
        ++first[from + 1];
        ++indegree[to];
    }
    std::partial_sum(first.begin(), first.end(), first.begin());
    std::vector<std::uint32_t> succ(edges.size());
    {
        std::vector<std::size_t> next(first.begin(), first.end() - 1);
        for (const auto& [from, to] : edges) succ[next[from]++] = to;
    }

    // --- topological sort (Kahn) ---
    std::vector<std::size_t> topo;
    topo.reserve(num_nodes);
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<>> ready;
    for (std::size_t m = 0; m < num_nodes; ++m) {
        if (indegree[m] == 0) ready.push(m);
    }
    while (!ready.empty()) {
        const std::size_t m = ready.top();
        ready.pop();
        topo.push_back(m);
        for (std::size_t k = first[m]; k < first[m + 1]; ++k) {
            if (--indegree[succ[k]] == 0) ready.push(succ[k]);
        }
    }
    if (topo.size() != num_nodes) {
        out.diagnosis =
            "cyclic write-order constraints (e.g. an overwritten value reappeared)";
        return out;
    }

    // --- construct the witness linearization ---
    // Each node's write, then the reads it dictates in invocation order.
    std::vector<std::size_t> rank(num_nodes);
    for (std::size_t p = 0; p < num_nodes; ++p) rank[topo[p]] = p;
    std::vector<std::size_t> reads;
    for (std::size_t i = 0; i < n; ++i) {
        if (ops[i]->kind == op_kind::read) reads.push_back(i);
    }
    std::sort(reads.begin(), reads.end(), [&](std::size_t a, std::size_t b) {
        return std::pair{rank[node[a]], ops[a]->invoked} <
               std::pair{rank[node[b]], ops[b]->invoked};
    });
    std::vector<const operation*> seq;
    seq.reserve(n);
    auto r = reads.begin();
    for (std::size_t m : topo) {
        if (m != 0) seq.push_back(ops[write_ops[m - 1]]);
        for (; r != reads.end() && node[*r] == m; ++r) seq.push_back(ops[*r]);
    }

    // --- re-verify the witness (guards against any gap in the theory) ---
    if (!satisfies_register_property(seq, initial)) {
        out.defect = "internal error: witness violates the register property";
        return out;
    }
    event_pos min_resp_suffix = no_event;
    for (std::size_t k = seq.size(); k-- > 0;) {
        if (min_resp_suffix < seq[k]->invoked) {
            out.defect = "internal error: witness violates real-time order";
            return out;
        }
        min_resp_suffix = std::min(min_resp_suffix, seq[k]->responded);
    }

    out.linearizable = true;
    out.witness.reserve(seq.size());
    for (const operation* op : seq) out.witness.push_back(*op);
    return out;
}

}  // namespace bloom87
