// bloom87: declared memory-order contracts of the register substrates.
//
// Every substrate register picks its std::memory_order arguments by hand,
// and Bloom's atomicity proof (Section 7) silently assumes those choices
// add up to "the base registers are atomic". This table is the
// machine-checked statement of that intent. Three consumers:
//
//  * the memory-order lint (analysis/mo_lint.hpp, examples/mo_lint.cpp)
//    scans each audited file's atomic call sites against the per-file
//    site table below and fails CI on undeclared sites, orders outside the
//    declared set, stale table rows, or a declared discipline inconsistent
//    with the allowed orders;
//  * the happens-before race detector (analysis/race_detector.hpp) maps
//    each real-access location of a harness registry composition to its
//    synchronization class: does the access publish/acquire ordering
//    (sync), run inside the composition-wide lock (lock_region), stay
//    atomic but non-synchronizing (relaxed), or is it not atomic at all
//    (plain -- a data race whenever concurrent and conflicting)?
//  * the lockset second opinion (analysis/lockset.hpp) additionally reads
//    each plain site's declared GUARD set -- the handshake locations whose
//    pseudo-locks are supposed to cover it (Simpson's four-slot slots).
//
// docs/ANALYSIS.md documents the table format and how the analyses
// consume it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace bloom87::analysis {

/// How one shared-memory access relates to C++ happens-before.
enum class sync_class : std::uint8_t {
    plain,    ///< non-atomic: concurrent conflicting accesses are a data race
    relaxed,  ///< atomic but non-synchronizing (no happens-before edge)
    sync,     ///< release store / acquire load / seq_cst: creates HB edges
    lock_region,  ///< plain access serialized by the composition-wide lock
};

[[nodiscard]] const char* sync_class_name(sync_class c) noexcept;

/// The declared DISCIPLINE of one atomic call site: not just how strong its
/// orders are (sync_class answers that) but which synchronization idiom the
/// site belongs to. Per-site disciplines replaced the per-composition
/// blanket declarations: each audited site says what role it plays.
enum class site_discipline : std::uint8_t {
    plain_data,     ///< non-atomic data (no call sites; declared per file)
    relaxed_stat,   ///< relaxed atomic statistics / non-synchronizing word
    acq_rel,        ///< release/acquire (or seq_cst) publication pair
    seqlock_phase,  ///< seqlock sequence word: phase parity + publication
    guarded,        ///< plain data covered by a declared handshake set
};

[[nodiscard]] const char* site_discipline_name(site_discipline d) noexcept;

/// The synchronization class a discipline implies for the detectors.
[[nodiscard]] sync_class discipline_sync_class(site_discipline d) noexcept;

/// One declared atomic call site: the receiving object exactly as written
/// in the source (after stripping a subscript), the operation, the set of
/// memory_order_* suffixes the contract permits there, and the site's
/// declared discipline.
struct site_contract {
    std::string_view object;  ///< receiver text; "" for atomic_thread_fence
    std::string_view op;      ///< load, store, exchange, fetch_add, fence
    std::string_view orders;  ///< comma-separated, e.g. "acquire,relaxed"
    site_discipline discipline{site_discipline::acq_rel};
};

/// All declared sites of one audited file. A file listed with zero
/// sites declares "no atomic call sites at all" (plain.hpp, the net
/// protocol .cpp files running under the bus lock): any atomic access the
/// lint finds there is a contract violation.
struct file_contract {
    std::string_view file;  ///< bare file name
    std::span<const site_contract> sites;
    /// Directory under the source root ("src") holding the file. Most
    /// audited files are registers; the harness's collection structures
    /// live in histories/, the message-passing layer in net/.
    std::string_view dir{"registers"};
};

/// The audited files, one entry per file.
[[nodiscard]] std::span<const file_contract> register_contracts() noexcept;

/// Looks up one file's contract; nullptr when the file is not audited.
[[nodiscard]] const file_contract* find_file_contract(
    std::string_view file) noexcept;

/// Per-LOCATION discipline of one registry composition's real accesses:
/// the gamma `reg` index, its synchronization class, and -- for guarded
/// plain sites -- the bitmask of guard locations whose pseudo-locks are
/// declared to cover it.
struct registry_site {
    std::uint8_t location{0};
    sync_class cls{sync_class::sync};
    std::uint64_t guards{0};
};

/// One harness composition's real-access contract: a per-location site
/// table plus the blanket class applied to any location without a row
/// (compositions whose locations all synchronize the same way keep an
/// empty table).
struct registry_contract {
    std::string_view name;  ///< registry spelling ("bloom/seqlock")
    sync_class blanket{sync_class::sync};
    std::span<const registry_site> sites{};

    /// Class of one location: its site row, else the blanket.
    [[nodiscard]] sync_class class_of(std::uint8_t location) const noexcept;
    /// Guard mask of one location (0 unless a row declares guards).
    [[nodiscard]] std::uint64_t guards_of(std::uint8_t location) const noexcept;
};

/// Looks up a composition's contract; nullptr when the composition has no
/// declared contract (the race checker then skips with an explicit reason).
[[nodiscard]] const registry_contract* find_registry_contract(
    std::string_view register_name) noexcept;

/// Blanket synchronization class of a composition's real accesses
/// (back-compat summary of find_registry_contract()->blanket). nullopt when
/// the composition has no declared contract.
[[nodiscard]] std::optional<sync_class> registry_sync_class(
    std::string_view register_name) noexcept;

}  // namespace bloom87::analysis
