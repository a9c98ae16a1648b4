// bloom87: history normalization shared by both generic checkers.
//
// Converts a raw operation list (possibly containing pending/crashed
// operations) into the form the checkers consume:
//
//  * pending READS are dropped -- they returned nothing, so any
//    linearization of the rest extends to them trivially;
//  * pending WRITES whose value was returned by some read are kept with an
//    infinite response time (they must have taken effect);
//  * pending writes nobody read are dropped -- sound for registers: an
//    unobserved write with an open interval can always be appended to the
//    linearization after every operation that overlaps it.
//
// Also validates the unique-writes discipline the fast checker relies on.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "histories/history.hpp"

namespace bloom87 {

struct normalized_history {
    std::vector<operation> ops;     ///< complete ops only (resp may be "infinity")
    value_t initial{0};
    std::optional<std::string> defect;  ///< set if the raw history is malformed

    [[nodiscard]] bool ok() const noexcept { return !defect.has_value(); }
};

/// See file comment. `require_unique_writes` additionally rejects histories
/// where two writes carry the same value (the fast checker's precondition).
[[nodiscard]] normalized_history normalize_history(
    const std::vector<operation>& raw, value_t initial,
    bool require_unique_writes = true);

/// normalize_history without the copies: `ops` points into `raw`.
struct normalized_view {
    std::vector<const operation*> ops;  ///< in raw order
    std::optional<std::string> defect;

    [[nodiscard]] bool ok() const noexcept { return !defect.has_value(); }
};

[[nodiscard]] normalized_view normalize_view(
    const std::vector<operation>& raw, value_t initial,
    bool require_unique_writes = true);

}  // namespace bloom87
