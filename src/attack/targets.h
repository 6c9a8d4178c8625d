// Injection-target selection for attackers.
//
// dataset::select_targets picks graph-level GEA targets (CFG only);
// attackers additionally need the target's *binary* so the AE stays
// executable, and need deterministic by-bucket selection from whatever
// corpus the attack runs against. These helpers select whole Samples.
#pragma once

#include <span>
#include <vector>

#include "dataset/adversarial.h"
#include "dataset/sample.h"

namespace soteria::attack {

/// The `size`-bucket target of `family` (paper Section IV-A's
/// Small/Medium/Large), picked by dataset::target_member like
/// dataset::select_targets. Throws core::Error{kInvalidArgument} when
/// the family has no members.
[[nodiscard]] const dataset::Sample& select_target(
    std::span<const dataset::Sample> corpus, dataset::Family family,
    dataset::TargetSize size);

/// Up to `count` members of `family` spread evenly across the
/// dataset::family_members order (always including the extremes when
/// count >= 2) — the candidate pool guided attackers score. Throws
/// core::Error{kInvalidArgument} when the family has no members.
[[nodiscard]] std::vector<const dataset::Sample*> spread_targets(
    std::span<const dataset::Sample> corpus, dataset::Family family,
    std::size_t count);

}  // namespace soteria::attack
