#include "attack/targets.h"

#include <algorithm>
#include <string>

#include "soteria/error.h"

namespace soteria::attack {

namespace {

std::vector<const dataset::Sample*> require_members(
    std::span<const dataset::Sample> corpus, dataset::Family family,
    const char* what) {
  auto members = dataset::family_members(corpus, family);
  if (members.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      std::string(what) + ": corpus has no samples of " +
                          dataset::family_name(family));
  }
  return members;
}

}  // namespace

const dataset::Sample& select_target(
    std::span<const dataset::Sample> corpus, dataset::Family family,
    dataset::TargetSize size) {
  return dataset::target_member(
      require_members(corpus, family, "select_target"), size);
}

std::vector<const dataset::Sample*> spread_targets(
    std::span<const dataset::Sample> corpus, dataset::Family family,
    std::size_t count) {
  const auto members = require_members(corpus, family, "spread_targets");
  if (count == 0 || members.size() <= count) return members;
  std::vector<const dataset::Sample*> picked;
  picked.reserve(count);
  // Evenly spaced indices over [0, size-1], endpoints included.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index =
        count == 1 ? 0 : i * (members.size() - 1) / (count - 1);
    picked.push_back(members[index]);
  }
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  return picked;
}

}  // namespace soteria::attack
