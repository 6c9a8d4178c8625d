#include "stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

namespace {

std::size_t nearest_rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  if (rank <= 1.0) return 0;
  return std::min(n, static_cast<std::size_t>(rank)) - 1;
}

}  // namespace

double exact_quantile(std::span<const double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted[nearest_rank_index(sorted.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - nearest_rank_index(n, q);
}

double highest_resolved_percentile(std::size_t n, std::size_t beyond) {
  for (int basis = 9999; basis >= 5000; --basis) {
    if (samples_beyond(n, basis / 10000.0) >= beyond) return basis / 100.0;
  }
  return 0.0;
}

std::vector<double> poisson_schedule(double rate, std::size_t count,
                                     std::uint64_t seed) {
  soteria::math::Rng rng(seed);
  std::vector<double> offsets;
  offsets.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate;
    offsets.push_back(t);
  }
  return offsets;
}

std::vector<std::size_t> skewed_picks(std::size_t items, std::size_t count,
                                      double skew, std::uint64_t seed) {
  std::vector<double> weight(items);
  double total = 0.0;
  for (std::size_t k = 0; k < items; ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), skew);
    total += weight[k];
  }
  // Largest-remainder quotas: item k gets floor or ceil of count * w_k.
  std::vector<std::size_t> quota(items);
  std::vector<std::pair<double, std::size_t>> remainder(items);
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < items; ++k) {
    const double exact = static_cast<double>(count) * weight[k] / total;
    quota[k] = static_cast<std::size_t>(exact);
    assigned += quota[k];
    remainder[k] = {exact - static_cast<double>(quota[k]), k};
  }
  std::stable_sort(
      remainder.begin(), remainder.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t j = 0; assigned < count; ++j, ++assigned) {
    ++quota[remainder[j % items].second];
  }
  std::vector<std::size_t> picks;
  picks.reserve(count);
  for (std::size_t k = 0; k < items; ++k) {
    picks.insert(picks.end(), quota[k], k);
  }
  soteria::math::Rng rng(seed);
  for (std::size_t i = picks.size(); i > 1; --i) {
    std::swap(picks[i - 1], picks[rng.index(i)]);
  }
  return picks;
}

bool same_verdict(const soteria::core::Verdict& a,
                  const soteria::core::Verdict& b) noexcept {
  return a.adversarial == b.adversarial && a.predicted == b.predicted &&
         std::bit_cast<std::uint64_t>(a.reconstruction_error) ==
             std::bit_cast<std::uint64_t>(b.reconstruction_error);
}

std::uint64_t verdict_digest(
    std::span<const soteria::core::Verdict> verdicts) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& v : verdicts) {
    mix(v.adversarial ? 1 : 0);
    mix(static_cast<std::uint64_t>(v.predicted));
    mix(std::bit_cast<std::uint64_t>(v.reconstruction_error));
  }
  return hash;
}

}  // namespace perfbench
