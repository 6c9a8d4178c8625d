// Helpers the benchmark's numbers rest on: exact quantiles over raw
// samples, the seeded open-loop arrival schedule, skewed request
// popularity, and a bit-exact verdict digest. Each has a test in
// perfbench/tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "math/rng.h"
#include "soteria/system.h"

namespace perfbench {

/// Nearest-rank quantile of raw samples: the value at sorted index
/// ceil(q * n) - 1 (clamped to [0, n - 1]). `q` in [0, 1]. Returns 0
/// for an empty input. Sorts a copy; the input is left untouched.
[[nodiscard]] double exact_quantile(std::span<const double> samples,
                                    double q);

/// Median of raw samples (nearest-rank, as exact_quantile).
[[nodiscard]] inline double median(std::span<const double> samples) {
  return exact_quantile(samples, 0.5);
}

/// Number of samples strictly above the nearest-rank q-quantile's
/// index, i.e. n - ceil(q * n). p99 is resolved when this is >= 10.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Highest percentile (0..100, in steps of 0.01) whose nearest-rank
/// index leaves at least `beyond` samples above it; 0 when n is too
/// small to resolve even the median that way.
[[nodiscard]] double highest_resolved_percentile(std::size_t n,
                                                 std::size_t beyond = 10);

/// Poisson arrival offsets in seconds: `count` cumulative sums of
/// exponential inter-arrival gaps with mean 1/rate, drawn from a
/// generator seeded with `seed`. Same seed, same schedule.
[[nodiscard]] std::vector<double> poisson_schedule(double rate,
                                                   std::size_t count,
                                                   std::uint64_t seed);

/// Zipf-like popularity: `count` picks over [0, items) where item k
/// has weight w_k = 1 / (k + 1)^skew and appears count * w_k / sum(w)
/// times, rounded by largest remainder, in a seeded order. Item 0 is
/// the most popular under every seed, and every seed has exactly the
/// same mix; the seed changes only the order.
[[nodiscard]] std::vector<std::size_t> skewed_picks(std::size_t items,
                                                    std::size_t count,
                                                    double skew,
                                                    std::uint64_t seed);

/// True when two verdicts agree on the flag, the family and every bit
/// of the detector score.
[[nodiscard]] bool same_verdict(const soteria::core::Verdict& a,
                                const soteria::core::Verdict& b) noexcept;

/// FNV-1a digest over (flag, family, score bits) of every verdict in
/// order; equal digests for bit-identical verdict streams.
[[nodiscard]] std::uint64_t verdict_digest(
    std::span<const soteria::core::Verdict> verdicts) noexcept;

}  // namespace perfbench
