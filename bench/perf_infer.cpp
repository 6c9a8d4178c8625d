// perf_infer — before/after sweep of the compiled inference hot path.
//
// Two measurements, both against the reference oracles in
// tests/infer/naive_features.h:
//
//   * n-gram stage: per-walk TF-IDF production via per-window map
//     counting (count_grams_reference + tfidf_reference) versus the
//     fused count_into_vocab -> dense tfidf_into path the pipeline runs
//     (the vocabulary's DirectGramTable lookup), on identical walks.
//     Outputs are checked bitwise before timing.
//   * end-to-end: the map-based extraction + the layer-by-layer
//     reference forward pass (reference_analyze, parallelized like
//     analyze_batch) versus SoteriaSystem::analyze_batch (fused
//     extraction + Sequential::infer_into), at 1/2/4 threads, with
//     exact verdict identity asserted per thread count. The
//     "interpreted_*" / "frozen_*" result keys name these two sides.
//
// The sweep fails (non-zero exit) if any identity check fails, if the
// n-gram fast path is under 3x, or if analyze_batch is under 2x
// end-to-end at one thread. Results go to stdout,
// bench_results/perf_infer.txt, and the "perf_infer" section of the
// repo-root BENCH_perf.json (read-merge-write, other sections
// preserved). Scale/seed follow SOTERIA_SCALE / SOTERIA_SEED.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cfg/labeling.h"
#include "common/perf_json.h"
#include "dataset/generator.h"
#include "features/ngram.h"
#include "features/random_walk.h"
#include "features/vocabulary.h"
#include "infer/naive_features.h"
#include "math/rng.h"
#include "runtime/thread_pool.h"
#include "soteria/presets.h"
#include "soteria/system.h"

namespace soteria {
namespace {

constexpr double kRequiredNgramSpeedup = 3.0;
constexpr double kRequiredFrozenSpeedup = 2.0;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double, std::milli> delta =
      std::chrono::steady_clock::now() - start;
  return delta.count();
}

bool verdicts_identical(const std::vector<core::Verdict>& a,
                        const std::vector<core::Verdict>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].adversarial != b[i].adversarial ||
        a[i].reconstruction_error != b[i].reconstruction_error ||
        a[i].predicted != b[i].predicted) {
      return false;
    }
  }
  return true;
}

struct NgramResult {
  double reference_ms = 0.0;
  double flat_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

/// Times per-walk TF-IDF production (counting + weighting) over the
/// same walk set through the map-based reference and the fused dense
/// path. The walks come from real labeled CFGs so gram distributions
/// match what inference sees.
NgramResult run_ngram_stage(const core::SoteriaSystem& model,
                            const std::vector<cfg::Cfg>& cfgs,
                            std::uint64_t seed) {
  const auto& pipeline = model.pipeline();
  const auto& config = pipeline.config();

  struct WalkSet {
    const features::Vocabulary* vocab;
    std::vector<std::vector<cfg::Label>> walks;
  };
  WalkSet sets[2] = {{&pipeline.dbl_vocabulary(), {}},
                     {&pipeline.lbl_vocabulary(), {}}};

  math::Rng walk_rng(seed + 17);
  for (const auto& cfg : cfgs) {
    const auto labelings = cfg::label_both(cfg, config.labeling);
    auto dbl = features::labeled_walks(cfg, labelings.dbl, config.walk,
                                       walk_rng);
    auto lbl = features::labeled_walks(cfg, labelings.lbl, config.walk,
                                       walk_rng);
    for (auto& walk : dbl) sets[0].walks.push_back(std::move(walk));
    for (auto& walk : lbl) sets[1].walks.push_back(std::move(walk));
  }

  // Identity first: both paths must produce the same bytes per walk.
  bool identical = true;
  std::vector<std::uint32_t> dense;
  std::vector<float> out_reference;
  std::vector<float> out_flat;
  for (const auto& set : sets) {
    const std::size_t dim = set.vocab->size();
    dense.assign(dim, 0);
    out_reference.assign(dim, 0.0F);
    out_flat.assign(dim, 0.0F);
    for (const auto& walk : set.walks) {
      features::GramCounts counts;
      features::count_grams_reference(walk, config.gram_sizes, counts);
      out_reference =
          features::tfidf_reference(*set.vocab, counts, config.l2_normalize);

      std::fill(dense.begin(), dense.end(), 0U);
      const std::uint64_t windows = features::count_into_vocab(
          walk, config.gram_sizes, set.vocab->table(), dense);
      set.vocab->tfidf_into(dense, windows, out_flat, config.l2_normalize);

      if (std::memcmp(out_reference.data(), out_flat.data(),
                      dim * sizeof(float)) != 0) {
        identical = false;
      }
    }
  }

  // Timed loops: several repetitions over all walks; a checksum keeps
  // the work observable.
  constexpr std::size_t kReps = 5;
  double checksum = 0.0;

  const auto reference_start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (const auto& set : sets) {
      for (const auto& walk : set.walks) {
        features::GramCounts counts;
        features::count_grams_reference(walk, config.gram_sizes, counts);
        out_reference =
            features::tfidf_reference(*set.vocab, counts, config.l2_normalize);
        checksum += out_reference.empty() ? 0.0 : out_reference[0];
      }
    }
  }
  const double reference_ms = elapsed_ms(reference_start);

  const auto flat_start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (const auto& set : sets) {
      dense.assign(set.vocab->size(), 0);
      out_flat.assign(set.vocab->size(), 0.0F);
      for (const auto& walk : set.walks) {
        std::fill(dense.begin(), dense.end(), 0U);
        const std::uint64_t windows = features::count_into_vocab(
            walk, config.gram_sizes, set.vocab->table(), dense);
        set.vocab->tfidf_into(dense, windows, out_flat,
                              config.l2_normalize);
        checksum += out_flat.empty() ? 0.0 : out_flat[0];
      }
    }
  }
  const double flat_ms = elapsed_ms(flat_start);

  NgramResult result;
  result.reference_ms = reference_ms;
  result.flat_ms = flat_ms;
  result.speedup = flat_ms > 0.0 ? reference_ms / flat_ms : 0.0;
  result.identical = identical && checksum == checksum;  // keep checksum live
  return result;
}

struct EndToEndResult {
  std::size_t threads = 0;
  double interpreted_ms = 0.0;
  double frozen_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

EndToEndResult run_end_to_end(const core::SoteriaSystem& model,
                              const std::vector<cfg::Cfg>& cfgs,
                              std::size_t threads) {
  const math::Rng rng(911);
  constexpr std::size_t kReps = 3;

  core::AnalyzeOptions frozen_options;
  frozen_options.num_threads = threads;

  EndToEndResult result;
  result.threads = threads;
  result.interpreted_ms = 1e300;
  result.frozen_ms = 1e300;
  result.identical = true;

  std::vector<core::Verdict> interpreted;
  std::vector<core::Verdict> frozen;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const auto interpreted_start = std::chrono::steady_clock::now();
    interpreted = runtime::parallel_map(
        threads, cfgs.size(), [&](std::size_t i) {
          math::Rng sample_rng = rng.child(i);
          return core::reference_analyze(model, cfgs[i], sample_rng);
        });
    result.interpreted_ms =
        std::min(result.interpreted_ms, elapsed_ms(interpreted_start));

    const auto frozen_start = std::chrono::steady_clock::now();
    frozen = model.analyze_batch(cfgs, rng, frozen_options);
    result.frozen_ms = std::min(result.frozen_ms, elapsed_ms(frozen_start));

    result.identical =
        result.identical && verdicts_identical(interpreted, frozen);
  }
  result.speedup = result.frozen_ms > 0.0
                       ? result.interpreted_ms / result.frozen_ms
                       : 0.0;
  return result;
}

int run() {
  const char* scale_env = std::getenv("SOTERIA_SCALE");
  const char* seed_env = std::getenv("SOTERIA_SEED");
  const double scale = scale_env ? std::strtod(scale_env, nullptr) : 0.008;
  const std::uint64_t seed =
      seed_env ? std::strtoull(seed_env, nullptr, 10) : 42;

  dataset::DatasetConfig data_config;
  data_config.scale = scale;
  math::Rng rng(seed);
  const auto data = dataset::generate_dataset(data_config, rng);
  const auto config = core::tiny_config();
  const auto model = core::SoteriaSystem::train(data.train, config);

  std::vector<cfg::Cfg> base;
  base.reserve(data.test.size());
  for (const auto& sample : data.test) base.push_back(sample.cfg);
  std::printf("perf_infer: %zu test cfgs, scale %.3f, seed %llu\n",
              base.size(), scale, static_cast<unsigned long long>(seed));

  std::string report;
  std::map<std::string, double> json_values;

  const auto ngram = run_ngram_stage(model, base, seed);
  char line[200];
  std::snprintf(line, sizeof(line),
                "ngrams   reference %8.1f ms   flat %8.1f ms   %5.1fx%s\n",
                ngram.reference_ms, ngram.flat_ms, ngram.speedup,
                ngram.identical ? "" : "  IDENTITY-VIOLATION");
  report += line;
  std::printf("%s", line);
  json_values["ngrams_reference_ms"] = ngram.reference_ms;
  json_values["ngrams_flat_ms"] = ngram.flat_ms;
  json_values["ngrams_speedup"] = ngram.speedup;

  // Batch corpus: the test set repeated so each timed run is long
  // enough to measure; every index still draws its own walk RNG.
  std::vector<cfg::Cfg> cfgs;
  cfgs.reserve(base.size() * 4);
  for (std::size_t m = 0; m < 4; ++m) {
    cfgs.insert(cfgs.end(), base.begin(), base.end());
  }

  // One untimed pass warms the shared labeling cache so neither timed
  // path pays the one-off labeling cost.
  {
    core::AnalyzeOptions warm;
    warm.num_threads = 1;
    (void)model.analyze_batch(cfgs, math::Rng(911), warm);
  }

  bool all_identical = ngram.identical;
  double frozen_speedup_t1 = 0.0;
  for (const std::size_t threads : {1U, 2U, 4U}) {
    const auto e2e = run_end_to_end(model, cfgs, threads);
    all_identical = all_identical && e2e.identical;
    if (threads == 1) frozen_speedup_t1 = e2e.speedup;

    std::snprintf(line, sizeof(line),
                  "batch t%zu interpreted %6.1f ms   frozen %6.1f ms   "
                  "%5.1fx%s\n",
                  e2e.threads, e2e.interpreted_ms, e2e.frozen_ms,
                  e2e.speedup, e2e.identical ? "" : "  IDENTITY-VIOLATION");
    report += line;
    std::printf("%s", line);

    char key[40];
    std::snprintf(key, sizeof(key), "t%zu", e2e.threads);
    json_values[std::string("interpreted_") + key + "_ms"] =
        e2e.interpreted_ms;
    json_values[std::string("frozen_") + key + "_ms"] = e2e.frozen_ms;
    json_values[std::string("frozen_speedup_") + key] = e2e.speedup;
  }
  json_values["bit_identical"] = all_identical ? 1.0 : 0.0;

  const bool pass = all_identical &&
                    ngram.speedup >= kRequiredNgramSpeedup &&
                    frozen_speedup_t1 >= kRequiredFrozenSpeedup;
  std::snprintf(line, sizeof(line),
                "bit_identical=%s  ngrams=%.1fx (required %.0fx)  "
                "frozen_t1=%.1fx (required %.0fx)\n",
                all_identical ? "yes" : "NO", ngram.speedup,
                kRequiredNgramSpeedup, frozen_speedup_t1,
                kRequiredFrozenSpeedup);
  report += line;
  std::printf("%s", line);

  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::ofstream out("bench_results/perf_infer.txt");
  if (out) {
    out << report;
    std::printf("sweep written to bench_results/perf_infer.txt\n");
  }
  if (bench::update_perf_json("BENCH_perf.json", "perf_infer",
                              json_values)) {
    std::printf("sweep recorded in BENCH_perf.json\n");
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace soteria

int main() { return soteria::run(); }
