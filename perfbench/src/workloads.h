// The benchmark's set-up, its four workloads and the traced
// decomposition of one request into the library's public calls.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "math/rng.h"
#include "soteria/system.h"
#include "store/feature_store.h"
#include "trace.h"

namespace perfbench {

/// The model every workload analyzes with: cpu_scaled_config trained on
/// the corpus below, as `soteria_cli train` does.
inline constexpr double kCorpusScale = 0.01;
inline constexpr std::uint64_t kCorpusSeed = 42;
inline constexpr const char* kPreset = "cpu_scaled_config";

/// A workload seed never used while the benchmark was developed; run it
/// with the same command to check a claim on unseen inputs.
inline constexpr std::uint64_t kHoldoutSeed = 90210;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metrics of the JSON result line: the end-to-end set untraced, the
  /// per-layer set traced.
  std::vector<Metric> metrics;
  /// Every named metric of the workload, for the human-readable report.
  std::vector<Metric> report;
  /// Why the workload exists and the measured share of its traffic with
  /// the targeted property; check failures.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what);
};

struct Setup {
  soteria::core::SoteriaSystem system;  ///< reloaded from disk
  soteria::dataset::Dataset data;
  double setup_s = 0.0;
  double corpus_s = 0.0;
  double train_s = 0.0;
  double load_s = 0.0;
};

/// Generates the corpus, trains cpu_scaled_config, saves the model under
/// `work_dir` and reloads it (so analysis starts with an empty labeling
/// cache, as `soteria_cli analyze` does).
[[nodiscard]] Setup run_setup(const std::string& work_dir);

/// Counts gathered by the traced decomposition.
struct LayerCounts {
  std::uint64_t label_hits = 0;
  std::uint64_t label_misses = 0;
  double label_miss_s = 0.0;  ///< time of labels() calls that missed
  std::uint64_t walk_steps = 0;
  std::uint64_t grams = 0;
  std::uint64_t extractions = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  double classifier_macs = 0.0;  ///< computed from layer shapes
};

/// `analyze_image` decomposed into the public calls it makes, in its
/// order: loader::load_image, frontend extract, LabelingCache::labels,
/// FeaturePipeline::extract_stored (with FeatureStore get/put done here
/// when `store` is set), AeDetector::sample_error, FamilyClassifier::
/// predict. Each call gets a span under one "request" span. Returns the
/// composed verdict, which must equal analyze_image's for the same
/// fresh generator and store state.
[[nodiscard]] soteria::core::Verdict traced_analyze_image(
    const soteria::core::SoteriaSystem& system,
    std::span<const std::uint8_t> bytes,
    const soteria::math::Rng& fresh_rng, soteria::store::FeatureStore* store,
    TraceRecorder& recorder, std::uint64_t request, LayerCounts& counts);

/// Multiply-accumulates of one FamilyClassifier::predict on a bundle of
/// `walks` per-walk vectors per labeling, from the CNN layer shapes.
[[nodiscard]] double classifier_macs(
    const soteria::core::FamilyClassifier& classifier, std::size_t walks);

[[nodiscard]] Result run_scan(Setup& setup, const Options& options);
[[nodiscard]] Result run_serve(Setup& setup, const Options& options);
[[nodiscard]] Result run_firmware(Setup& setup, const Options& options);
[[nodiscard]] Result run_attack(Setup& setup, const Options& options);

}  // namespace perfbench
