#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <numeric>
#include <memory>
#include <sstream>
#include <thread>

#include "attack/attacker.h"
#include "attack/oracle.h"
#include "attack/registry.h"
#include "cfg/labeling_cache.h"
#include "eval/matrix.h"
#include "frontend/frontend.h"
#include "isa/codegen.h"
#include "loader/elf.h"
#include "loader/elf_writer.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "runtime/thread_pool.h"
#include "serve/sharded_service.h"
#include "soteria/presets.h"
#include "stats.h"

namespace perfbench {

namespace core = soteria::core;
namespace math = soteria::math;
using Clock = std::chrono::steady_clock;

namespace {

// ---- Workload constants (fixed at the commit that added the benchmark;
// changing one changes the benchmark, so it is its own change). ----

// scan: the held-out split repeated in chunks of 4 copies; the run
// analyzes kScanChunksPerSecond chunks per requested second in each pass.
constexpr std::size_t kScanCopiesPerChunk = 4;
constexpr std::size_t kScanChunksPerSecond = 2;
// Clean-traffic floors, from the seed commit's model (34/34 correct,
// 1/34 flagged on its own held-out split), with room for walk noise
// across repeated draws.
constexpr double kScanAccuracyFloor = 0.95;
constexpr double kScanFlagRateCeiling = 0.10;

// serve: open-loop Poisson phases. The 1-shard, 3-worker capacity
// measured at the seed commit on 4 hardware threads ranged 300-360
// requests/s between runs (a shared host), so kServeLo sits at about
// half of it and kServeHi at about 70%, where no run fails. serve.max_rps
// is found by binary search over the fixed ladder kServeHi *
// kServeLadderStep^k, k = 0 .. kServeLadderRungs - 1 (up to about 3.2x hi),
// which assumes pass/fail is monotone in the rate. Every phase sends
// enough requests that p99 has at least ten samples beyond it.
constexpr double kServeLo = 150.0;
constexpr double kServeHi = 225.0;
constexpr double kServeLadderStep = 1.08;
constexpr int kServeLadderRungs = 16;
constexpr std::size_t kServePhaseRequests = 1000;
constexpr double kServeP99LimitMs = 300.0;
constexpr double kServeSkew = 1.1;
// Serve's `throughput` on the JSON result line is the saturated capacity:
// a closed loop keeps kServeSaturationInFlight requests outstanding (well
// under the default queue depth of 256, so none is rejected) for a window
// of kServeSaturationWindow requests. kServeSaturationWindows windows run
// spread over the workload, one before the first open-loop phase and one
// after each, and the figure is their median, so a stall of the shared
// host moves a window or two, not the figure. It is far steadier run to
// run than max_rps, whose ladder search moves by whole rungs.
constexpr std::size_t kServeSaturationInFlight = 48;
constexpr std::size_t kServeSaturationWindow = 400;
constexpr std::size_t kServeSaturationWindows = 7;
// Every kServeCheckStride-th completed request of the lo/hi phases is
// re-analyzed serially and must match the service's verdict.
constexpr std::size_t kServeCheckStride = 20;

// firmware: one batch of unique large binaries whose sizes sit at the
// midpoint quantiles of a truncated Pareto law (shape 1.1) over [500,
// 4000] blocks, so every seed has the same size mix; the seed changes
// the programs. The sizes come in a fixed interleaved order (quantile
// i * stride mod n, stride coprime with n), so the largest is neither
// first nor last. kFirmwarePerSecond binaries per requested second.
constexpr double kFirmwareMinBlocks = 500.0;
constexpr double kFirmwareMaxBlocks = 4000.0;
constexpr double kFirmwareShape = 1.1;
constexpr double kFirmwareBlocksPerFunction = 18.0;
constexpr std::size_t kFirmwarePerSecond = 12;
// The traced run decomposes every kFirmwareTraceStride-th binary, which
// still covers the whole size range.
constexpr std::size_t kFirmwareTraceStride = 4;
constexpr std::size_t kFirmwareChecks = 6;

// attack: the CLI's default eval-matrix grid, repeated with fresh matrix
// seeds; 6 victims per cell as `soteria_cli eval-matrix`.
constexpr std::size_t kAttackVictimsPerCell = 6;
constexpr double kAttackMatricesPerSecond = 0.4;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t nproc() { return soteria::runtime::hardware_threads(); }

soteria::cfg::Cfg decode(std::span<const std::uint8_t> bytes) {
  const auto image = soteria::loader::load_image(bytes);
  return soteria::frontend::resolve_frontend(
             soteria::frontend::FrontendRegistry::builtin(), image)
      .extract(image);
}

std::vector<std::vector<std::uint8_t>> wrap_split(
    const std::vector<soteria::dataset::Sample>& split) {
  std::vector<std::vector<std::uint8_t>> images;
  images.reserve(split.size());
  for (const auto& sample : split) {
    if (sample.binary.empty()) {
      throw std::runtime_error("held-out sample without a binary");
    }
    images.push_back(soteria::loader::write_elf(sample.binary));
  }
  return images;
}

std::shared_ptr<soteria::store::FeatureStore> fresh_store(
    const std::string& dir) {
  std::filesystem::remove_all(dir);
  // Unbounded, so the warm pass hits every entry the cold pass wrote.
  return std::make_shared<soteria::store::FeatureStore>(
      soteria::store::StoreConfig{dir, 0});
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

/// A verdict stream's digest, so runs of two commits can be compared for
/// bit-identical outputs.
std::string digest_note(const std::string& what,
                        std::span<const core::Verdict> verdicts) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "verdict digest %s: %016llx over %zu verdicts", what.c_str(),
                static_cast<unsigned long long>(verdict_digest(verdicts)),
                verdicts.size());
  return buffer;
}

/// One bytes-to-verdict request of a traced or per-request run.
struct Item {
  std::span<const std::uint8_t> bytes;
  math::Rng rng;
};

void clear_label_cache(const core::SoteriaSystem& system) {
  if (const auto& cache = system.pipeline().labeling_cache()) cache->clear();
}

struct Batch {
  std::vector<core::Verdict> verdicts;
  double wall_s = 0.0;  ///< decode + analyze_batch
};

/// Bytes to verdict for a batch: decode every item (load_image + front
/// end), then one analyze_batch on `threads` threads with `store`.
Batch decode_and_analyze(
    const core::SoteriaSystem& system, std::span<const Item> items,
    std::size_t threads,
    std::shared_ptr<soteria::store::FeatureStore> store = nullptr) {
  const auto start = Clock::now();
  std::vector<soteria::cfg::Cfg> cfgs;
  std::vector<math::Rng> rngs;
  cfgs.reserve(items.size());
  rngs.reserve(items.size());
  for (const auto& item : items) {
    cfgs.push_back(decode(item.bytes));
    rngs.push_back(item.rng);
  }
  std::vector<const soteria::cfg::Cfg*> pointers;
  for (const auto& cfg : cfgs) pointers.push_back(&cfg);
  core::AnalyzeOptions options;
  options.num_threads = threads;
  options.feature_store = std::move(store);
  Batch batch;
  batch.verdicts = system.analyze_batch(pointers, rngs, options);
  batch.wall_s = seconds_since(start);
  return batch;
}

/// runtime.parallel_efficiency: the requests' time on one thread over
/// `threads` times their wall time on `threads` threads. The 1-thread
/// batch starts from an empty labeling cache and a fresh store, as the
/// measured batch did.
double parallel_efficiency(
    const core::SoteriaSystem& system, std::span<const Item> items,
    std::shared_ptr<soteria::store::FeatureStore> store, std::size_t threads,
    double wall_s) {
  clear_label_cache(system);
  const auto serial = decode_and_analyze(system, items, 1, std::move(store));
  return ratio(serial.wall_s, static_cast<double>(threads) * wall_s);
}

/// The same requests through analyze_image (untraced) and through
/// traced_analyze_image, alternating per request so that machine noise
/// hits both alike. The two systems are separate loads of one model, so
/// each keeps its own labeling cache and sees the same cache states.
struct Comparison {
  std::vector<core::Verdict> plain;
  std::vector<core::Verdict> traced;
  double plain_s = 0.0;
  double traced_s = 0.0;
};

Comparison compare_serial(
    const core::SoteriaSystem& plain, const core::SoteriaSystem& traced,
    std::span<const Item> items,
    const std::shared_ptr<soteria::store::FeatureStore>& plain_store,
    soteria::store::FeatureStore* traced_store, TraceRecorder& recorder,
    LayerCounts& counts, std::uint64_t first_request = 0) {
  core::AnalyzeOptions options;
  options.feature_store = plain_store;
  Comparison out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto start = Clock::now();
    out.plain.push_back(plain.analyze_image(items[i].bytes, items[i].rng,
                                            options));
    out.plain_s += seconds_since(start);
    start = Clock::now();
    out.traced.push_back(traced_analyze_image(traced, items[i].bytes,
                                              items[i].rng, traced_store,
                                              recorder, first_request + i,
                                              counts));
    out.traced_s += seconds_since(start);
  }
  return out;
}

std::size_t count_mismatches(std::span<const core::Verdict> a,
                             std::span<const core::Verdict> b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) bad += !same_verdict(a[i], b[i]);
  return bad;
}

core::SoteriaSystem reload(const core::SoteriaSystem& system) {
  std::stringstream buffer;
  system.save(buffer);
  return core::SoteriaSystem::load(buffer);
}

/// The per-layer metric names, in report order, with units. Every traced
/// run reports all of them; a layer a workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"loader.load_us", "us"},
      {"frontend.extract_us", "us"},
      {"cfg.label_ms", "ms"},
      {"cfg.label_share", "ratio"},
      {"cfg.label_cache_hit_ratio", "ratio"},
      {"features.extract_ms", "ms"},
      {"features.walk_steps", "count"},
      {"features.grams", "count"},
      {"detector.score_us", "us"},
      {"classifier.predict_ms", "ms"},
      {"classifier.gflops", "GFLOP/s"},
      {"store.put_us", "us"},
      {"store.get_us", "us"},
      {"store.hit_ratio", "ratio"},
      {"store.entry_kb", "KB"},
      {"serve.batch_size_mean", "count"},
      {"serve.queue_depth_max", "count"},
      {"serve.rejected", "count"},
      {"serve.expired", "count"},
      {"serve.decode_us", "us"},
      {"serve.gen_late_p99_ms", "ms"},
      {"runtime.parallel_efficiency", "ratio"},
      {"attack.query_ms", "ms"},
      {"attack.queries_per_victim", "count"},
      {"attack.generate_ms", "ms"},
      {"setup.corpus_s", "s"},
      {"setup.train_s", "s"},
      {"setup.load_s", "s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.coverage", "ratio"},
  };
  return names;
}

using LayerValues = std::map<std::string, double>;

void emit_layers(Result& result, const Setup& setup, LayerValues values) {
  values["setup.corpus_s"] = setup.corpus_s;
  values["setup.train_s"] = setup.train_s;
  values["setup.load_s"] = setup.load_s;
  for (const auto& [name, unit] : layer_names()) {
    const auto it = values.find(name);
    result.metrics.push_back({name, it == values.end() ? 0.0 : it->second,
                              unit});
  }
}

/// Per-layer means from the spans and counts of compare_serial runs.
/// `untraced_s` is the wall time of the same requests through
/// analyze_image, `traced_s` that of the traced decomposition.
void summarize_layers(const TraceRecorder& recorder, const LayerCounts& c,
                      double untraced_s, double traced_s,
                      LayerValues& out) {
  const auto totals = recorder.totals();
  const auto get = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? TraceRecorder::Totals{} : it->second;
  };
  const auto mean = [&](const std::string& name) {
    const auto t = get(name);
    return t.count == 0 ? 0.0 : t.total_s / static_cast<double>(t.count);
  };
  out["loader.load_us"] = mean("loader.load_image") * 1e6;
  out["frontend.extract_us"] = mean("frontend.extract") * 1e6;
  out["cfg.label_ms"] =
      ratio(c.label_miss_s, static_cast<double>(c.label_misses)) * 1e3;
  // Root spans: one per analyzed request, or per attacked victim.
  out["cfg.label_share"] =
      ratio(get("cfg.labels").total_s,
            get("request").total_s + get("attack.victim").total_s);
  out["cfg.label_cache_hit_ratio"] =
      ratio(static_cast<double>(c.label_hits),
            static_cast<double>(c.label_hits + c.label_misses));
  out["features.extract_ms"] = mean("features.extract_stored") * 1e3;
  out["features.walk_steps"] = ratio(static_cast<double>(c.walk_steps),
                                     static_cast<double>(c.extractions));
  out["features.grams"] = ratio(static_cast<double>(c.grams),
                                static_cast<double>(c.extractions));
  out["detector.score_us"] = mean("detector.sample_error") * 1e6;
  out["classifier.predict_ms"] = mean("classifier.predict") * 1e3;
  out["classifier.gflops"] =
      ratio(2.0 * c.classifier_macs, get("classifier.predict").total_s) * 1e-9;
  out["store.put_us"] = mean("store.put") * 1e6;
  out["store.get_us"] = mean("store.get") * 1e6;
  out["store.hit_ratio"] =
      ratio(static_cast<double>(c.store_hits),
            static_cast<double>(c.store_hits + c.store_misses));
  double layer_self = 0.0;
  for (const auto& [name, t] : totals) {
    if (name != "request") layer_self += t.self_s;
  }
  out["trace.coverage"] = ratio(layer_self, untraced_s);
  out["trace.overhead_frac"] = ratio(traced_s - untraced_s, untraced_s);
}

void write_trace(const TraceRecorder& recorder, const Options& options) {
  recorder.write_jsonl(options.work_dir + "/../trace-" + options.workload +
                       "-" + std::to_string(options.seed) + ".jsonl");
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
}

Setup run_setup(const std::string& work_dir) {
  Setup setup;
  const auto start = Clock::now();
  soteria::dataset::DatasetConfig data_config;
  data_config.scale = kCorpusScale;
  math::Rng data_rng(kCorpusSeed);
  setup.data = soteria::dataset::generate_dataset(data_config, data_rng);
  setup.corpus_s = seconds_since(start);

  const auto train_start = Clock::now();
  auto config = core::cpu_scaled_config();
  config.seed = kCorpusSeed;
  const auto trained = core::SoteriaSystem::train(setup.data.train, config);
  setup.train_s = seconds_since(train_start);

  const auto load_start = Clock::now();
  const std::string path = work_dir + "/model.bin";
  trained.save_file(path);
  setup.system = core::SoteriaSystem::load_file(path);
  setup.load_s = seconds_since(load_start);
  setup.setup_s = seconds_since(start);
  return setup;
}

double classifier_macs(const core::FamilyClassifier& classifier,
                       std::size_t walks) {
  double macs = 0.0;
  for (const auto* model : {&classifier.dbl_model(), &classifier.lbl_model()}) {
    for (const auto& layer : model->layers()) {
      if (const auto* conv =
              dynamic_cast<const soteria::nn::Conv1d*>(layer.get())) {
        macs += static_cast<double>(conv->out_channels() * conv->out_length() *
                                    conv->in_channels() * conv->kernel());
      } else if (const auto* dense =
                     dynamic_cast<const soteria::nn::Dense*>(layer.get())) {
        macs += static_cast<double>(dense->in_dim() * dense->out_dim());
      }
    }
  }
  return macs * static_cast<double>(walks);
}

namespace {

/// The tail of traced_analyze_image, from the CFG on; also used for the
/// attack workload's defense analyses.
core::Verdict traced_analyze_cfg(const core::SoteriaSystem& system,
                                 const soteria::cfg::Cfg& cfg,
                                 const math::Rng& fresh_rng,
                                 soteria::store::FeatureStore* store,
                                 TraceRecorder& recorder,
                                 std::uint64_t request, LayerCounts& counts) {
  const auto& pipeline = system.pipeline();
  // extract_stored's order: a store hit skips labeling and extraction.
  std::optional<soteria::features::SampleFeatures> features;
  std::optional<soteria::store::FeatureKey> key;
  if (store != nullptr) {
    key = soteria::store::FeatureKey{
        soteria::cfg::LabelingCache::content_hash(cfg),
        pipeline.fingerprint().value, fresh_rng.seed()};
    const ScopedSpan span(&recorder, "store.get", request);
    features = store->get(*key);
    ++(features ? counts.store_hits : counts.store_misses);
  }
  if (!features) {
    if (const auto& cache = pipeline.labeling_cache()) {
      const ScopedSpan span(&recorder, "cfg.labels", request);
      const auto before = cache->stats();
      const auto start = Clock::now();
      (void)cache->labels(cfg, pipeline.config().labeling);
      if (cache->stats().misses > before.misses) {
        ++counts.label_misses;
        counts.label_miss_s += seconds_since(start);
      } else {
        ++counts.label_hits;
      }
    }
    {
      const ScopedSpan span(&recorder, "features.extract_stored", request);
      features = pipeline.extract_stored(cfg, fresh_rng, nullptr);
    }
    const auto& walk = pipeline.config().walk;
    const auto steps = static_cast<std::uint64_t>(std::llround(
        walk.length_multiplier * static_cast<double>(cfg.node_count())));
    const std::uint64_t walks = 2 * walk.walks_per_labeling;
    counts.walk_steps += walks * steps;
    for (const auto n : pipeline.config().gram_sizes) {
      if (steps + 1 >= n) counts.grams += walks * (steps + 2 - n);
    }
    ++counts.extractions;
    if (store != nullptr) {
      const ScopedSpan span(&recorder, "store.put", request);
      store->put(*key, *features);
    }
  }

  core::Verdict verdict;
  {
    const ScopedSpan span(&recorder, "detector.sample_error", request);
    verdict.reconstruction_error =
        system.detector().sample_error(core::pooled_matrix(*features));
  }
  verdict.adversarial =
      verdict.reconstruction_error > system.detector().threshold();
  {
    const ScopedSpan span(&recorder, "classifier.predict", request);
    verdict.predicted = system.classifier().predict(*features);
  }
  counts.classifier_macs +=
      classifier_macs(system.classifier(), features->dbl.size());
  return verdict;
}

}  // namespace

core::Verdict traced_analyze_image(const core::SoteriaSystem& system,
                                   std::span<const std::uint8_t> bytes,
                                   const math::Rng& fresh_rng,
                                   soteria::store::FeatureStore* store,
                                   TraceRecorder& recorder,
                                   std::uint64_t request,
                                   LayerCounts& counts) {
  const ScopedSpan root(&recorder, "request", request);
  soteria::loader::Image image;
  {
    const ScopedSpan span(&recorder, "loader.load_image", request);
    image = soteria::loader::load_image(bytes);
  }
  soteria::cfg::Cfg cfg;
  {
    const ScopedSpan span(&recorder, "frontend.extract", request);
    cfg = soteria::frontend::resolve_frontend(
              soteria::frontend::FrontendRegistry::builtin(), image)
              .extract(image);
  }
  return traced_analyze_cfg(system, cfg, fresh_rng, store, recorder, request,
                            counts);
}

// ---------------------------------------------------------------- scan

Result run_scan(Setup& setup, const Options& options) {
  Result result;
  const auto& system = setup.system;
  const auto& split = setup.data.test;
  const auto images = wrap_split(split);
  const std::size_t chunk = kScanCopiesPerChunk * split.size();
  const std::size_t chunks =
      kScanChunksPerSecond * static_cast<std::size_t>(options.seconds);
  const std::size_t n = chunks * chunk;
  const math::Rng root(options.seed);
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back({images[i % images.size()], root.child(i)});
  }
  result.notes.push_back(
      "why: offline triage of the held-out split, bytes to verdict, store "
      "written in pass 1 and read in pass 2");

  if (options.trace) {
    // Pass 1 as one nproc batch and on one thread gives the parallel
    // efficiency; then passes 1 and 2 run per request, untraced and
    // decomposed. Each part starts from an empty labeling cache and store.
    clear_label_cache(system);
    const auto batch = decode_and_analyze(
        system, items, nproc(), fresh_store(options.work_dir + "/batch"));
    const double efficiency = parallel_efficiency(
        system, items, fresh_store(options.work_dir + "/serial"), nproc(),
        batch.wall_s);
    clear_label_cache(system);
    const auto traced_system = reload(system);
    const auto plain_store = fresh_store(options.work_dir + "/plain");
    const auto traced_store = fresh_store(options.work_dir + "/traced");
    TraceRecorder recorder;
    LayerCounts counts[2];
    const auto pass1 = compare_serial(system, traced_system, items,
                                      plain_store, traced_store.get(),
                                      recorder, counts[0]);
    const auto entries = traced_store->stats();
    const auto pass2 = compare_serial(system, traced_system, items,
                                      plain_store, traced_store.get(),
                                      recorder, counts[1], n);
    const std::size_t bad = count_mismatches(pass1.traced, pass1.plain) +
                            count_mismatches(pass2.traced, pass2.plain) +
                            count_mismatches(batch.verdicts, pass1.plain);
    result.attempted = 2 * n;
    result.failed = bad;
    result.check(bad == 0, "traced scan verdicts differ from analyze_image");

    LayerCounts total = counts[0];
    total.label_hits += counts[1].label_hits;
    total.label_misses += counts[1].label_misses;
    total.label_miss_s += counts[1].label_miss_s;
    total.store_hits += counts[1].store_hits;
    total.store_misses += counts[1].store_misses;
    total.classifier_macs += counts[1].classifier_macs;
    LayerValues values;
    summarize_layers(recorder, total, pass1.plain_s + pass2.plain_s,
                     pass1.traced_s + pass2.traced_s, values);
    values["store.entry_kb"] =
        ratio(static_cast<double>(entries.bytes),
              static_cast<double>(entries.entries)) / 1024.0;
    values["runtime.parallel_efficiency"] = efficiency;
    emit_layers(result, setup, values);
    for (int pass = 0; pass < 2; ++pass) {
      const auto& c = counts[pass];
      result.notes.push_back(
          "share: pass " + std::to_string(pass + 1) + " label-cache hits " +
          std::to_string(c.label_hits) + "/" +
          std::to_string(c.label_hits + c.label_misses) +
          " lookups, store hits " + std::to_string(c.store_hits) + "/" +
          std::to_string(n));
    }
    write_trace(recorder, options);
    return result;
  }

  const auto store = fresh_store(options.work_dir + "/scan-store");
  const auto& cache = system.pipeline().labeling_cache();
  std::vector<core::Verdict> passes[2];
  double pass_sps[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    const auto cache_before = cache->stats();
    const auto store_before = store->stats();
    std::vector<double> chunk_rates;
    double pass_s = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto batch = decode_and_analyze(
          system, std::span(items).subspan(c * chunk, chunk), nproc(), store);
      pass_s += batch.wall_s;
      chunk_rates.push_back(static_cast<double>(chunk) / batch.wall_s);
      passes[pass].insert(passes[pass].end(), batch.verdicts.begin(),
                          batch.verdicts.end());
    }
    pass_sps[pass] = median(chunk_rates);
    const auto cache_after = cache->stats();
    const auto store_hits = store->stats().hits - store_before.hits;
    result.notes.push_back(
        "share: pass " + std::to_string(pass + 1) + " label-cache hits " +
        std::to_string(cache_after.hits - cache_before.hits) + "/" +
        std::to_string(cache_after.hits + cache_after.misses -
                       cache_before.hits - cache_before.misses) +
        " lookups, store hits " + std::to_string(store_hits) + "/" +
        std::to_string(n) + ", samples/s mean " +
        fmt("%.1f", static_cast<double>(n) / pass_s) + ", chunk p25 " +
        fmt("%.1f", exact_quantile(chunk_rates, 0.25)) + " p50 " +
        fmt("%.1f", pass_sps[pass]) + " p75 " +
        fmt("%.1f", exact_quantile(chunk_rates, 0.75)));
    if (pass == 1) {
      result.check(store_hits == n, "warm pass missed the feature store");
    }
  }

  // Correctness: the warm pass reproduces the cold pass bit for bit, and
  // a 1-thread store-less analyze_batch over the first two copies of the
  // split reproduces both.
  const auto reference = decode_and_analyze(
      system, std::span(items).first(std::min(n, 2 * split.size())), 1);
  const std::size_t bad =
      count_mismatches(passes[0], passes[1]) +
      count_mismatches(reference.verdicts,
                       std::span(passes[0]).first(reference.verdicts.size()));
  std::size_t flagged = 0;
  std::size_t correct_family = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (passes[0][i].adversarial) {
      ++flagged;
    } else if (passes[0][i].predicted == split[i % split.size()].family) {
      ++correct_family;
    }
  }
  const double flag_rate = ratio(static_cast<double>(flagged),
                                 static_cast<double>(n));
  const double accuracy = ratio(static_cast<double>(correct_family),
                                static_cast<double>(n - flagged));
  result.check(bad == 0, std::to_string(bad) + " scan verdicts differ from "
                             "the 1-thread reference or between passes");
  result.check(accuracy >= kScanAccuracyFloor,
               "clean accuracy " + fmt("%.4f", accuracy) + " below floor");
  result.check(flag_rate <= kScanFlagRateCeiling,
               "clean flag rate " + fmt("%.4f", flag_rate) + " above ceiling");
  result.notes.push_back("clean accuracy " + fmt("%.4f", accuracy) +
                         ", flag rate " + fmt("%.4f", flag_rate) + " over " +
                         std::to_string(n) + " samples");
  result.notes.push_back(digest_note("scan", passes[0]));
  result.attempted = 2 * n;
  result.failed = bad;
  result.metrics.push_back({"throughput", pass_sps[0], "1/s"});
  result.report.push_back({"scan.cold_sps", pass_sps[0], "samples/s"});
  result.report.push_back({"scan.warm_sps", pass_sps[1], "samples/s"});
  return result;
}

// --------------------------------------------------------------- serve

namespace {

struct Phase {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t errors = 0;
  std::vector<double> latency_ms;  ///< rejected and failed read +inf
  std::vector<double> late_ms;
  std::vector<double> decode_us;
  std::vector<std::pair<double, double>> backlog;  ///< (t, outstanding)
  double backlog_slope = 0.0;  ///< requests/s over the send window
  bool backlog_grows = false;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool passes = false;
  std::size_t queue_depth_max = 0;
  std::uint64_t batches = 0;
  std::uint64_t expired = 0;
  double wall_s = 0.0;
  /// (service id, pick) and verdict of each completed request.
  std::vector<std::pair<std::uint64_t, std::size_t>> done;
  std::vector<core::Verdict> verdicts;
};

double least_squares_slope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (const auto& [x, y] : xy) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(xy.size());
  my /= static_cast<double>(xy.size());
  double sxy = 0.0, sxx = 0.0;
  for (const auto& [x, y] : xy) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  return ratio(sxy, sxx);
}

Phase run_phase(soteria::serve::ShardedService& service,
                const std::vector<std::vector<std::uint8_t>>& images,
                double rate, std::uint64_t seed, std::size_t workers,
                std::size_t max_batch) {
  Phase phase;
  phase.rate = rate;
  const auto picks =
      skewed_picks(images.size(), kServePhaseRequests, kServeSkew, seed);
  const auto schedule =
      poisson_schedule(rate, kServePhaseRequests, seed ^ 0x9e3779b97f4a7c15ULL);
  struct Pending {
    std::size_t index;
    std::uint64_t id;
    std::future<core::Verdict> verdict;
  };
  std::vector<Pending> outstanding;
  const auto before = service.stats().total;
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i]));
  };
  phase.latency_ms.assign(kServePhaseRequests,
                          std::numeric_limits<double>::infinity());
  auto next_sample = start;
  Clock::time_point last_done = start;
  std::size_t i = 0;
  while (i < kServePhaseRequests || !outstanding.empty()) {
    auto now = Clock::now();
    while (i < kServePhaseRequests && now >= due(i)) {
      phase.late_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due(i)).count());
      const auto decode_start = Clock::now();
      auto cfg = std::make_shared<const soteria::cfg::Cfg>(
          decode(images[picks[i]]));
      phase.decode_us.push_back(std::chrono::duration<double, std::micro>(
                                    Clock::now() - decode_start)
                                    .count());
      auto ticket = service.submit(std::move(cfg));
      ++phase.sent;
      if (ticket.accepted()) {
        outstanding.push_back({i, ticket.id, std::move(ticket.verdict)});
      } else {
        ++phase.rejected;
      }
      ++i;
      now = Clock::now();
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      auto& p = outstanding[k];
      if (p.verdict.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const auto done_at = Clock::now();
      try {
        phase.verdicts.push_back(p.verdict.get());
        phase.done.emplace_back(p.id, picks[p.index]);
        phase.latency_ms[p.index] =
            std::chrono::duration<double, std::milli>(done_at - due(p.index))
                .count();
        ++phase.completed;
      } catch (const std::exception&) {
        ++phase.errors;
      }
      last_done = std::max(last_done, done_at);
      p = std::move(outstanding.back());
      outstanding.pop_back();
    }
    now = Clock::now();
    if (now >= next_sample) {
      const double t = std::chrono::duration<double>(now - start).count();
      if (i < kServePhaseRequests) {
        phase.backlog.emplace_back(t, static_cast<double>(outstanding.size()));
      }
      phase.queue_depth_max =
          std::max(phase.queue_depth_max, service.stats().total.queue_depth);
      next_sample = now + std::chrono::milliseconds(10);
    }
    auto wake = now + std::chrono::microseconds(200);
    if (i < kServePhaseRequests) wake = std::min(wake, due(i));
    std::this_thread::sleep_until(wake);
  }
  const auto after = service.stats().total;
  phase.batches = after.batches - before.batches;
  phase.expired = after.expired - before.expired;
  phase.wall_s = std::chrono::duration<double>(last_done - start).count();
  phase.achieved_rps =
      ratio(static_cast<double>(phase.completed), phase.wall_s);
  phase.p50_ms = exact_quantile(phase.latency_ms, 0.50);
  phase.p99_ms = exact_quantile(phase.latency_ms, 0.99);
  // Backlog trend: least-squares slope of outstanding requests over the
  // send window. It grows when the slope would add more than one full
  // round of worker batches over the window.
  phase.backlog_slope = least_squares_slope(phase.backlog);
  const double window = schedule.back();
  phase.backlog_grows =
      phase.backlog_slope * window > static_cast<double>(workers * max_batch);
  phase.passes = phase.p99_ms <= kServeP99LimitMs && !phase.backlog_grows;
  return phase;
}

/// One closed-loop saturation window of `service`: kServeSaturationWindow
/// requests with up to kServeSaturationInFlight outstanding. Returns
/// completed requests per second from the first submission to the last
/// completion and counts rejections and errors into `failures`.
double run_saturation_window(
    soteria::serve::ShardedService& service,
    const std::vector<std::vector<std::uint8_t>>& images, std::uint64_t seed,
    std::size_t& failures) {
  const auto picks =
      skewed_picks(images.size(), kServeSaturationWindow, kServeSkew, seed);
  std::deque<std::future<core::Verdict>> in_flight;
  std::size_t completed = 0;
  std::size_t i = 0;
  const auto start = Clock::now();
  while (i < picks.size() || !in_flight.empty()) {
    while (i < picks.size() && in_flight.size() < kServeSaturationInFlight) {
      auto ticket = service.submit(std::make_shared<const soteria::cfg::Cfg>(
          decode(images[picks[i++]])));
      if (ticket.accepted()) {
        in_flight.push_back(std::move(ticket.verdict));
      } else {
        ++failures;
      }
    }
    if (in_flight.empty()) continue;
    try {
      (void)in_flight.front().get();
      ++completed;
    } catch (const std::exception&) {
      ++failures;
    }
    in_flight.pop_front();
  }
  return static_cast<double>(completed) / seconds_since(start);
}

}  // namespace

Result run_serve(Setup& setup, const Options& options) {
  Result result;
  const auto& system = setup.system;
  const auto images = wrap_split(setup.data.test);
  result.notes.push_back(
      "why: open-loop Poisson arrivals into a 1-shard service; queueing, "
      "micro-batching and worker scaling set the result");

  soteria::serve::ShardedServiceConfig config;
  config.num_shards = 1;
  config.seed = options.seed;
  config.shard.num_threads = std::max<std::size_t>(1, nproc() - 1);
  const std::size_t workers = config.shard.num_threads;
  const std::size_t max_batch = config.shard.max_batch;
  // The service shares the set-up's system; it is torn down first.
  const std::shared_ptr<const core::SoteriaSystem> shared(
      &system, [](const core::SoteriaSystem*) {});

  // Served requests re-analyzed serially: walks from Rng(seed).child(id).
  const math::Rng base(config.seed);
  std::vector<Item> checked;
  std::vector<core::Verdict> served;
  const auto& cache = system.pipeline().labeling_cache();
  const auto cache_before = cache->stats();
  std::deque<Phase> phases;  // lo, hi, then the ladder probes
  double capacity = 0.0;
  std::vector<double> window_rps;
  std::size_t saturation_failures = 0;
  const Phase* best = nullptr;  // highest passing rate found
  {
    soteria::serve::ShardedService service(shared, config);
    std::uint64_t phase_seed = options.seed * 1000;
    const auto run = [&](double rate) -> const Phase& {
      phases.push_back(
          run_phase(service, images, rate, phase_seed++, workers, max_batch));
      if (phases.back().passes) best = &phases.back();
      return phases.back();
    };
    const auto saturate = [&] {
      window_rps.push_back(run_saturation_window(
          service, images, phase_seed++, saturation_failures));
    };
    saturate();
    for (const double rate : {kServeLo, kServeHi}) {
      const Phase& p = run(rate);
      for (std::size_t k = 0; k < p.done.size(); k += kServeCheckStride) {
        checked.push_back({images[p.done[k].second],
                           base.child(p.done[k].first)});
        served.push_back(p.verdicts[k]);
      }
      saturate();
    }
    int pass_rung = phases.back().passes ? 0 : kServeLadderRungs;
    int fail_rung = kServeLadderRungs;
    while (fail_rung - pass_rung > 1) {
      const int mid = (pass_rung + fail_rung) / 2;
      (run(kServeHi * std::pow(kServeLadderStep, mid)).passes ? pass_rung
                                                              : fail_rung) =
          mid;
      if (window_rps.size() < kServeSaturationWindows) saturate();
    }
    while (window_rps.size() < kServeSaturationWindows) saturate();
    capacity = median(window_rps);
    service.shutdown(soteria::serve::ShutdownPolicy::kDrain);
  }
  const auto cache_after = cache->stats();

  // Determinism contract: the verdict for id i equals the serial
  // analyze_batch verdict with walks from Rng(seed).child(i).
  const std::size_t mismatches = count_mismatches(
      decode_and_analyze(system, checked, 1).verdicts, served);
  result.notes.push_back(digest_note("serve (checked ids)", served));

  const Phase* lo = &phases[0];
  const Phase* hi = &phases[1];
  std::size_t failures = mismatches + saturation_failures;
  for (const Phase* p : {lo, hi}) {
    failures += p->rejected + p->errors + p->expired;
  }
  result.attempted =
      lo->sent + hi->sent + kServeSaturationWindows * kServeSaturationWindow;
  result.failed = failures;
  result.check(mismatches == 0,
               std::to_string(mismatches) +
                   " served verdicts differ from the serial reference");
  result.check(lo->passes && hi->passes,
               "rate lo or hi misses the p99 limit or grows a backlog");

  for (const auto& p : phases) {
    result.notes.push_back(
        "phase rate " + fmt("%.0f", p.rate) + "/s: sent " +
        std::to_string(p.sent) + ", ok " + std::to_string(p.completed) +
        ", failed " + std::to_string(p.errors) + ", rejected " +
        std::to_string(p.rejected) + ", achieved " +
        fmt("%.1f", p.achieved_rps) + "/s, p50 " + fmt("%.2f", p.p50_ms) +
        " ms, p99 " + fmt("%.2f", p.p99_ms) + " ms (n=" +
        std::to_string(p.latency_ms.size()) + ", " +
        std::to_string(samples_beyond(p.latency_ms.size(), 0.99)) +
        " beyond, resolves p" +
        fmt("%.2f", highest_resolved_percentile(p.latency_ms.size())) +
        "), generator late p99 " +
        fmt("%.3f", exact_quantile(p.late_ms, 0.99)) + " ms, backlog " +
        fmt("%+.2f", p.backlog_slope) + " req/s" +
        (p.backlog_grows ? " (grows)" : "") + (p.passes ? "" : " FAILS"));
  }
  std::string windows;
  for (const double rps : window_rps) {
    windows += (windows.empty() ? "" : ", ") + fmt("%.1f", rps);
  }
  result.notes.push_back(
      "saturation: " + std::to_string(kServeSaturationInFlight) +
      " in flight, " + std::to_string(kServeSaturationWindows) +
      " windows of " + std::to_string(kServeSaturationWindow) +
      " requests: " + windows + " /s; median " + fmt("%.1f", capacity) +
      "/s");
  const double label_hits =
      static_cast<double>(cache_after.hits - cache_before.hits);
  const double label_misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  result.notes.push_back("share: label-cache hit ratio " +
                         fmt("%.4f", ratio(label_hits,
                                           label_hits + label_misses)) +
                         "; no feature store (fresh ids, fresh walk seeds)");

  const double max_rps = best ? best->achieved_rps : 0.0;
  result.check(best != nullptr, "no ladder rate meets the p99 limit");

  if (!options.trace) {
    result.metrics.push_back({"throughput", capacity, "1/s"});
    result.report.push_back({"serve.lo.p50_ms", lo->p50_ms, "ms"});
    result.report.push_back({"serve.lo.p99_ms", lo->p99_ms, "ms"});
    result.report.push_back({"serve.hi.p50_ms", hi->p50_ms, "ms"});
    result.report.push_back({"serve.hi.p99_ms", hi->p99_ms, "ms"});
    result.report.push_back({"serve.max_rps", max_rps, "req/s"});
    result.report.push_back({"serve.capacity_rps", capacity, "req/s"});
    return result;
  }

  // Traced: the hi phase's requests, untraced and decomposed. Parallel
  // efficiency compares the highest passing phase's wall time with its
  // requests on one thread.
  const auto phase_items = [&](const Phase& p) {
    std::vector<Item> items;
    for (const auto& [id, pick] : p.done) {
      items.push_back({images[pick], base.child(id)});
    }
    return items;
  };
  const double efficiency =
      best == nullptr ? 0.0
                      : parallel_efficiency(system, phase_items(*best),
                                            nullptr, workers, best->wall_s);
  const auto items = phase_items(*hi);
  clear_label_cache(system);
  const auto traced_system = reload(system);
  TraceRecorder recorder;
  LayerCounts counts;
  const auto cmp = compare_serial(system, traced_system, items, nullptr,
                                  nullptr, recorder, counts);
  const std::size_t bad = count_mismatches(cmp.traced, cmp.plain) +
                          count_mismatches(cmp.plain, hi->verdicts);
  result.failed += bad;
  result.check(bad == 0, "traced serve verdicts differ from analyze_image");

  LayerValues values;
  summarize_layers(recorder, counts, cmp.plain_s, cmp.traced_s, values);
  std::size_t queue_max = 0;
  std::uint64_t rejected = 0, expired = 0;
  for (const auto& p : phases) {
    queue_max = std::max(queue_max, p.queue_depth_max);
    rejected += p.rejected;
    expired += p.expired;
  }
  values["serve.batch_size_mean"] = ratio(static_cast<double>(hi->completed),
                                          static_cast<double>(hi->batches));
  values["serve.queue_depth_max"] = static_cast<double>(queue_max);
  values["serve.rejected"] = static_cast<double>(rejected);
  values["serve.expired"] = static_cast<double>(expired);
  values["serve.decode_us"] = median(hi->decode_us);
  values["serve.gen_late_p99_ms"] = exact_quantile(hi->late_ms, 0.99);
  values["runtime.parallel_efficiency"] = efficiency;
  values["cfg.label_cache_hit_ratio"] =
      ratio(label_hits, label_hits + label_misses);
  emit_layers(result, setup, values);
  write_trace(recorder, options);
  return result;
}

// ------------------------------------------------------------ firmware

namespace {

/// Target block count at quantile u of the truncated Pareto law.
double firmware_blocks(double u) {
  const double a = std::pow(kFirmwareMinBlocks, -kFirmwareShape);
  const double b = std::pow(kFirmwareMaxBlocks, -kFirmwareShape);
  return std::pow(a - u * (a - b), -1.0 / kFirmwareShape);
}

}  // namespace

Result run_firmware(Setup& setup, const Options& options) {
  Result result;
  const auto& system = setup.system;
  const std::size_t n =
      kFirmwarePerSecond * static_cast<std::size_t>(options.seconds);
  std::size_t stride = 7;
  while (std::gcd(stride, n) != 1) ++stride;
  const math::Rng root(options.seed);
  std::vector<std::vector<std::uint8_t>> images;
  images.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i * stride % n) + 0.5) /
                     static_cast<double>(n);
    soteria::isa::CodeGenProfile profile;
    profile.name = "firmware";
    profile.min_functions = std::max(
        2, static_cast<int>(std::lround(firmware_blocks(u) /
                                        kFirmwareBlocksPerFunction)));
    profile.max_functions = profile.min_functions;
    math::Rng rng = root.child(i);
    images.push_back(soteria::loader::write_elf(
        soteria::isa::generate_binary(profile, rng)));
  }
  const math::Rng walk_root(options.seed ^ 0xf1f1f1f1ULL);
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back({images[i], walk_root.child(i)});
  }
  result.notes.push_back(
      "why: unique large CFGs, so labeling and walks do the work and the "
      "CNNs cost under 1%; skewed sizes expose thread-pool imbalance");

  const auto batch = decode_and_analyze(system, items, nproc());
  const auto& verdicts = batch.verdicts;
  const double sps = static_cast<double>(n) / batch.wall_s;

  std::vector<double> blocks;
  for (const auto& image : images) {
    blocks.push_back(static_cast<double>(decode(image).node_count()));
  }
  result.notes.push_back(
      "share: " + std::to_string(n) + " unique binaries, blocks min " +
      fmt("%.0f", exact_quantile(blocks, 0.0)) + " p50 " +
      fmt("%.0f", exact_quantile(blocks, 0.5)) + " p90 " +
      fmt("%.0f", exact_quantile(blocks, 0.9)) + " max " +
      fmt("%.0f", exact_quantile(blocks, 1.0)) +
      "; every shape is new to the labeling cache");

  // Reference: kFirmwareChecks samples spread over the batch, re-analyzed
  // by a 1-thread analyze_batch.
  std::vector<Item> checked;
  std::vector<core::Verdict> expected;
  const std::size_t check_stride =
      std::max<std::size_t>(1, n / kFirmwareChecks);
  for (std::size_t i = 0; i < n; i += check_stride) {
    checked.push_back(items[i]);
    expected.push_back(verdicts[i]);
  }
  const std::size_t bad = count_mismatches(
      decode_and_analyze(system, checked, 1).verdicts, expected);
  result.attempted = n;
  result.failed = bad;
  result.check(bad == 0, std::to_string(bad) +
                             " firmware verdicts differ from the 1-thread "
                             "reference");
  result.notes.push_back(digest_note("firmware", verdicts));
  if (!options.trace) {
    result.metrics.push_back({"throughput", sps, "1/s"});
    result.report.push_back({"firmware.sps", sps, "samples/s"});
    return result;
  }

  // Traced: every kFirmwareTraceStride-th binary, untraced and
  // decomposed.
  std::vector<Item> traced_items;
  std::vector<core::Verdict> traced_expected;
  for (std::size_t i = 0; i < n; i += kFirmwareTraceStride) {
    traced_items.push_back(items[i]);
    traced_expected.push_back(verdicts[i]);
  }
  clear_label_cache(system);
  const auto traced_system = reload(system);
  TraceRecorder recorder;
  LayerCounts counts;
  const auto cmp = compare_serial(system, traced_system, traced_items,
                                  nullptr, nullptr, recorder, counts);
  const std::size_t traced_bad = count_mismatches(cmp.traced, cmp.plain) +
                                 count_mismatches(cmp.plain, traced_expected);
  result.failed += traced_bad;
  result.check(traced_bad == 0,
               "traced firmware verdicts differ from analyze_image");
  LayerValues values;
  summarize_layers(recorder, counts, cmp.plain_s, cmp.traced_s, values);
  values["runtime.parallel_efficiency"] =
      parallel_efficiency(system, items, nullptr, nproc(), batch.wall_s);
  emit_layers(result, setup, values);
  write_trace(recorder, options);
  return result;
}

// -------------------------------------------------------------- attack

namespace {

struct AttackGrid {
  std::vector<soteria::eval::AttackSpec> attacks;
  std::vector<soteria::eval::DefenseSpec> defenses;
};

/// `soteria_cli eval-matrix`'s default grid.
AttackGrid default_grid(const core::SoteriaSystem& system) {
  AttackGrid grid;
  grid.attacks = {
      {"gea-small", "gea", "target=benign,size=small"},
      {"gea-large", "gea", "target=benign,size=large"},
      {"gea-multi", "gea", "target=benign,injections=2"},
      {"score", "score", "target=benign,candidates=4"},
      {"adaptive", "adaptive", "target=benign,candidates=4"},
  };
  const double alpha = system.detector().alpha();
  for (const double a : {alpha, 2.0 * alpha}) {
    char label[32];
    std::snprintf(label, sizeof(label), "alpha=%.2f", a);
    grid.defenses.push_back({label, a});
  }
  return grid;
}

}  // namespace

Result run_attack(Setup& setup, const Options& options) {
  Result result;
  const auto& system = setup.system;
  const auto& victims = setup.data.test;
  const auto& corpus = setup.data.train;
  const auto grid = default_grid(system);
  const std::size_t cells = grid.attacks.size() * grid.defenses.size();
  const std::size_t per_matrix = cells * kAttackVictimsPerCell;
  result.notes.push_back(
      "why: guided attackers query the oracle on freshly perturbed shapes, "
      "which miss the labeling cache and run score_features");

  const auto matrix = [&](std::uint64_t seed, std::size_t threads) {
    soteria::eval::MatrixOptions matrix_options;
    matrix_options.seed = seed;
    matrix_options.num_threads = threads;
    matrix_options.victims_per_cell = kAttackVictimsPerCell;
    return soteria::eval::run_matrix(system, victims, corpus, grid.attacks,
                                     grid.defenses, matrix_options);
  };

  if (!options.trace) {
    const std::size_t reps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               kAttackMatricesPerSecond * options.seconds)));
    double total_s = 0.0;
    std::size_t evaluated = 0;
    std::size_t failures = 0;
    std::size_t queries = 0;
    std::string first_json;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      const auto report = matrix(options.seed * 1000 + r, nproc());
      total_s += seconds_since(start);
      for (const auto& cell : report.cells) {
        evaluated += cell.victims + cell.skipped + cell.failures;
        failures += cell.failures;
        queries += cell.queries;
      }
      if (r == 0) first_json = report.to_json();
    }
    const bool identical =
        matrix(options.seed * 1000, 1).to_json() == first_json;
    result.attempted = evaluated + 1;
    result.failed = failures + (identical ? 0 : 1);
    result.check(identical,
                 "matrix JSON differs between nproc and 1 thread");
    result.check(evaluated == reps * per_matrix,
                 "matrix evaluated an unexpected number of victims");
    result.check(failures == 0, "attack generation threw");
    const double vps = static_cast<double>(evaluated) / total_s;
    result.metrics.push_back({"throughput", vps, "1/s"});
    result.report.push_back({"attack.victims_per_s", vps, "victims/s"});
    result.notes.push_back("share: " + std::to_string(reps) + " matrices, " +
                           std::to_string(queries) + " oracle queries over " +
                           std::to_string(evaluated) + " victims");
    return result;
  }

  // Traced: rep 0's grid decomposed serially (generate, then the
  // defense's analysis split into layer calls), composed into a report
  // that must equal run_matrix's JSON; each AE is then re-scored through
  // a QueryOracle on a separately loaded system with an empty labeling
  // cache, the state the guided attackers' queries meet.
  // The untraced 1-thread matrix runs before and after the traced one
  // and its mean is the untraced time, so slow drift of the host cancels.
  const std::uint64_t seed = options.seed * 1000;
  auto untraced_start = Clock::now();
  const auto reference = matrix(seed, 1);
  double untraced_s = seconds_since(untraced_start);
  const auto parallel_start = Clock::now();
  (void)matrix(seed, nproc());
  const double parallel_s = seconds_since(parallel_start);

  std::vector<core::SoteriaSystem> variants;
  for (const auto& defense : grid.defenses) {
    variants.push_back(reload(system));
    variants.back().detector().set_alpha(defense.alpha);
  }
  const core::SoteriaSystem oracle_system = reload(system);
  TraceRecorder recorder;
  LayerCounts counts;
  soteria::eval::MatrixReport composed;
  composed.seed = seed;
  composed.victims_per_cell = kAttackVictimsPerCell;
  for (const auto& a : grid.attacks) composed.attacks.push_back(a.label);
  for (const auto& d : grid.defenses) composed.defenses.push_back(d.label);
  const math::Rng root(seed);
  std::vector<std::pair<soteria::cfg::Cfg, std::size_t>> aes;
  std::size_t total_queries = 0;
  std::size_t generated = 0;
  const auto traced_start = Clock::now();
  std::uint64_t request = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const auto& attack_spec = grid.attacks[i / grid.defenses.size()];
    const auto& defense_spec = grid.defenses[i % grid.defenses.size()];
    const auto& defense = variants[i % grid.defenses.size()];
    const math::Rng cell_rng = root.child(i);
    soteria::eval::MatrixCell cell;
    cell.attack = attack_spec.label;
    cell.defense = defense_spec.label;
    const auto attacker = soteria::attack::make_attacker(
        attack_spec.name, attack_spec.params, &defense);
    for (std::size_t j = 0; j < kAttackVictimsPerCell; ++j, ++request) {
      const ScopedSpan victim_span(&recorder, "attack.victim", request);
      soteria::attack::AttackResult ae;
      math::Rng generate_rng = cell_rng.child(2 * j);
      try {
        const ScopedSpan span(&recorder, "attack.generate", request);
        ae = attacker->generate(victims[j], corpus, generate_rng);
      } catch (const core::Error&) {
        ++cell.failures;
        continue;
      }
      ++generated;
      total_queries += ae.queries;
      cell.queries += ae.queries;
      if (victims[j].family == ae.target_family) {
        ++cell.skipped;
        continue;
      }
      const auto verdict =
          traced_analyze_cfg(defense, ae.cfg, cell_rng.child(2 * j + 1),
                             nullptr, recorder, request, counts);
      ++cell.victims;
      if (verdict.adversarial) {
        ++cell.detected;
      } else {
        ++cell.evaded;
        if (verdict.predicted == ae.target_family) ++cell.target_hits;
      }
      if (verdict.predicted != victims[j].family) ++cell.family_flips;
      aes.emplace_back(std::move(ae.cfg), request);
    }
    composed.cells.push_back(cell);
  }
  const double traced_s = seconds_since(traced_start);
  untraced_start = Clock::now();
  (void)matrix(seed, 1);
  untraced_s = (untraced_s + seconds_since(untraced_start)) / 2.0;

  soteria::attack::QueryOracle oracle(oracle_system);
  for (const auto& [cfg, id] : aes) {
    const ScopedSpan span(&recorder, "attack.oracle_score", id);
    (void)oracle.score(cfg, root.child(1'000'000 + id));
  }

  const bool same = composed.to_json() == reference.to_json();
  result.attempted = cells * kAttackVictimsPerCell;
  result.failed = same ? 0 : 1;
  result.check(same, "traced matrix differs from run_matrix");

  LayerValues values;
  summarize_layers(recorder, counts, untraced_s, traced_s, values);
  const auto totals = recorder.totals();
  const auto mean_ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return it->second.total_s / static_cast<double>(it->second.count) * 1e3;
  };
  // Coverage excludes the re-scoring pass, which is not part of the
  // untraced matrix time.
  {
    double self = 0.0;
    for (const auto& [name, t] : totals) {
      if (name != "attack.victim" && name != "attack.oracle_score") {
        self += t.self_s;
      }
    }
    values["trace.coverage"] = ratio(self, untraced_s);
  }
  values["attack.generate_ms"] = mean_ms("attack.generate");
  values["attack.query_ms"] = mean_ms("attack.oracle_score");
  values["attack.queries_per_victim"] =
      ratio(static_cast<double>(total_queries), static_cast<double>(generated));
  values["runtime.parallel_efficiency"] =
      ratio(untraced_s, static_cast<double>(nproc()) * parallel_s);
  std::uint64_t hits = 0, misses = 0;
  for (const auto& v : variants) {
    const auto s = v.pipeline().labeling_cache()->stats();
    hits += s.hits;
    misses += s.misses;
  }
  values["cfg.label_cache_hit_ratio"] =
      ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  emit_layers(result, setup, values);
  result.notes.push_back(
      "share: defense label-cache hit ratio " +
      fmt("%.4f", ratio(static_cast<double>(hits),
                        static_cast<double>(hits + misses))) +
      " over " + std::to_string(hits + misses) + " lookups, " +
      std::to_string(total_queries) + " oracle queries");
  write_trace(recorder, options);
  return result;
}

}  // namespace perfbench
