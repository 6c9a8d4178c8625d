// soteria_perfbench — the repository benchmark.
//
//   soteria_perfbench --workload scan|serve|firmware|attack --seed N
//                     --seconds S --trace 0|1 [--work-dir DIR]
//
// Sets up as `soteria_cli train` + `analyze` do (corpus, cpu_scaled_config
// training, save, reload), runs one workload, checks its outputs and
// prints a provenance line, a human-readable report and, last, one JSON
// object {"correct","attempted","failed","metrics"}. Untraced runs report
// the end-to-end metrics; --trace 1 runs the traced decomposition and
// reports the per-layer metrics instead. Exits non-zero when a check
// fails or the run cannot complete.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "runtime/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: soteria_perfbench --workload scan|serve|firmware|attack"
               " --seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

void print_provenance(const Options& options) {
  std::printf(
      "provenance {\"commit\":\"%s\",\"source_digest\":\"%s\","
      "\"compiler\":\"%s\",\"flags\":\"%s\",\"build_type\":\"%s\","
      "\"preset\":\"%s\",\"corpus_scale\":%g,\"corpus_seed\":%llu,"
      "\"workload\":\"%s\",\"workload_seed\":%llu,\"holdout_seed\":%llu,"
      "\"seconds\":%d,\"trace\":%d,\"nproc\":%zu}\n",
      json_escape(env_or("PERFBENCH_COMMIT", "unknown")).c_str(),
      json_escape(env_or("PERFBENCH_SOURCE_DIGEST", "unknown")).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE,
      perfbench::kPreset, perfbench::kCorpusScale,
      static_cast<unsigned long long>(perfbench::kCorpusSeed),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(perfbench::kHoldoutSeed),
      options.seconds, options.trace ? 1 : 0,
      soteria::runtime::hardware_threads());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (options.seconds < 1 || (argc - 1) % 2 != 0) {
    return usage();
  }
  decltype(&perfbench::run_scan) run = nullptr;
  if (options.workload == "scan") run = &perfbench::run_scan;
  if (options.workload == "serve") run = &perfbench::run_serve;
  if (options.workload == "firmware") run = &perfbench::run_firmware;
  if (options.workload == "attack") run = &perfbench::run_attack;
  if (run == nullptr) return usage();
  if (options.work_dir.empty()) {
    options.work_dir = ".bench_build/run-" + std::to_string(getpid());
  }

  namespace fs = std::filesystem;
  Result result;
  double setup_s = 0.0;
  try {
    fs::remove_all(options.work_dir);
    fs::create_directories(options.work_dir);
    print_provenance(options);
    std::fflush(stdout);
    auto setup = perfbench::run_setup(options.work_dir);
    setup_s = setup.setup_s;
    std::printf("setup: corpus %.3f s, train %.3f s, save+load %.3f s\n",
                setup.corpus_s, setup.train_s, setup.load_s);
    result = run(setup, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soteria_perfbench: %s\n", e.what());
    std::error_code ignored;
    fs::remove_all(options.work_dir, ignored);
    return 1;
  }
  std::error_code ignored;
  fs::remove_all(options.work_dir, ignored);

  const double rss = peak_rss_mb();
  if (!options.trace) {
    result.metrics.push_back({"setup_s", setup_s, "s"});
    result.metrics.push_back({"peak_rss_mb", rss, "MB"});
  }
  result.report.push_back({"setup_s", setup_s, "s"});
  result.report.push_back({"peak_rss_mb", rss, "MB"});
  result.report.push_back(
      {"failed_frac",
       result.attempted == 0 ? 0.0
                             : static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted),
       "ratio"});

  for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  for (const auto& m : result.report) {
    std::printf("metric %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (options.trace) {
    for (const auto& m : result.metrics) {
      std::printf("layer  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "soteria_perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
