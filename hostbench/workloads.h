// The benchmark's workloads and the runner that times, traces and checks
// them (README.md in this directory gives the why of each choice).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datasets/catalog.h"
#include "platforms/platform.h"

namespace hostbench {

struct DatasetUse {
  gb::datasets::DatasetId id;
  double scale;
};

struct CellUse {
  std::string platform;  // algorithms::make_platform name
  std::size_t dataset;   // index into Workload::datasets
  gb::platforms::Algorithm algorithm;
  /// BFS/SSSP source: 0 is the paper's fixed per-dataset source
  /// (harness::default_params); k > 0 is the k-th vertex drawn from a
  /// fixed stream, re-drawn past vertices without out-edges.
  std::uint32_t source = 0;
};

struct Workload {
  std::string name;
  /// Cold: every round generates into an emptied private cache. Warm:
  /// a separate `fill` process populated the cache beforehand.
  bool cold = false;
  std::vector<DatasetUse> datasets;
  std::vector<CellUse> cells;
};

const std::vector<Workload>& all_workloads();
const Workload* find_workload(const std::string& name);

/// Generate (untimed) every dataset of a warm workload into cache_dir.
void fill_cache(const Workload& workload, std::uint64_t seed,
                const std::string& cache_dir);

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;      // private to this run
  std::string out_dir;        // span file, layer table, result set
  std::string expected_dir;   // committed seed-42 expectations
  bool write_expected = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<double> setup_samples;  // seconds, untraced rounds
  std::vector<double> run_samples;
};

/// Run one workload for opt.seconds (at least a few rounds), check every
/// output outside the timed regions, and print the human-readable tables
/// to stdout. The caller prints the final result line.
RunReport run_workload(const RunOptions& opt);

}  // namespace hostbench
