#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <tuple>

#include "algorithms/platform_suite.h"
#include "algorithms/reference.h"
#include "campaign/campaign.h"
#include "campaign/runner.h"
#include "core/error.h"
#include "core/graph_stats.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "datasets/generators.h"
#include "harness/cell_result.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "harness/json_read.h"
#include "partition/partition.h"
#include "spans.h"

namespace hostbench {
namespace {

namespace fs = std::filesystem;
using gb::datasets::Dataset;
using gb::datasets::DatasetId;
using gb::platforms::Algorithm;

constexpr std::uint32_t kWorkers = 20;
constexpr std::uint32_t kCores = 1;
/// Closed-loop rounds a run makes even when --seconds is already spent.
constexpr std::uint32_t kMinRounds = 3;
/// Host threads per cell, and for the reference and partition calls. One:
/// ThreadPool::parallel_chunks and parallel_for signal completion through
/// a mutex and condition variable on the caller's stack, which the caller
/// may already have left when the last worker locks it. Under CPU
/// oversubscription that aborts the process, so a benchmark on a shared
/// host cannot run the pooled paths until that is fixed.
constexpr std::uint32_t kHostParallelism = 1;

gb::ThreadPool& host_pool() { return gb::ThreadPool::serial(); }

/// BFS sources per cold_build graph.
constexpr std::uint32_t kColdSources = 8;
/// The five engines, one per paradigm (Giraph -> pregel, ...).
const std::vector<std::string> kPlatforms = {"Giraph", "GraphLab", "Hadoop",
                                             "Stratosphere", "Neo4j"};

std::vector<CellUse> on_every_platform(const std::vector<Algorithm>& algs) {
  std::vector<CellUse> cells;
  for (const Algorithm a : algs) {
    for (const auto& p : kPlatforms) cells.push_back({p, 0, a});
  }
  return cells;
}

std::string engine_layer(const std::string& platform) {
  if (platform == "Giraph") return "pregel";
  if (platform == "GraphLab") return "gas";
  if (platform == "Hadoop") return "mapreduce";
  if (platform == "Stratosphere") return "dataflow";
  if (platform == "Neo4j") return "graphdb";
  throw gb::Error("hostbench: no engine layer for platform " + platform);
}

std::string dataset_name(const DatasetUse& use) {
  return gb::datasets::info(use.id).name;
}

/// ".<dataset>" in a per-layer name, only when the workload has several.
std::string suffix(const Workload& w, std::size_t d) {
  return w.datasets.size() > 1 ? "." + dataset_name(w.datasets[d]) : "";
}

std::string cell_metric(const Workload& w, const CellUse& cell) {
  return engine_layer(cell.platform) + "." +
         gb::platforms::algorithm_name(cell.algorithm) + "_s" +
         suffix(w, cell.dataset);
}

gb::campaign::CellSpec cell_spec(const Workload& w, const CellUse& cell,
                                 std::uint64_t seed) {
  gb::campaign::CellSpec spec;
  spec.platform = cell.platform;
  spec.dataset = w.datasets[cell.dataset].id;
  spec.algorithm = cell.algorithm;
  spec.workers = kWorkers;
  spec.cores = kCores;
  spec.scale = w.datasets[cell.dataset].scale;
  spec.seed = seed;
  return spec;
}

/// The catalog's generator call for `id` (datasets/catalog.cpp), made
/// through the public generator so the traced run can time generation
/// apart from largest_component. The traced run checks that the component
/// of this graph is byte-identical to the cached dataset, so any drift
/// from the catalog's parameters fails a check.
gb::Graph generate_raw(DatasetId id, double scale, std::uint64_t seed) {
  using namespace gb::datasets;
  const auto scaled_v = [&](double factor) {
    return static_cast<gb::VertexId>(std::llround(
        static_cast<double>(info(id).paper_vertices) * scale * factor));
  };
  switch (id) {
    case DatasetId::kAmazon:
      return copurchase_graph(scaled_v(1.0), 4.78, 0.3,
                              static_cast<gb::VertexId>(5600 * scale) + 8,
                              seed);
    case DatasetId::kWikiTalk:
      return hub_graph(scaled_v(1.07), static_cast<gb::EdgeId>(5.50e6 * scale),
                       std::max<gb::VertexId>(4, scaled_v(8e-6)), 0.25, 0.20,
                       0.95, seed);
    case DatasetId::kKGS:
      return weighted_pair_graph(
          scaled_v(1.02), static_cast<gb::EdgeId>(17.0e6 * scale), 0.62, 1.0,
          static_cast<gb::VertexId>(20'000 * scale) + 16, seed);
    case DatasetId::kSynth: {
      const double target = 4.19e6 * scale;
      std::uint32_t sc = 1;
      while ((gb::VertexId{1} << sc) < target) ++sc;
      return rmat(sc, static_cast<gb::EdgeId>(67.0e6 * scale), 0.57, 0.19,
                  0.19, /*directed=*/false, seed);
    }
    default:
      throw gb::Error("hostbench: no generator split for " + info(id).name);
  }
}

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::cerr << "[hostbench] check failed: " << what << "\n";
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw gb::Error("hostbench: cannot read " + path);
  std::vector<char> buf(1 << 20);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// The .gbin the cache published for a dataset: the one file in the
/// private cache directory named after it.
std::string cached_file(const std::string& dir, const std::string& name) {
  std::vector<std::string> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(name + "_", 0) == 0 && entry.path().extension() == ".gbin") {
      found.push_back(entry.path().string());
    }
  }
  if (found.size() != 1) {
    throw gb::Error("hostbench: expected one cached .gbin for " + name +
                    " in " + dir + ", found " + std::to_string(found.size()));
  }
  return found.front();
}

std::string dataset_fact(const DatasetUse& use, const gb::Graph& g,
                         std::uint64_t digest) {
  std::ostringstream out;
  out << dataset_name(use) << " scale=" << use.scale
      << " vertices=" << g.num_vertices() << " edges=" << g.num_edges()
      << " gbin_fnv1a=" << hex(digest);
  return out.str();
}

std::string cell_fact(const gb::harness::CellResult& r) {
  char makespan[32];
  std::snprintf(makespan, sizeof(makespan), "%.17g", r.makespan_sec);
  return r.key + " outcome=" + r.outcome + " makespan_sec=" + makespan +
         " iterations=" + std::to_string(r.iterations) +
         " output_hash=" + hex(r.output_hash);
}

gb::platforms::AlgorithmParams cell_params(const CellUse& cell,
                                          const Dataset& ds) {
  auto params = gb::harness::default_params(ds);
  const gb::VertexId n = ds.graph.num_vertices();
  if (cell.source > 0 && n > 0) {
    gb::SplitMix64 rng(0x9e3779b97f4a7c15ULL * cell.source);
    gb::VertexId v = static_cast<gb::VertexId>(rng.next() % n);
    for (gb::VertexId probe = 0; probe < n && ds.graph.out_degree(v) == 0;
         ++probe) {
      v = (v + 1) % n;
    }
    params.bfs_source = v;
  }
  return params;
}

std::string cell_key(const Workload& w, const CellUse& cell,
                     std::uint64_t seed) {
  const std::string key = cell_spec(w, cell, seed).key();
  return cell.source == 0 ? key : key + "/src" + std::to_string(cell.source);
}

struct CellRun {
  bool threw = false;
  std::string error;
  gb::harness::Measurement measurement;
  gb::harness::CellResult result;
  std::string record;  // the journal-schema line a campaign would write
};

/// One cell exactly as a campaign runs it: a fresh platform and Cluster,
/// harness::run_cell, then the record serialized for the journal.
CellRun run_cell_use(const Workload& w, const CellUse& cell,
                     const Dataset& ds, std::uint64_t seed,
                     SpanRecorder* rec) {
  const auto spec = cell_spec(w, cell, seed);
  CellRun run;
  ScopedSpan span(rec, engine_layer(cell.platform), cell_metric(w, cell));
  try {
    const auto platform = gb::algorithms::make_platform(cell.platform);
    if (!platform) throw gb::Error("unknown platform " + cell.platform);
    run.measurement = gb::harness::run_cell(
        *platform, ds, cell.algorithm, cell_params(cell, ds),
        gb::campaign::cluster_config_for(spec, kHostParallelism));
    ScopedSpan report(rec, "harness", "harness.report_json_s");
    run.result = gb::harness::make_cell_result(
        cell_key(w, cell, seed), spec.platform, spec.dataset_name(),
        spec.algorithm_name(), spec.workers, spec.cores, spec.scale,
        spec.seed, run.measurement);
    run.record = gb::harness::cell_result_to_json(run.result);
  } catch (const std::exception& e) {
    run.threw = true;
    run.error = e.what();
  }
  return run;
}

/// A sequential reference result in the shape the engines report.
struct Reference {
  std::vector<std::uint64_t> values;
  double scalar = 0.0;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
};

Reference compute_reference(const Workload& w, const CellUse& cell,
                            const Dataset& ds, SpanRecorder* rec) {
  using namespace gb::algorithms;
  auto& pool = host_pool();
  const auto params = cell_params(cell, ds);
  const std::string sfx = suffix(w, cell.dataset);
  Reference ref;
  switch (cell.algorithm) {
    case Algorithm::kBfs: {
      ScopedSpan span(rec, "algorithms", "algorithms.reference_bfs_s" + sfx);
      ref.values = reference_bfs(ds.graph, params.bfs_source, &pool).levels;
      break;
    }
    case Algorithm::kConn: {
      ScopedSpan span(rec, "algorithms", "algorithms.reference_conn_s" + sfx);
      ref.values = reference_conn(ds.graph, &pool).labels;
      break;
    }
    case Algorithm::kSssp: {
      SsspParams sssp;
      sssp.source = params.bfs_source;
      sssp.weight_seed = params.seed;
      sssp.delta = params.sssp_delta;
      ScopedSpan span(rec, "algorithms", "algorithms.reference_sssp_s" + sfx);
      ref.values = reference_sssp(ds.graph, sssp, &pool).dist;
      break;
    }
    case Algorithm::kStats: {
      ScopedSpan span(rec, "algorithms", "algorithms.reference_stats_s" + sfx);
      const auto stats = reference_stats(ds.graph, &pool);
      ref.scalar = stats.average_lcc;
      ref.vertices = stats.vertices;
      ref.edges = stats.edges;
      break;
    }
    case Algorithm::kLcc: {
      ScopedSpan span(rec, "algorithms", "algorithms.reference_lcc_s" + sfx);
      const auto lcc = reference_lcc(ds.graph, &pool);
      ref.values = encode_ranks(lcc.values);
      ref.scalar = lcc.average;
      break;
    }
    default:
      throw gb::Error("hostbench: no reference for algorithm");
  }
  return ref;
}

bool matches(Algorithm a, const Reference& ref,
             const gb::platforms::AlgorithmOutput& out) {
  switch (a) {
    case Algorithm::kStats:
      // Engines average per-vertex values in their own order, so the
      // scalar may differ from the reference in the last bits.
      return out.vertices == ref.vertices && out.edges == ref.edges &&
             std::abs(out.scalar - ref.scalar) <=
                 1e-9 * std::max(1.0, std::abs(ref.scalar));
    case Algorithm::kLcc:
      return out.vertex_values == ref.values && out.scalar == ref.scalar;
    default:
      return out.vertex_values == ref.values;
  }
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Samples of one timed phase of every round: the set-up (parts:
/// datasets) or the pass over the cells (parts: cells).
struct Phase {
  std::vector<double> samples;  // whole phase, one per round
  std::vector<double> best;     // fastest time of each part so far

  void add(const std::vector<double>& parts) {
    if (best.empty()) best.assign(parts.size(), parts.empty() ? 0.0 : 1e300);
    double sum = 0.0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      best[i] = std::min(best[i], parts[i]);
      sum += parts[i];
    }
    samples.push_back(sum);
  }

  /// The phase's cost: each part's fastest time over the rounds, summed.
  /// Every round starts from freshly loaded graphs, so work a library does
  /// once per graph (a lazily built cache, say) is in every round's time.
  /// Other tenants of a shared host only ever add time, for seconds at a
  /// stretch, so fastest-per-part is steadier than any statistic of
  /// whole-phase samples, which need one quiet stretch as long as the
  /// whole phase.
  double cost() const {
    double sum = 0.0;
    for (const double b : best) sum += b;
    return sum;
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::string> string_array(const gb::harness::JsonValue* v) {
  std::vector<std::string> out;
  if (v == nullptr || !v->is_array()) return out;
  for (const auto& item : v->array) out.push_back(item.string);
  return out;
}

std::string expected_path(const RunOptions& opt) {
  return (fs::path(opt.expected_dir) / (opt.workload->name + ".json"))
      .string();
}

void write_expected(const RunOptions& opt,
                    const std::vector<std::string>& datasets,
                    const std::vector<std::string>& cells) {
  gb::harness::JsonWriter json;
  json.begin_object();
  json.key("workload");
  json.value(opt.workload->name);
  json.key("seed");
  json.value(opt.seed);
  json.key("datasets");
  json.begin_array();
  for (const auto& d : datasets) json.value(d);
  json.end_array();
  json.key("cells");
  json.begin_array();
  for (const auto& c : cells) json.value(c);
  json.end_array();
  json.end_object();
  std::ofstream out(expected_path(opt));
  out << json.str() << "\n";
  if (!out) throw gb::Error("hostbench: cannot write " + expected_path(opt));
}

void compare_expected(const RunOptions& opt, Checks& checks,
                      const std::vector<std::string>& datasets,
                      const std::vector<std::string>& cells) {
  std::ifstream in(expected_path(opt));
  std::stringstream text;
  text << in.rdbuf();
  std::vector<std::string> want_datasets, want_cells;
  if (in) {
    const auto doc = gb::harness::parse_json(text.str());
    want_datasets = string_array(doc.find("datasets"));
    want_cells = string_array(doc.find("cells"));
  }
  const auto compare = [&](const std::vector<std::string>& got,
                           const std::vector<std::string>& want) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      const bool ok = i < want.size() && got[i] == want[i];
      checks.expect(ok, "seed-42 expectation: got '" + got[i] + "', want '" +
                            (i < want.size() ? want[i] : "<missing>") + "'");
    }
  };
  compare(datasets, want_datasets);
  compare(cells, want_cells);
}

using Counts = std::map<std::string, std::uint64_t>;

/// Traced run only: re-create each dataset through its separate layers
/// (generator, largest_component, a GraphBuilder::build of the raw arcs,
/// save_binary, load_binary) and partition it, each call in its own span.
/// None of this is part of the timed set-up; it splits it.
void trace_layer_split(const Workload& w, const RunOptions& opt,
                       const std::vector<Dataset>& loaded,
                       const std::vector<std::uint64_t>& digests,
                       SpanRecorder& rec, Checks& checks, Counts& counts) {
  rec.set_round(kSplitRound);
  auto& pool = host_pool();
  const std::string split_path = opt.cache_dir + "-split.gbin";
  for (std::size_t d = 0; d < w.datasets.size(); ++d) {
    const DatasetUse& use = w.datasets[d];
    const std::string sfx = suffix(w, d);
    gb::Graph raw;
    {
      ScopedSpan span(&rec, "datasets", "datasets.generator_s" + sfx);
      raw = generate_raw(use.id, use.scale, opt.seed);
    }
    gb::Graph component;
    {
      ScopedSpan span(&rec, "core", "core.largest_component_s" + sfx);
      component = gb::largest_component(raw);
    }
    {
      // Every arc once (undirected pairs in one orientation): a lower
      // bound on what the generators feed the builder, with no duplicates.
      gb::GraphBuilder builder(raw.num_vertices(), raw.directed());
      for (gb::VertexId v = 0; v < raw.num_vertices(); ++v) {
        for (const gb::VertexId u : raw.out_neighbors(v)) {
          if (raw.directed() || v < u) builder.add_edge(v, u);
        }
      }
      gb::Graph built;
      ScopedSpan span(&rec, "core", "core.build_s" + sfx);
      built = builder.build();
    }
    raw = gb::Graph();
    {
      ScopedSpan span(&rec, "core", "core.save_binary_s" + sfx);
      component.save_binary(split_path);
    }
    checks.expect(fnv1a_file(split_path) == digests[d],
                  "largest component of the public generator's " +
                      dataset_name(use) + " equals the cached dataset");
    {
      gb::Graph back;
      ScopedSpan span(&rec, "core", "core.load_binary_s" + sfx);
      back = gb::Graph::load_binary(split_path);
    }
    fs::remove(split_path);
    {
      ScopedSpan span(&rec, "partition", "partition.compute_s" + sfx);
      gb::partition::compute_partition(loaded[d].graph,
                                       gb::partition::Strategy::kHash,
                                       kWorkers, &pool);
    }
    const gb::Graph& g = loaded[d].graph;
    std::uint64_t units = 0;
    std::vector<gb::VertexId> scratch;
    for (gb::VertexId v = 0; v < g.num_vertices(); ++v) {
      units += gb::lcc_work_units(g, gb::lcc_neighborhood(g, v, scratch));
    }
    counts["core.adjacency_entries" + sfx] = g.num_adjacency_entries();
    counts["core.lcc_work_units" + sfx] = units;
  }
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_engine_layer(const std::string& layer) {
  return layer == "pregel" || layer == "gas" || layer == "mapreduce" ||
         layer == "dataflow" || layer == "graphdb";
}

/// Total (or self) time of the spans `keep` accepts: their sum when they
/// come from the one-off layer split, else the fastest timed round's sum.
template <typename Keep>
double span_time(const SpanRecorder& rec, Keep keep, bool self) {
  const auto self_s = rec.self_seconds();
  double split = 0.0;
  bool in_split = false;
  std::map<std::uint32_t, double> per_round;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    if (!keep(s)) continue;
    const double t = self ? self_s[i] : s.duration();
    if (s.round == kSplitRound) {
      split += t;
      in_split = true;
    } else {
      per_round[s.round] += t;
    }
  }
  if (in_split) return split;
  std::vector<double> values;
  for (const auto& [round, sum] : per_round) values.push_back(sum);
  return fastest(values);
}

/// span_time per span name over the names `keep` accepts, summed: like
/// Phase::cost, each part at its fastest.
template <typename Keep>
double cost_by_name(const SpanRecorder& rec, Keep keep, bool self) {
  std::map<std::string, bool> names;
  for (const Span& s : rec.spans()) {
    if (keep(s)) names[s.name] = true;
  }
  double sum = 0.0;
  for (const auto& [name, unused] : names) {
    sum += span_time(
        rec, [&](const Span& s) { return s.name == name; }, self);
  }
  return sum;
}

double prefix_time(const SpanRecorder& rec, const std::string& prefix) {
  return cost_by_name(
      rec, [&](const Span& s) { return starts_with(s.name, prefix); }, false);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct Ratio {
  std::string name;
  double value;
  std::string unit;
  std::string base_name;
  double base_value;
};

/// Traced run: the per-layer table (every span name, fastest round of
/// total and self time), the ratios with their bases, the span file and
/// the layer file. Returns the per-layer metrics of the result line.
std::vector<Metric> report_layers(const Workload& w, const RunOptions& opt,
                                  const SpanRecorder& rec, Counts counts,
                                  const std::vector<CellRun>& first,
                                  double overhead_s, double untraced_total_s,
                                  double traced_setup_s) {
  std::map<std::string, std::pair<double, double>> time;  // total, self
  std::map<std::string, std::string> layer_of;
  for (const Span& s : rec.spans()) layer_of[s.name] = s.layer;
  for (const auto& [name, layer] : layer_of) {
    const auto by_name = [&](const Span& s) { return s.name == name; };
    time[name] = {span_time(rec, by_name, false),
                  span_time(rec, by_name, true)};
  }
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const auto& cell = w.cells[c];
    if (first[c].threw) continue;
    counts[engine_layer(cell.platform) + "." +
           gb::platforms::algorithm_name(cell.algorithm) + ".iterations" +
           suffix(w, cell.dataset)] += first[c].result.iterations;
  }

  std::vector<Ratio> ratios;  // cells from several sources share a name
  const auto t_of = [&](const std::string& name) {
    const auto it = time.find(name);
    return it == time.end() ? 0.0 : it->second.first;
  };
  for (std::size_t d = 0; d < w.datasets.size(); ++d) {
    const std::string sfx = suffix(w, d);
    const double entries =
        static_cast<double>(counts["core.adjacency_entries" + sfx]);
    for (const char* layer :
         {"datasets.generator_s", "core.largest_component_s", "core.build_s",
          "core.save_binary_s", "core.load_binary_s"}) {
      std::string name = layer;
      name = name.substr(0, name.size() - 2) + "_ns_per_entry" + sfx;
      ratios.push_back({name, t_of(layer + sfx) * 1e9 / entries, "ns/entry",
                        "core.adjacency_entries" + sfx, entries});
    }
    const double units =
        static_cast<double>(counts["core.lcc_work_units" + sfx]);
    if (t_of("algorithms.reference_lcc_s" + sfx) > 0.0 && units > 0.0) {
      ratios.push_back({"algorithms.reference_lcc_ns_per_unit" + sfx,
                        t_of("algorithms.reference_lcc_s" + sfx) * 1e9 / units,
                        "ns/unit", "core.lcc_work_units" + sfx, units});
    }
  }
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const auto& cell = w.cells[c];
    if (cell.source > 0) continue;
    const std::string metric = cell_metric(w, cell);
    const std::string algo = gb::platforms::algorithm_name(cell.algorithm);
    const std::string sfx = suffix(w, cell.dataset);
    const std::string iters_name =
        engine_layer(cell.platform) + "." + algo + ".iterations" + sfx;
    const double iters = static_cast<double>(counts[iters_name]);
    if (iters > 0.0) {
      ratios.push_back({engine_layer(cell.platform) + "." + algo +
                            ".ms_per_superstep" + sfx,
                        t_of(metric) * 1e3 / iters, "ms/superstep", iters_name,
                        iters});
    }
    std::string lower = algo;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    const std::string ref_name = "algorithms.reference_" + lower + "_s" + sfx;
    if (t_of(ref_name) > 0.0) {
      ratios.push_back({engine_layer(cell.platform) + "." + algo +
                            ".over_reference" + sfx,
                        t_of(metric) / t_of(ref_name), "x", ref_name,
                        t_of(ref_name)});
    }
  }
  ratios.push_back({"tracing.overhead_share", overhead_s / untraced_total_s,
                    "1", "total_s (untraced)", untraced_total_s});

  // Human-readable tables.
  std::cout << "\nper-layer times (traced rounds: fastest round; "
               "split: once)\n";
  std::printf("  %-44s %-11s %12s %12s\n", "span", "layer", "total_s",
              "self_s");
  for (const auto& [name, t] : time) {
    std::printf("  %-44s %-11s %12.6f %12.6f\n", name.c_str(),
                layer_of[name].c_str(), t.first, t.second);
  }
  std::cout << "counts\n";
  for (const auto& [name, v] : counts) {
    std::printf("  %-44s %14llu\n", name.c_str(),
                static_cast<unsigned long long>(v));
  }
  std::cout << "ratios (value | base)\n";
  for (const auto& r : ratios) {
    std::printf("  %-44s %12s %-12s | %s = %s\n", r.name.c_str(),
                fmt(r.value).c_str(), r.unit.c_str(), r.base_name.c_str(),
                fmt(r.base_value).c_str());
  }
  std::printf("  %-44s %12s %-12s | traced total_s - untraced total_s\n",
              "tracing.overhead_s", fmt(overhead_s).c_str(), "s");

  // Files: Chrome trace of every span, and the layer table as JSON.
  const std::string stem = (fs::path(opt.out_dir) /
                            (w.name + "-seed" + std::to_string(opt.seed)))
                               .string();
  rec.write_chrome_trace(stem + "-spans.json");
  gb::harness::JsonWriter json;
  json.begin_object();
  json.key("workload");
  json.value(w.name);
  json.key("seed");
  json.value(opt.seed);
  json.key("layers");
  json.begin_object();
  for (const auto& [name, t] : time) {
    json.key(name);
    json.begin_object();
    json.key("layer");
    json.value(layer_of[name]);
    json.key("total_s");
    json.value(t.first);
    json.key("self_s");
    json.value(t.second);
    json.end_object();
  }
  json.end_object();
  json.key("counts");
  json.begin_object();
  for (const auto& [name, v] : counts) {
    json.key(name);
    json.value(v);
  }
  json.end_object();
  json.key("ratios");
  json.begin_array();
  for (const auto& r : ratios) {
    json.begin_object();
    json.key("name");
    json.value(r.name);
    json.key("value");
    json.value(r.value);
    json.key("unit");
    json.value(r.unit);
    json.key("base");
    json.value(r.base_name);
    json.key("base_value");
    json.value(r.base_value);
    json.end_object();
  }
  json.end_array();
  json.key("tracing_overhead_s");
  json.value(overhead_s);
  json.end_object();
  std::ofstream(stem + "-layers.json") << json.str() << "\n";
  std::cout << "span file: " << stem << "-spans.json\nlayer file: " << stem
            << "-layers.json\n";

  // The result line's per-layer metrics: layers every workload crosses.
  const auto sum_counts = [&](const std::string& prefix) {
    std::uint64_t sum = 0;
    for (const auto& [name, v] : counts) {
      if (starts_with(name, prefix)) sum += v;
    }
    return static_cast<double>(sum);
  };
  std::uint64_t iterations = 0;
  for (const auto& run : first) iterations += run.result.iterations;
  const auto engine_self = [](const Span& s) {
    return is_engine_layer(s.layer);
  };
  const auto pregel = [](const Span& s) { return s.layer == "pregel"; };
  const auto report = [](const Span& s) {
    return s.name == "harness.report_json_s";
  };
  return {
      {"datasets.load_or_generate_s", traced_setup_s, "s"},
      {"datasets.generator_s", prefix_time(rec, "datasets.generator_s"), "s"},
      {"core.largest_component_s",
       prefix_time(rec, "core.largest_component_s"), "s"},
      {"core.build_s", prefix_time(rec, "core.build_s"), "s"},
      {"core.save_binary_s", prefix_time(rec, "core.save_binary_s"), "s"},
      {"core.load_binary_s", prefix_time(rec, "core.load_binary_s"), "s"},
      {"core.adjacency_entries", sum_counts("core.adjacency_entries"),
       "count"},
      {"core.lcc_work_units", sum_counts("core.lcc_work_units"), "count"},
      {"partition.compute_s", prefix_time(rec, "partition.compute_s"), "s"},
      {"harness.run_cell_s", cost_by_name(rec, engine_self, true), "s"},
      {"pregel.cells_s", cost_by_name(rec, pregel, true), "s"},
      {"harness.report_json_s", cost_by_name(rec, report, false), "s"},
      {"harness.cells", static_cast<double>(w.cells.size()), "count"},
      {"engines.iterations", static_cast<double>(iterations), "count"},
      {"algorithms.reference_s", prefix_time(rec, "algorithms.reference_"),
       "s"},
      {"tracing.overhead_s", overhead_s, "s"},
  };
}

std::vector<Workload> make_workloads() {
  // WikiTalk is built but not traversed: from one source its BFS depth
  // swings from 2 to 10 supersteps between seeds. Synth and KGS are
  // traversed from several sources, whose summed depth barely moves.
  Workload cold{"cold_build",
                true,
                {{DatasetId::kSynth, 0.025},
                 {DatasetId::kKGS, 0.05},
                 {DatasetId::kWikiTalk, 0.125}},
                {}};
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::uint32_t source = 0; source < kColdSources; ++source) {
      cold.cells.push_back({"Giraph", d, Algorithm::kBfs, source});
    }
  }
  Workload traverse{
      "traverse",
      false,
      {{DatasetId::kAmazon, 0.125}},
      on_every_platform({Algorithm::kBfs, Algorithm::kConn, Algorithm::kSssp})};
  Workload triangles{"triangles",
                     false,
                     {{DatasetId::kKGS, 0.01}},
                     on_every_platform({Algorithm::kStats, Algorithm::kLcc})};
  return {cold, traverse, triangles};
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = make_workloads();
  return workloads;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void fill_cache(const Workload& workload, std::uint64_t seed,
                const std::string& cache_dir) {
  for (const auto& use : workload.datasets) {
    gb::datasets::load_or_generate(use.id, use.scale, seed, cache_dir);
  }
}

RunReport run_workload(const RunOptions& opt) {
  const Workload& w = *opt.workload;
  SpanRecorder recorder(w.name);
  Checks checks;
  std::vector<Dataset> loaded(w.datasets.size());
  Phase setup_untraced, setup_traced, run_untraced, run_traced;

  std::vector<CellRun> first(w.cells.size());
  std::vector<std::string> first_facts(w.datasets.size());
  std::vector<std::uint64_t> digests(w.datasets.size());

  const auto start = Clock::now();
  // A round is one set-up followed by one pass over the cells on the graphs
  // that set-up loaded, as in one gb_run or gb_campaign invocation. Traced
  // mode alternates untraced and traced rounds, so the overhead is measured
  // on the same graphs in the same process.
  const std::uint32_t min_rounds = opt.trace ? 4 : kMinRounds;
  for (std::uint32_t round = 0;; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    SpanRecorder* rec = traced ? &recorder : nullptr;
    recorder.set_round(round);

    // Set-up: every graph in memory through load_or_generate, freshly.
    loaded.assign(w.datasets.size(), Dataset{});
    if (w.cold) {
      fs::remove_all(opt.cache_dir);
      fs::create_directories(opt.cache_dir);
    }
    Phase& setup = traced ? setup_traced : setup_untraced;
    std::vector<double> parts;
    for (std::size_t d = 0; d < w.datasets.size(); ++d) {
      ScopedSpan span(rec, "datasets",
                      "datasets.load_or_generate_s" + suffix(w, d));
      const auto t0 = Clock::now();
      loaded[d] = gb::datasets::load_or_generate(
          w.datasets[d].id, w.datasets[d].scale, opt.seed, opt.cache_dir);
      parts.push_back(seconds_between(t0, Clock::now()));
    }
    setup.add(parts);

    // Untimed: every round's graphs must equal round 0's.
    for (std::size_t d = 0; d < w.datasets.size(); ++d) {
      if (w.cold || round == 0) {
        digests[d] = fnv1a_file(
            cached_file(opt.cache_dir, dataset_name(w.datasets[d])));
      }
      const std::string fact =
          dataset_fact(w.datasets[d], loaded[d].graph, digests[d]);
      if (round == 0) first_facts[d] = fact;
      checks.expect(fact == first_facts[d],
                    "round " + std::to_string(round) + " dataset " + fact +
                        " differs from round 0: " + first_facts[d]);
    }

    // Run: one pass over the cells, one after another, each cell on a
    // fresh Cluster.
    Phase& run = traced ? run_traced : run_untraced;
    std::vector<CellRun> runs;
    runs.reserve(w.cells.size());
    parts.clear();
    for (const auto& cell : w.cells) {
      const auto t1 = Clock::now();
      runs.push_back(
          run_cell_use(w, cell, loaded[cell.dataset], opt.seed, rec));
      parts.push_back(seconds_between(t1, Clock::now()));
    }
    run.add(parts);

    // Untimed: every round must reproduce the first one exactly.
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
      const std::string name = cell_key(w, w.cells[c], opt.seed);
      checks.expect(!runs[c].threw, name + " threw: " + runs[c].error);
      if (round == 0) {
        first[c] = std::move(runs[c]);
      } else {
        checks.expect(runs[c].record == first[c].record,
                      name + " record in round " + std::to_string(round) +
                          " differs from round 0");
      }
    }
    std::printf("round %u%s: setup %.6f s, run %.4f s\n", round,
                traced ? " (traced)" : "", setup.samples.back(),
                run.samples.back());
    if (round + 1 >= min_rounds &&
        seconds_between(start, Clock::now()) >= opt.seconds) {
      break;
    }
  }
  // Read before the checks below allocate reference results.
  const double rss_mb = peak_rss_mb();

  // Untimed checks: seed-42 expectations, then every ok cell's output
  // against the sequential reference on the same graph.
  std::vector<std::string> cell_facts;
  for (const auto& run : first) {
    if (!run.threw) cell_facts.push_back(cell_fact(run.result));
  }
  if (opt.write_expected) {
    write_expected(opt, first_facts, cell_facts);
  } else if (opt.seed == 42) {
    compare_expected(opt, checks, first_facts, cell_facts);
  }
  recorder.set_round(kSplitRound);
  SpanRecorder* split_rec = opt.trace ? &recorder : nullptr;
  std::map<std::tuple<std::size_t, Algorithm, std::uint32_t>, Reference>
      references;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const CellUse& cell = w.cells[c];
    if (first[c].threw || !first[c].measurement.ok()) continue;
    const auto key =
        std::make_tuple(cell.dataset, cell.algorithm, cell.source);
    if (references.count(key) == 0) {
      references[key] =
          compute_reference(w, cell, loaded[cell.dataset], split_rec);
    }
    checks.expect(matches(cell.algorithm, references[key],
                          first[c].measurement.result.output),
                  cell_key(w, cell, opt.seed) +
                      " output differs from the reference");
  }

  RunReport report;
  report.setup_samples = setup_untraced.samples;
  report.run_samples = run_untraced.samples;
  const double setup_s = setup_untraced.cost();
  const double run_s = run_untraced.cost();
  if (opt.trace) {
    Counts counts;
    trace_layer_split(w, opt, loaded, digests, recorder, checks, counts);
    const double traced_total = setup_traced.cost() + run_traced.cost();
    report.metrics = report_layers(w, opt, recorder, counts, first,
                                   traced_total - (setup_s + run_s),
                                   setup_s + run_s, setup_traced.cost());
  } else {
    report.metrics = {
        {"setup_s", setup_s, "s"},
        {"run_s", run_s, "s"},
        {"total_s", setup_s + run_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  }
  report.attempted = checks.attempted();
  report.failed = checks.failed();
  return report;
}

}  // namespace hostbench
