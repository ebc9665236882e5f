// hostbench: host wall-clock benchmark of the graphbench libraries.
//
//   hostbench fill --workload W --seed N --cache DIR
//   hostbench run  --workload W --seed N --seconds S --trace 0|1
//                  --cache DIR --out DIR --expected DIR
//                  [--write-expected] [--commit C]
//
// `run` prints the run's tables and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}; it also writes the
// result set with its host context to DIR. run.py drives both commands.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "harness/json.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace hostbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hostbench: " << why << "\n"
            << "usage: hostbench fill --workload W --seed N --cache DIR\n"
            << "       hostbench run --workload W --seed N --seconds S "
               "--trace 0|1 --cache DIR --out DIR --expected DIR\n"
            << "                     [--write-expected] [--commit C]\n";
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

/// Shortest text that reads back as exactly this double.
std::string exact(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

/// The fixed calibration kernel: std::sort of 2^21 SplitMix64 values,
/// median of three, in ms. Recorded as context so numbers from machines
/// of different speed are never compared silently.
double calibration_sort_ms() {
  std::vector<std::uint64_t> base(std::size_t{1} << 21);
  gb::SplitMix64 rng(0x5eed);
  for (auto& x : base) x = rng.next();
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    auto data = base;
    const auto t0 = Clock::now();
    std::sort(data.begin(), data.end());
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[1];
}

std::string context_json(const std::string& commit, double calibration_ms) {
  gb::harness::JsonWriter json;
  json.begin_object();
  json.key("nproc");
  json.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.key("host_parallelism");
  json.value(std::uint64_t{1});
  json.key("build_type");
  json.value(HOSTBENCH_BUILD_TYPE);
  json.key("compiler");
#if defined(__clang__)
  json.value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  json.value(std::string("gcc ") + __VERSION__);
#else
  json.value("unknown");
#endif
  json.key("git_commit");
  json.value(commit);
  json.key("calibration_sort_ms");
  json.value(calibration_ms);
  json.key("calibration_kernel");
  json.value("std::sort of 2^21 SplitMix64 uint64, median of 3");
  json.end_object();
  return json.str();
}

std::string result_line(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + exact(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string samples_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + exact(v[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string command = argv[1];
  if (command != "run" && command != "fill") {
    usage("unknown command " + command);
  }

  std::map<std::string, std::string> flags;
  bool write_expected = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-expected") {
      write_expected = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[flag] = argv[++i];
    } else {
      usage("unexpected argument " + flag);
    }
  }
  const auto need = [&](const std::string& flag) {
    const auto it = flags.find(flag);
    if (it == flags.end()) usage("missing " + flag);
    return it->second;
  };

  RunOptions opt;
  opt.workload = find_workload(need("--workload"));
  if (opt.workload == nullptr) usage("unknown workload " + flags["--workload"]);
  opt.seed = parse_number<std::uint64_t>("--seed", need("--seed"));
  opt.cache_dir = need("--cache");

  try {
    if (command == "fill") {
      fill_cache(*opt.workload, opt.seed, opt.cache_dir);
      return 0;
    }
    opt.seconds = parse_number<double>("--seconds", need("--seconds"));
    const int trace = parse_number<int>("--trace", need("--trace"));
    if (trace != 0 && trace != 1) usage("--trace takes 0 or 1");
    opt.trace = trace == 1;
    opt.out_dir = need("--out");
    opt.expected_dir = need("--expected");
    opt.write_expected = write_expected;
    if (write_expected && opt.seed != 42) {
      usage("--write-expected records seed 42 only");
    }
    std::filesystem::create_directories(opt.out_dir);

    std::cout << "workload " << opt.workload->name << ", seed " << opt.seed
              << ", " << opt.seconds << " s, trace " << trace << "\n";
    const RunReport report = run_workload(opt);
    const std::string context =
        context_json(flags.count("--commit") ? flags["--commit"] : "none",
                     calibration_sort_ms());

    std::cout << "\ncontext " << context << "\n";
    std::printf("checks: %llu attempted, %llu failed, error_rate %s\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                exact(report.attempted > 0
                          ? static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted)
                          : 0.0)
                    .c_str());
    for (const Metric& m : report.metrics) {
      std::printf("  %-30s %16s %s\n", m.name.c_str(), exact(m.value).c_str(),
                  m.unit.c_str());
    }
    const std::string line = result_line(report);
    const std::string path =
        (std::filesystem::path(opt.out_dir) /
         (opt.workload->name + "-seed" + std::to_string(opt.seed) + "-trace" +
          std::to_string(trace) + ".json"))
            .string();
    std::ofstream(path) << "{\"context\": " << context
                        << ", \"setup_samples_s\": "
                        << samples_json(report.setup_samples)
                        << ", \"run_samples_s\": "
                        << samples_json(report.run_samples)
                        << ", \"result\": " << line << "}\n";
    std::cout << "result set: " << path << "\n" << line << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }
}
