#include "spans.h"

#include <fstream>

#include "core/error.h"
#include "harness/json.h"

namespace hostbench {

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), epoch_(Clock::now()) {}

std::size_t SpanRecorder::open(std::string layer, std::string name) {
  Span span;
  span.layer = std::move(layer);
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  span.round = round_;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_.back().start_s = seconds_between(epoch_, Clock::now());
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  const double now = seconds_between(epoch_, Clock::now());
  spans_[index].end_s = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration();
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].duration();
    }
  }
  return self;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  gb::harness::JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit");
  json.value("ms");
  json.key("traceEvents");
  json.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_object();
    json.key("name");
    json.value(s.name);
    json.key("cat");
    json.value(s.layer);
    json.key("ph");
    json.value("X");
    json.key("ts");
    json.value(s.start_s * 1e6);
    json.key("dur");
    json.value(s.duration() * 1e6);
    json.key("pid");
    json.value(std::uint64_t{1});
    json.key("tid");
    json.value(std::uint64_t{s.round == kSplitRound ? 0 : s.round + 1u});
    json.key("args");
    json.begin_object();
    json.key("workload");
    json.value(workload_);
    json.key("id");
    json.value(static_cast<std::uint64_t>(i));
    json.key("parent");
    if (s.parent >= 0) {
      json.value(static_cast<std::uint64_t>(s.parent));
    } else {
      json.null();
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  if (!out) throw gb::Error("cannot write trace file " + path);
}

}  // namespace hostbench
