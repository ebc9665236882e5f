// In-memory span recorder for the benchmark's traced mode.
//
// A span is a named, nested wall-clock interval around one call the
// benchmark makes into a library layer (e.g. GraphBuilder::build is a
// "core" span). Spans stay in memory and are written out once, at the
// end, as Chrome trace-event JSON. The recorder is single-threaded: the
// benchmark issues its calls from one thread, and the libraries' own
// pool threads are not traced (spans inside the program are out of
// scope; only the benchmark's calls into each layer are wrapped).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string layer;    // src/ module the call belongs to, e.g. "core"
  std::string name;     // metric name, e.g. "core.build_s.Synth"
  double start_s = 0.0; // seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;      // index of the enclosing span, -1 for a root
  std::uint32_t round = 0;  // timed repetition, or kSplitRound

  double duration() const { return end_s - start_s; }
};

/// Round id of the spans recorded by the traced-only layer split.
inline constexpr std::uint32_t kSplitRound = 0xffffffffu;

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);

  /// Spans opened from now on carry this round id.
  void set_round(std::uint32_t round) { round_ = round; }

  std::size_t open(std::string layer, std::string name);
  void close(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its children's.
  std::vector<double> self_seconds() const;

  /// Chrome trace-event JSON ("X" complete events; tid = round). Throws
  /// gb::Error when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::string workload_;
  Clock::time_point epoch_;
  std::uint32_t round_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
};

/// Scope guard: one span around its lifetime. A null recorder makes it a
/// no-op, which is how the untraced (timed) rounds run the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string layer, std::string name)
      : recorder_(recorder) {
    if (recorder_) index_ = recorder_->open(std::move(layer), std::move(name));
  }
  ~ScopedSpan() {
    if (recorder_) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_ = 0;
};

}  // namespace hostbench
