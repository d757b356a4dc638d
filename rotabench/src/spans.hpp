#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file spans.hpp
/// The traced mode's span recorder. Spans are opened and closed by the
/// benchmark's own code around each call into a program layer, on the one
/// client thread, so they nest strictly. They are kept in memory and
/// written out once, when the run ends. A disabled recorder reads no clock.

namespace rotabench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "sched.search"
  double start = 0.0; ///< seconds since the recorder was made
  double end = 0.0;
  int parent = -1;    ///< index of the enclosing span, -1 at top level
};

struct SpanTotals {
  double total_ms = 0.0;  ///< summed span durations
  double self_ms = 0.0;   ///< durations minus their direct children's
  std::int64_t count = 0;
};

class Spans {
 public:
  explicit Spans(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Totals by span name.
  [[nodiscard]] std::map<std::string, SpanTotals> by_name() const;
  /// Self time by layer (the span-name prefix before the first '.').
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Write every span as one JSON document; false if the file failed.
  bool write_json(const std::string& path) const;

 private:
  int open(const char* name);
  void close(int index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace rotabench
