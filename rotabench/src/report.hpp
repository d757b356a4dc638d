#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

/// \file report.hpp
/// What a workload hands back to main(): the end-to-end or per-layer
/// metrics, the operation counts and the check findings, plus the small
/// statistics the workloads share.

namespace rotabench {

/// Command-line settings every workload receives.
struct RunSettings {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< traced mode: where the spans are written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Check findings; any entry makes the run incorrect.
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record the findings of one check (an empty list passes).
  void check(const std::vector<std::string>& findings) {
    problems.insert(problems.end(), findings.begin(), findings.end());
  }
};

/// Median (mean of the middle pair for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile p in (0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Mean of the values beyond the nearest-rank percentile p (at least the
/// largest one); 0 when empty.
[[nodiscard]] double mean_beyond(std::vector<double> values, double p);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// The end-to-end metrics every workload prints (BENCHMARK.json order):
/// set-up median, round wall median, peak RSS, ops per round over the
/// median round wall, and the op latency median and tail (README.md).
void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const std::vector<double>& round_s, double ops_per_round,
                    double latency_p50_ms, double latency_tail_ms);

/// Every per-layer metric name with its unit (BENCHMARK.json order). A
/// traced run prints all of them; a layer its workload does not run
/// reads 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetricSpec>& per_layer_metrics();

/// Fill `result` with the per-layer metrics: the values in `known` (by
/// name), 0 for the rest, plus each layer's self time per round from
/// `spans` as "<layer>.self_ms".
void add_per_layer(RunResult& result, std::map<std::string, double> known,
                   const Spans& spans, double rounds);

/// The one-line JSON result main() prints last.
[[nodiscard]] std::string result_json(const RunResult& result);

}  // namespace rotabench
