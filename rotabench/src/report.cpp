#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace rotabench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean_beyond(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const std::size_t first = std::min(rank, values.size() - 1);
  double total = 0.0;
  for (std::size_t i = first; i < values.size(); ++i) total += values[i];
  return total / static_cast<double>(values.size() - first);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const std::vector<double>& round_s, double ops_per_round,
                    double latency_p50_ms, double latency_tail_ms) {
  const double wall_s = median(round_s);
  result.add("setup_s", median(setup_s), "s");
  result.add("wall_s", wall_s, "s");
  result.add("peak_rss_mib", peak_rss_mib(), "MiB");
  result.add("ops_per_s", ops_per_round / wall_s, "1/s");
  result.add("op_latency_p50_ms", latency_p50_ms, "ms");
  result.add("op_latency_tail_ms", latency_tail_ms, "ms");
}

const std::vector<LayerMetricSpec>& per_layer_metrics() {
  static const std::vector<LayerMetricSpec> kMetrics = {
      {"nn.build_ms", "ms"},
      {"sched.search_ms", "ms"},
      {"sched.searches", "count"},
      {"sched.pareto_ms", "ms"},
      {"sched.front_points", "count"},
      {"svc.compute_ms_p50", "ms"},
      {"svc.wait_ms_p50", "ms"},
      {"svc.parse_ms", "ms"},
      {"svc.emit_ms", "ms"},
      {"svc.cache_hit_ratio", "ratio"},
      {"svc.cache_lookups", "count"},
      {"obs.overhead_ratio", "ratio"},
      {"obs.snapshot_ms", "ms"},
      {"obs.histogram_samples", "count"},
      {"core.experiment_ms", "ms"},
      {"wear.run_ms", "ms"},
      {"wear.tiles", "count"},
      {"wear.tiles_per_s", "1/s"},
      {"rel.closed_form_ms", "ms"},
      {"rel.mc_ms", "ms"},
      {"mc.trials_per_s", "1/s"},
      {"par.mc_speedup", "x"},
      {"par.serve_speedup", "x"},
      {"par.degrade_speedup", "x"},
      {"fi.iter_us_intact", "us"},
      {"fi.iter_us_degraded", "us"},
      {"fi.reschedules", "count"},
      {"fi.remaps", "count"},
      {"fi.faults_injected", "count"},
      {"trace.overhead_s", "s"},
      {"sched.self_ms", "ms"},
      {"svc.self_ms", "ms"},
      {"core.self_ms", "ms"},
      {"wear.self_ms", "ms"},
      {"rel.self_ms", "ms"},
      {"fi.self_ms", "ms"},
  };
  return kMetrics;
}

void add_per_layer(RunResult& result, std::map<std::string, double> known,
                   const Spans& spans, double rounds) {
  for (const auto& [layer, self_ms] : spans.self_ms_by_layer()) {
    known.emplace(layer + ".self_ms", self_ms / rounds);
  }
  for (const LayerMetricSpec& spec : per_layer_metrics()) {
    const auto found = known.find(spec.name);
    result.add(spec.name, found == known.end() ? 0.0 : found->second,
               spec.unit);
  }
}

std::string result_json(const RunResult& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.problems.empty() ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace rotabench
