#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

/// \file metrics.hpp
/// A process-wide registry of named counters, gauges and value histograms
/// — the measurement layer underneath every expensive path (mapper search,
/// wear fast-forward, Monte Carlo sampling). Designed so that leaving the
/// instrumentation compiled in costs one relaxed atomic load and a branch
/// per call site while disabled (the default): callers pass string_views
/// (no allocation) and every slow path lives behind the enabled() check.
///
/// Thread safety: enabling/recording/reading may happen concurrently from
/// any thread; the registry serializes mutation with one mutex and looks
/// each name up in a map, so an enabled call costs a lock and a lookup.
/// The rule for instrumented code: call the registry at most once per
/// public call, request or batch — never per layer per iteration. Hot
/// loops tally in plain locals and publish when the call returns (see
/// wear::WearSimulator).

namespace rota::obs {

/// Summary of a recorded value distribution (percentiles are computed
/// from all recorded samples, nearest-rank).
struct HistogramSummary {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// A consistent copy of the whole registry taken under one lock: the
/// substrate for live snapshots (obs/snapshot.hpp), which need the JSON
/// and OpenMetrics renderings of one instant to agree exactly.
struct MetricsExport {
  std::map<std::string, std::int64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, HistogramSummary, std::less<>> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The registry the built-in instrumentation reports to.
  static MetricsRegistry& global();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Add `delta` to counter `name` (created at zero on first use).
  void add(std::string_view name, std::int64_t delta = 1) {
    if (!enabled()) return;
    add_slow(name, delta);
  }

  /// Set gauge `name` to `value` (last write wins).
  void gauge(std::string_view name, double value) {
    if (!enabled()) return;
    gauge_slow(name, value);
  }

  /// Record one sample into histogram `name`.
  void observe(std::string_view name, double value) {
    if (!enabled()) return;
    observe_slow(name, value);
  }

  /// Current value of a counter (0 if never written).
  [[nodiscard]] std::int64_t counter(std::string_view name) const;

  /// Current value of a gauge (0.0 if never written).
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// Summary of a histogram (all-zero if never written).
  [[nodiscard]] HistogramSummary histogram(std::string_view name) const;

  /// Every counter, gauge and summarized histogram, copied under a single
  /// lock acquisition so the result is one consistent instant.
  [[nodiscard]] MetricsExport export_all() const;

  /// Sorted names of every metric recorded so far.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Drop all recorded metrics (the enabled flag is untouched).
  void reset();

  /// Emit one JSON object: name -> {"type": "counter"|"gauge"|"histogram",
  /// ...}. Counters carry "value"; gauges "value"; histograms
  /// "count"/"sum"/"min"/"max"/"p50"/"p95"/"p99".
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string json() const;

  /// Human-readable rendering via util::TextTable (one row per metric).
  [[nodiscard]] std::string table() const;

 private:
  void add_slow(std::string_view name, std::int64_t delta)
      ROTA_EXCLUDES(mu_);
  void gauge_slow(std::string_view name, double value) ROTA_EXCLUDES(mu_);
  void observe_slow(std::string_view name, double value) ROTA_EXCLUDES(mu_);

  /// Lock-free fast-path flag (read before every record); deliberately
  /// outside the capability model — it guards *cost*, not data.
  std::atomic<bool> enabled_{false};
  mutable util::Mutex mu_;
  std::map<std::string, std::int64_t, std::less<>> counters_
      ROTA_GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ ROTA_GUARDED_BY(mu_);
  std::map<std::string, std::vector<double>, std::less<>> histograms_
      ROTA_GUARDED_BY(mu_);
};

/// Emit `ex` as the canonical metrics JSON object (the exact body of
/// MetricsRegistry::write_json). Shared by the exit-time report and the
/// live snapshot publisher so the two renderings can never drift.
void write_metrics_json(std::ostream& out, const MetricsExport& ex);

/// RAII timer: records the elapsed wall time in seconds into histogram
/// `name` on destruction (or stop()). Arms itself only if the registry is
/// enabled at construction, so the disabled cost is one branch.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name,
                       MetricsRegistry& registry = MetricsRegistry::global());
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Record now instead of at scope exit; further calls are no-ops.
  void stop();

 private:
  MetricsRegistry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_{};
  bool armed_ = false;
};

}  // namespace rota::obs
