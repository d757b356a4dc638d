#pragma once

#include <cstdint>
#include <functional>

#include "arch/config.hpp"
#include "sched/schedule.hpp"
#include "wear/policy.hpp"
#include "wear/usage_tracker.hpp"

/// \file simulator.hpp
/// The wear simulator: drives a wear-leveling policy over a network
/// schedule, tile by tile, accumulating per-PE usage counts — the
/// simulator the paper "composed to track the usage count of individual
/// PEs" (§V). A periodicity fast-forward (exact, property-tested) makes
/// thousand-iteration runs of billion-tile workloads tractable.

namespace rota::wear {

/// How much each utilization-space allocation adds to a PE's counter.
enum class WearMetric {
  /// One count per allocation — the paper's A_PE definition (Table I).
  kAllocations,
  /// Weight each allocation by the tile's per-PE busy time
  /// (allocations_per_tile × reduction_steps × compute MACs), modeling
  /// stress ∝ active cycles instead of activations. An extension used by
  /// the abl_weighting bench to show the conclusions are insensitive to
  /// the wear metric.
  kActiveCycles,
};

/// Simulator knobs.
struct SimulatorOptions {
  /// Use policies' exact bulk fast path where available. Disable to force
  /// the per-tile reference path (tests compare the two).
  bool fast_forward = true;
  WearMetric metric = WearMetric::kAllocations;
};

/// Drives policies over schedules and owns the usage counters.
///
/// Telemetry: each public run call tallies its per-layer counters
/// (`wear.layers`, `wear.tiles_fast_forwarded`, `wear.tiles_per_tile`,
/// `wear.fast_forward_hits`, `wear.fast_forward_misses`,
/// `wear.counter_updates`) in plain integers and publishes them to the
/// global MetricsRegistry once, when the call returns — the totals equal
/// one update per layer, but the registry is never touched per layer per
/// iteration.
class WearSimulator {
 public:
  explicit WearSimulator(arch::AcceleratorConfig cfg,
                         SimulatorOptions options = {});

  [[nodiscard]] const arch::AcceleratorConfig& config() const { return cfg_; }
  UsageTracker& tracker() { return tracker_; }
  [[nodiscard]] const UsageTracker& tracker() const { return tracker_; }

  /// Process one layer's tiles under `policy`.
  /// Throws util::precondition_error if the policy needs a torus but the
  /// configured array is a mesh, or if the schedule's utilization space
  /// does not fit the array.
  void run_layer(const sched::LayerSchedule& layer, Policy& policy);

  /// Process one full inference pass (all layers, in order).
  void run_iteration(const sched::NetworkSchedule& schedule, Policy& policy);

  /// Callback invoked after each iteration: (1-based iteration index,
  /// tracker). Used by the benches to sample D_max / R_diff transients.
  using IterationSampler =
      std::function<void(std::int64_t, const UsageTracker&)>;

  /// Run `iterations` inference passes; `sampler` may be empty.
  void run_iterations(const sched::NetworkSchedule& schedule, Policy& policy,
                      std::int64_t iterations,
                      const IterationSampler& sampler = {});

  /// Callback invoked after each iteration, like IterationSampler, but its
  /// return value controls continuation: `false` stops the run early.
  /// Used by fi::FaultSession (stop once the array can no longer absorb
  /// faults) and by checkpointed sweeps (stop at an interrupt boundary).
  using StoppingSampler =
      std::function<bool(std::int64_t, const UsageTracker&)>;

  /// Run up to `iterations` inference passes, stopping early when
  /// `sampler` returns false. Returns the number of iterations actually
  /// completed. An iteration is never torn: the sampler only runs at
  /// iteration boundaries, so usage counters always reflect a whole
  /// number of passes. \pre iterations >= 0, sampler non-empty.
  std::int64_t run_iterations_while(const sched::NetworkSchedule& schedule,
                                    Policy& policy, std::int64_t iterations,
                                    const StoppingSampler& sampler);

 private:
  struct Tally;

  void step_layer(const sched::LayerSchedule& layer, Policy& policy,
                  Tally& tally);
  void step_iteration(const sched::NetworkSchedule& schedule, Policy& policy,
                      Tally& tally);

  arch::AcceleratorConfig cfg_;
  SimulatorOptions options_;
  UsageTracker tracker_;
  bool allow_wrap_;
};

}  // namespace rota::wear
