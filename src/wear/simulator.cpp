#include "wear/simulator.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace rota::wear {

/// The per-layer counters of one public run call, kept in plain integers
/// and published to the global registry when the call returns (normally
/// or by exception): one add per counter per call, so the registry's lock
/// and name lookup stay off the per-layer-per-iteration path while every
/// total stays what per-layer updates would give.
struct WearSimulator::Tally {
  std::int64_t layers = 0;
  std::int64_t tiles_fast_forwarded = 0;
  std::int64_t tiles_per_tile = 0;
  std::int64_t fast_forward_hits = 0;
  std::int64_t fast_forward_misses = 0;
  std::int64_t counter_updates = 0;

  Tally() = default;
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;
  ~Tally() {
    auto& reg = obs::MetricsRegistry::global();
    if (layers == 0 || !reg.enabled()) return;
    reg.add("wear.layers", layers);
    reg.add("wear.tiles_fast_forwarded", tiles_fast_forwarded);
    reg.add("wear.tiles_per_tile", tiles_per_tile);
    // Which path handled each layer: exact periodicity fast path vs. the
    // per-tile reference fallback (partial bulk consumption counts both).
    if (fast_forward_hits > 0) {
      reg.add("wear.fast_forward_hits", fast_forward_hits);
    }
    if (fast_forward_misses > 0) {
      reg.add("wear.fast_forward_misses", fast_forward_misses);
    }
    reg.add("wear.counter_updates", counter_updates);
  }
};

WearSimulator::WearSimulator(arch::AcceleratorConfig cfg,
                             SimulatorOptions options)
    : cfg_(std::move(cfg)),
      options_(options),
      tracker_(cfg_.array_width, cfg_.array_height),
      allow_wrap_(cfg_.topology == arch::TopologyKind::kTorus2D) {
  cfg_.validate();
}

void WearSimulator::run_layer(const sched::LayerSchedule& layer,
                              Policy& policy) {
  Tally tally;
  step_layer(layer, policy, tally);
}

void WearSimulator::step_layer(const sched::LayerSchedule& layer,
                               Policy& policy, Tally& tally) {
  const sched::UtilSpace& space = layer.space;
  ROTA_REQUIRE(space.x >= 1 && space.x <= cfg_.array_width &&
                   space.y >= 1 && space.y <= cfg_.array_height,
               "utilization space does not fit the PE array: " +
                   layer.layer_name);
  ROTA_REQUIRE(policy.width() == cfg_.array_width &&
                   policy.height() == cfg_.array_height,
               "policy was built for a different array size");
  ROTA_REQUIRE(!policy.requires_torus() || allow_wrap_,
               "policy " + policy.name() +
                   " needs torus connections, but the configured array is a "
                   "mesh");

  std::int64_t weight = 1;
  if (options_.metric == WearMetric::kActiveCycles) {
    // Per-PE busy time of one data tile. Pre-grouping schedules built by
    // hand may leave the hierarchy fields at their defaults.
    const std::int64_t per_output =
        std::max<std::int64_t>(1, layer.compute_macs_per_pe) *
        std::max<std::int64_t>(1, layer.reduction_steps);
    weight = per_output * std::max<std::int64_t>(1, layer.allocations_per_tile);
  }

  policy.begin_layer(space);
  std::int64_t remaining = layer.tiles;
  std::int64_t fast_forwarded = 0;
  if (options_.fast_forward && remaining > 0) {
    fast_forwarded = policy.bulk_process(space, remaining, tracker_,
                                         allow_wrap_, weight);
    remaining -= fast_forwarded;
    ROTA_ENSURE(remaining >= 0, "bulk_process consumed more tiles than given");
  }
  const std::int64_t per_tile = remaining;
  // Deliberately per-tile, not buffered through UsageTracker::add_spaces:
  // the tracker's amortized overflow budget already keeps this loop free
  // of checked arithmetic, and staging origins through a batch array
  // measured ~20% slower here (the memory round-trip costs more than the
  // interleaving it avoids).
  for (; remaining > 0; --remaining) {
    const Placement at = policy.next_origin(space);
    tracker_.add_space(at.u, at.v, space.x, space.y, weight, allow_wrap_);
  }

  ++tally.layers;
  tally.tiles_fast_forwarded += fast_forwarded;
  tally.tiles_per_tile += per_tile;
  if (fast_forwarded > 0) ++tally.fast_forward_hits;
  if (per_tile > 0) ++tally.fast_forward_misses;
  tally.counter_updates += layer.tiles * space.x * space.y;
}

void WearSimulator::step_iteration(const sched::NetworkSchedule& schedule,
                                   Policy& policy, Tally& tally) {
  for (const auto& layer : schedule.layers) step_layer(layer, policy, tally);
}

void WearSimulator::run_iteration(const sched::NetworkSchedule& schedule,
                                  Policy& policy) {
  Tally tally;
  step_iteration(schedule, policy, tally);
}

void WearSimulator::run_iterations(const sched::NetworkSchedule& schedule,
                                   Policy& policy, std::int64_t iterations,
                                   const IterationSampler& sampler) {
  ROTA_REQUIRE(iterations >= 0, "iteration count must be non-negative");
  const std::string& label = schedule.network_abbr.empty()
                                 ? schedule.network_name
                                 : schedule.network_abbr;
  const obs::TraceSpan span(policy.name() + (label.empty() ? "" : " " + label),
                            "wear.run");
  obs::ProgressReporter progress("wear " + policy.name() +
                                     (label.empty() ? "" : " " + label),
                                 iterations);
  Tally tally;
  for (std::int64_t it = 1; it <= iterations; ++it) {
    step_iteration(schedule, policy, tally);
    progress.tick();
    if (sampler) sampler(it, tracker_);
  }
  obs::MetricsRegistry::global().add("wear.iterations", iterations);
}

std::int64_t WearSimulator::run_iterations_while(
    const sched::NetworkSchedule& schedule, Policy& policy,
    std::int64_t iterations, const StoppingSampler& sampler) {
  ROTA_REQUIRE(iterations >= 0, "iteration count must be non-negative");
  ROTA_REQUIRE(static_cast<bool>(sampler),
               "run_iterations_while needs a stopping sampler; use "
               "run_iterations for unconditional runs");
  const obs::TraceSpan span(policy.name(), "wear.run_while");
  Tally tally;
  std::int64_t done = 0;
  for (std::int64_t it = 1; it <= iterations; ++it) {
    step_iteration(schedule, policy, tally);
    done = it;
    if (!sampler(it, tracker_)) break;
  }
  obs::MetricsRegistry::global().add("wear.iterations", done);
  return done;
}

}  // namespace rota::wear
