#pragma once

#include "report.hpp"

/// \file workloads.hpp
/// The three workloads. Each runs whole rounds of one fixed set of
/// operations until `seconds` have passed, then checks every output.
/// Untraced, it returns the end-to-end metrics; traced, the per-layer
/// metrics (README.md lists both).

namespace rotabench {

/// Lanes of serve_mix's engine and of the 4-lane bases of the speed-up
/// and identity checks (the host has 4 vCPUs). design_sweep runs at 2.
inline constexpr int kLanes = 4;

[[nodiscard]] RunResult run_serve_mix(const RunSettings& settings);
[[nodiscard]] RunResult run_degrade_timeline(const RunSettings& settings);
[[nodiscard]] RunResult run_design_sweep(const RunSettings& settings);

}  // namespace rotabench
