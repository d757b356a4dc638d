#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file checks.hpp
/// Output checks, shared by every workload. Each takes plain values copied
/// out of the program's results and recomputes what it checks with its own
/// arithmetic (never by calling the program's code), and returns one
/// finding per violation: an empty list passes. tests/checks_test.cpp
/// feeds each one a hand-made bad output.

namespace rotabench {

using Findings = std::vector<std::string>;

/// Relative difference |a − b| / max(|a|, |b|), 0 when both are 0.
[[nodiscard]] double rel_diff(double a, double b);

// ------------------------------------------------------------ serve_mix

/// What the client saw of one reply, in the order it was consumed.
struct ReplyView {
  std::string id;
  bool ok = false;
  std::uint64_t seq = 0;
};

/// Every reply is ok, and replies come back in request order: the i-th
/// reply answers the i-th request and engine sequence numbers rise.
[[nodiscard]] Findings check_reply_order(
    const std::vector<std::string>& request_ids,
    const std::vector<ReplyView>& replies);

/// One utilization space of a schedule.
struct SpaceView {
  std::int64_t x = 0;
  std::int64_t y = 0;
  std::int64_t tiles = 0;
};

/// iterations * sum(tiles * x * y) / (w * h): the mean per-PE usage every
/// wear policy must reach, since policies move spaces but never add or
/// drop one.
[[nodiscard]] double expected_mean_usage(const std::vector<SpaceView>& layers,
                                         std::int64_t w, std::int64_t h,
                                         std::int64_t iterations);

/// Mean usage reported for one (workload, array, objective, iterations)
/// key under one policy.
struct MeanUsage {
  std::string key;
  std::string policy;
  double mean = 0.0;
};

/// Every reported mean of a key equals every other mean of that key and
/// the key's expected mean (relative 1e-12).
[[nodiscard]] Findings check_mean_usage(
    const std::vector<MeanUsage>& reported,
    const std::map<std::string, double>& expected);

/// Eq. 4 under uniform wear bounds the improvement: a policy cannot beat
/// perfectly even usage, so 1 <= improvement <= max_B / mean_B (relative
/// slack 1e-12 at both ends).
[[nodiscard]] Findings check_improvement_bound(const std::string& what,
                                               double improvement,
                                               double baseline_max,
                                               double baseline_mean);

// ----------------------------------------------------- degrade_timeline

/// The DegradeReport fields the checks read, and the plan they ran under.
struct DegradeView {
  std::int64_t horizon = 0;
  std::int64_t spares = 0;
  std::int64_t w = 0;
  std::int64_t h = 0;
  double beta = 0.0;
  std::int64_t iterations_run = 0;
  bool retired = false;
  std::int64_t lost_units = 0;
  std::int64_t faults_injected = 0;
  std::int64_t remaps = 0;
  std::int64_t unmapped_faults = 0;
  std::int64_t live_pes = 0;
  double mttf_final = 0.0;
  std::vector<double> live_alphas;
  std::int64_t mttf_tolerance = 0;
};

/// Relative agreement required between mttf_final and the benchmark's own
/// integral (README.md states it).
inline constexpr double kMttfTolerance = 1e-4;

/// Mean time to the (tolerance + 1)-th failure of independent Weibull PEs
/// (eta = 1, shape beta, PE i at rate alphas[i]): the integral of
/// P(at most `tolerance` failures by t), by a Poisson-binomial recursion
/// and composite Simpson quadrature. The tolerance is capped at n − 1.
[[nodiscard]] double k_out_of_n_mttf(const std::vector<double>& alphas,
                                     std::int64_t tolerance, double beta);

/// The run reached its horizon without retiring and lost no work; the
/// fault counts add up (faults = remaps + unmapped, remaps <= spares,
/// live = w*h − unmapped); mttf_final matches k_out_of_n_mttf within
/// kMttfTolerance.
[[nodiscard]] Findings check_degrade(const DegradeView& report);

/// Two renderings of one result are byte-identical.
[[nodiscard]] Findings check_same_text(const std::string& what,
                                       const std::string& a,
                                       const std::string& b);

// --------------------------------------------------------- design_sweep

/// Every layer has 1 <= x <= w, 1 <= y <= h and at least one tile.
[[nodiscard]] Findings check_spaces(const std::string& what,
                                    const std::vector<SpaceView>& layers,
                                    std::int64_t w, std::int64_t h);

/// One Pareto-front member.
struct FrontPoint {
  double energy = 0.0;
  double cycles = 0.0;
  double mttf = 0.0;
};

/// No member dominates another (<= energy, <= cycles, >= mttf, one
/// strict), and some member has exactly the energy-optimal schedule's
/// energy and cycles, which no member undercuts in energy.
[[nodiscard]] Findings check_front(const std::string& what,
                                   const std::vector<FrontPoint>& front,
                                   double optimum_energy,
                                   double optimum_cycles);

/// Eq. 4 from the usage grids: (sum a_B^beta)^(1/beta) /
/// (sum a_WL^beta)^(1/beta) equals `reported` to 1e-12 relative.
[[nodiscard]] Findings check_eq4(const std::string& what,
                                 const std::vector<double>& baseline_usage,
                                 const std::vector<double>& policy_usage,
                                 double beta, double reported);

/// Eq. 3 closed form with eta = 1: Gamma(1 + 1/beta) *
/// (sum a^beta)^(−1/beta).
[[nodiscard]] double serial_chain_mttf(const std::vector<double>& alphas,
                                       double beta);

/// The Monte-Carlo MTTF lies within 4 standard errors of
/// serial_chain_mttf.
[[nodiscard]] Findings check_monte_carlo(const std::string& what,
                                         const std::vector<double>& alphas,
                                         double beta, double mc_mttf,
                                         double mc_stderr);

}  // namespace rotabench
