#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace rotabench {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// P(at most `tolerance` of the PEs have failed by t).
double survival(const std::vector<double>& alphas, std::int64_t tolerance,
                double beta, double t, std::vector<double>& dp) {
  const auto states = static_cast<std::size_t>(tolerance) + 1;
  dp.assign(states, 0.0);
  dp[0] = 1.0;
  for (const double a : alphas) {
    const double fail = -std::expm1(-std::pow(a * t, beta));
    for (std::size_t j = states; j-- > 0;) {
      dp[j] = dp[j] * (1.0 - fail) + (j > 0 ? dp[j - 1] * fail : 0.0);
    }
  }
  double r = 0.0;
  for (const double p : dp) r += p;
  return r;
}

}  // namespace

double rel_diff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

Findings check_reply_order(const std::vector<std::string>& request_ids,
                           const std::vector<ReplyView>& replies) {
  Findings out;
  if (replies.size() != request_ids.size()) {
    out.push_back("serve: " + std::to_string(replies.size()) +
                  " replies for " + std::to_string(request_ids.size()) +
                  " requests");
  }
  const std::size_t n = std::min(replies.size(), request_ids.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!replies[i].ok) out.push_back("serve: reply " + replies[i].id + " is not ok");
    if (replies[i].id != request_ids[i]) {
      out.push_back("serve: reply " + std::to_string(i) + " answers '" +
                    replies[i].id + "', expected '" + request_ids[i] + "'");
    }
    if (i > 0 && replies[i].seq <= replies[i - 1].seq) {
      out.push_back("serve: reply " + std::to_string(i) +
                    " carries sequence " + std::to_string(replies[i].seq) +
                    " after " + std::to_string(replies[i - 1].seq));
    }
  }
  return out;
}

double expected_mean_usage(const std::vector<SpaceView>& layers,
                           std::int64_t w, std::int64_t h,
                           std::int64_t iterations) {
  std::int64_t per_iteration = 0;
  for (const SpaceView& l : layers) per_iteration += l.tiles * l.x * l.y;
  return static_cast<double>(per_iteration * iterations) /
         static_cast<double>(w * h);
}

Findings check_mean_usage(const std::vector<MeanUsage>& reported,
                          const std::map<std::string, double>& expected) {
  Findings out;
  for (const MeanUsage& m : reported) {
    const auto found = expected.find(m.key);
    if (found == expected.end()) {
      out.push_back("mean usage: no expected value for " + m.key);
    } else if (rel_diff(m.mean, found->second) > 1e-12) {
      out.push_back("mean usage of " + m.key + " under " + m.policy + " is " +
                    fmt(m.mean) + ", expected " + fmt(found->second));
    }
  }
  return out;
}

Findings check_improvement_bound(const std::string& what, double improvement,
                                 double baseline_max, double baseline_mean) {
  const double upper = baseline_max / baseline_mean;
  if (improvement >= 1.0 - 1e-12 && improvement <= upper * (1.0 + 1e-12)) {
    return {};
  }
  return {what + ": improvement " + fmt(improvement) + " outside [1, " +
          fmt(upper) + "]"};
}

double k_out_of_n_mttf(const std::vector<double>& alphas,
                       std::int64_t tolerance, double beta) {
  const auto n = static_cast<std::int64_t>(alphas.size());
  tolerance = std::clamp<std::int64_t>(tolerance, 0, n - 1);
  double a_max = 0.0;
  for (const double a : alphas) a_max = std::max(a_max, a);
  if (a_max <= 0.0) return 0.0;
  std::vector<double> dp;
  double horizon = 1.0 / a_max;
  for (int doubling = 0; doubling < 256 &&
                         survival(alphas, tolerance, beta, horizon, dp) > 1e-16;
       ++doubling) {
    horizon *= 2.0;
  }
  constexpr int kIntervals = 4096;  // even, for Simpson
  const double step = horizon / kIntervals;
  double sum = 1.0 + survival(alphas, tolerance, beta, horizon, dp);
  for (int i = 1; i < kIntervals; ++i) {
    sum += (i % 2 == 1 ? 4.0 : 2.0) *
           survival(alphas, tolerance, beta, step * i, dp);
  }
  return sum * step / 3.0;
}

Findings check_degrade(const DegradeView& r) {
  Findings out;
  const auto fail = [&out](const std::string& what) {
    out.push_back("degrade: " + what);
  };
  if (r.retired) fail("retired before the horizon");
  if (r.iterations_run != r.horizon) {
    fail("ran " + std::to_string(r.iterations_run) + " of " +
         std::to_string(r.horizon) + " iterations");
  }
  if (r.lost_units != 0) fail("lost " + std::to_string(r.lost_units) + " units");
  if (r.faults_injected != r.remaps + r.unmapped_faults) {
    fail(std::to_string(r.faults_injected) + " faults != " +
         std::to_string(r.remaps) + " remaps + " +
         std::to_string(r.unmapped_faults) + " unmapped");
  }
  if (r.remaps > r.spares) {
    fail(std::to_string(r.remaps) + " remaps with " +
         std::to_string(r.spares) + " spares");
  }
  if (r.live_pes != r.w * r.h - r.unmapped_faults) {
    fail(std::to_string(r.live_pes) + " live PEs, expected " +
         std::to_string(r.w * r.h - r.unmapped_faults));
  }
  const double want = k_out_of_n_mttf(r.live_alphas, r.mttf_tolerance, r.beta);
  if (!(rel_diff(r.mttf_final, want) <= kMttfTolerance)) {
    fail("mttf_final " + fmt(r.mttf_final) + " vs integral " + fmt(want));
  }
  return out;
}

Findings check_same_text(const std::string& what, const std::string& a,
                         const std::string& b) {
  if (a == b) return {};
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  return {what + ": outputs differ from byte " + std::to_string(at)};
}

Findings check_spaces(const std::string& what,
                      const std::vector<SpaceView>& layers, std::int64_t w,
                      std::int64_t h) {
  Findings out;
  if (layers.empty()) out.push_back(what + ": schedule has no layers");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const SpaceView& l = layers[i];
    if (l.x < 1 || l.x > w || l.y < 1 || l.y > h || l.tiles < 1) {
      out.push_back(what + ": layer " + std::to_string(i) + " has space " +
                    std::to_string(l.x) + "x" + std::to_string(l.y) + " and " +
                    std::to_string(l.tiles) + " tiles on a " +
                    std::to_string(w) + "x" + std::to_string(h) + " array");
    }
  }
  return out;
}

Findings check_front(const std::string& what,
                     const std::vector<FrontPoint>& front,
                     double optimum_energy, double optimum_cycles) {
  Findings out;
  const auto dominates = [](const FrontPoint& a, const FrontPoint& b) {
    const bool no_worse = a.energy <= b.energy && a.cycles <= b.cycles &&
                          a.mttf >= b.mttf;
    const bool better = a.energy < b.energy || a.cycles < b.cycles ||
                        a.mttf > b.mttf;
    return no_worse && better;
  };
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i != j && dominates(front[i], front[j])) {
        out.push_back(what + ": front member " + std::to_string(i) +
                      " dominates member " + std::to_string(j));
      }
    }
  }
  bool holds = false;
  for (const FrontPoint& p : front) {
    holds = holds || (p.energy == optimum_energy && p.cycles == optimum_cycles);
    if (p.energy < optimum_energy) {
      out.push_back(what + ": front member with energy " + fmt(p.energy) +
                    " undercuts the energy optimum " + fmt(optimum_energy));
    }
  }
  if (!holds) out.push_back(what + ": front lacks the energy-optimal point");
  return out;
}

Findings check_eq4(const std::string& what,
                   const std::vector<double>& baseline_usage,
                   const std::vector<double>& policy_usage, double beta,
                   double reported) {
  const auto norm = [beta](const std::vector<double>& usage) {
    double sum = 0.0;
    for (const double a : usage) sum += std::pow(a, beta);
    return std::pow(sum, 1.0 / beta);
  };
  const double want = norm(baseline_usage) / norm(policy_usage);
  if (rel_diff(want, reported) <= 1e-12) return {};
  return {what + ": improvement " + fmt(reported) + ", Eq. 4 gives " +
          fmt(want)};
}

double serial_chain_mttf(const std::vector<double>& alphas, double beta) {
  double sum = 0.0;
  for (const double a : alphas) sum += std::pow(a, beta);
  return std::tgamma(1.0 + 1.0 / beta) * std::pow(sum, -1.0 / beta);
}

Findings check_monte_carlo(const std::string& what,
                           const std::vector<double>& alphas, double beta,
                           double mc_mttf, double mc_stderr) {
  const double want = serial_chain_mttf(alphas, beta);
  if (mc_stderr > 0.0 && std::fabs(mc_mttf - want) <= 4.0 * mc_stderr) {
    return {};
  }
  return {what + ": Monte-Carlo MTTF " + fmt(mc_mttf) + " (stderr " +
          fmt(mc_stderr) + ") vs closed form " + fmt(want)};
}

}  // namespace rotabench
