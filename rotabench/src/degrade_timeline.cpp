// degrade_timeline: fi::run_degraded_lifetime on AlexNet at 14x12 with
// RWL+RO, the energy objective and fault-aware repair, at 1 lane with
// telemetry off. A round ages the array through kTimelines seeded fault
// timelines; each has 2 spares, one early pe= fault and Weibull-timed
// strikes on distinct PEs, so the pool runs out early and most of the
// horizon is masked, degraded-array stepping between reschedules.

#include <sstream>

#include "arch/config.hpp"
#include "checks.hpp"
#include "fi/degrade.hpp"
#include "fi/plan.hpp"
#include "gen.hpp"
#include "nn/workloads.hpp"
#include "reliability/weibull.hpp"
#include "workloads.hpp"

namespace rotabench {

using namespace rota;

namespace {

constexpr Geometry kArray{14, 12};
constexpr std::int64_t kHorizon = 4096;
constexpr int kTimelines = 16;
constexpr std::int64_t kSpares = 2;
constexpr int kStrikes = 12;
/// Strikes spread over the first half of the horizon; the second half ages
/// the degraded array with no further fault.
constexpr double kStrikeWindow = 0.5;
constexpr int kSetups = 9;
/// A round times 65k iterations, so p99 has hundreds beyond it.
constexpr double kTailPct = 99.0;

/// One run of one timeline, with the host time of every iteration.
struct Aged {
  fi::DegradeReport report;
  std::vector<double> iter_us;  ///< iteration i's host time, microseconds
  double wall_s = 0.0;
};

Aged age(const arch::AcceleratorConfig& accel, const nn::Network& net,
         const fi::DegradeOptions& options, Spans& spans) {
  Aged aged;
  std::vector<Clock::time_point> stamps;
  stamps.reserve(static_cast<std::size_t>(options.iterations));
  // Called once per iteration; never asks the engine to stop.
  const fi::DegradeStopCheck stamp = [&stamps] {
    stamps.push_back(Clock::now());
    return false;
  };
  const Clock::time_point start = Clock::now();
  {
    const Spans::Scope span(spans, "fi.run");
    aged.report = fi::run_degraded_lifetime(accel, net, options, stamp);
  }
  aged.wall_s = seconds_between(start, Clock::now());
  aged.iter_us.reserve(stamps.size());
  Clock::time_point prev = start;
  for (const Clock::time_point& t : stamps) {
    aged.iter_us.push_back(seconds_between(prev, t) * 1e6);
    prev = t;
  }
  return aged;
}

/// The first iteration run under a rebuilt schedule (timeline CSV), or the
/// horizon when the pool absorbed every fault.
std::int64_t first_reschedule(const std::string& csv, std::int64_t horizon) {
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t comma = line.find(',');
    if (comma != std::string::npos &&
        line.compare(comma + 1, 11, "reschedule,") == 0) {
      return std::stoll(line.substr(0, comma));
    }
  }
  return horizon;
}

DegradeView view_of(const fi::DegradeReport& r, const fi::DegradeOptions& o) {
  DegradeView v;
  v.horizon = o.iterations;
  v.spares = o.spares;
  v.w = kArray.w;
  v.h = kArray.h;
  v.beta = o.beta;
  v.iterations_run = r.iterations_run;
  v.retired = r.retired;
  v.lost_units = r.lost_units;
  v.faults_injected = r.faults_injected;
  v.remaps = r.remaps;
  v.unmapped_faults = r.unmapped_faults;
  v.live_pes = r.live_pes;
  v.mttf_final = r.mttf_final;
  v.live_alphas = r.live_alphas;
  v.mttf_tolerance = r.mttf_tolerance;
  return v;
}

using Round = std::vector<Aged>;

Round age_round(const arch::AcceleratorConfig& accel, const nn::Network& net,
                const std::vector<fi::DegradeOptions>& timelines, int lanes,
                Spans& spans) {
  Round round;
  for (fi::DegradeOptions options : timelines) {
    options.threads = lanes;
    round.push_back(age(accel, net, options, spans));
  }
  return round;
}

double round_wall(const Round& round) {
  double total = 0.0;
  for (const Aged& a : round) total += a.wall_s;
  return total;
}

/// What a round leaves once its iteration times are folded.
struct RoundSummary {
  double wall_s = 0.0;
  double p50_ms = 0.0;       ///< median iteration host time
  double tail_ms = 0.0;      ///< kTailPct iteration host time
  double intact_us = 0.0;    ///< median before the first reschedule
  double degraded_us = 0.0;  ///< median from the first reschedule on
  std::vector<std::string> csv;  ///< each timeline's CSV
};

RoundSummary summarize(const Round& round) {
  RoundSummary summary;
  summary.wall_s = round_wall(round);
  std::vector<double> all_us;
  std::vector<double> intact_us;
  std::vector<double> degraded_us;
  for (const Aged& a : round) {
    const std::int64_t split = first_reschedule(a.report.timeline_csv, kHorizon);
    for (std::size_t i = 0; i < a.iter_us.size(); ++i) {
      all_us.push_back(a.iter_us[i]);
      (static_cast<std::int64_t>(i) < split ? intact_us : degraded_us)
          .push_back(a.iter_us[i]);
    }
    summary.csv.push_back(a.report.timeline_csv);
  }
  summary.p50_ms = median(all_us) / 1e3;
  summary.tail_ms = percentile(all_us, kTailPct) / 1e3;
  summary.intact_us = median(intact_us);
  summary.degraded_us = median(degraded_us);
  return summary;
}

}  // namespace

RunResult run_degrade_timeline(const RunSettings& settings) {
  RunResult result;
  arch::AcceleratorConfig accel = arch::rota_like();
  accel.array_width = kArray.w;
  accel.array_height = kArray.h;

  // ---- set-up: the network, the fault plans and one short warm-up run --
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  nn::Network net = nn::workload_by_abbr("AN");
  std::vector<fi::DegradeOptions> timelines;
  Spans no_spans(false);
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    net = nn::workload_by_abbr("AN");
    build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    timelines.clear();
    for (const DegradePlan& plan :
         degrade_plans(settings.seed, kTimelines, kArray, kHorizon, kSpares,
                       kStrikes, rel::kJedecShape, kStrikeWindow)) {
      fi::DegradeOptions options;
      options.iterations = plan.horizon;
      options.spares = plan.spares;
      options.seed = plan.seed;
      options.beta = rel::kJedecShape;
      options.mode = fi::DegradeMode::kFaultAware;
      options.policy = wear::PolicyKind::kRwlRo;
      options.threads = 1;
      options.workload_tag = "AN";
      for (const std::string& spec : plan.faults) {
        options.faults.push_back(fi::parse_hardware_fault(spec).value());
      }
      timelines.push_back(std::move(options));
    }
    fi::DegradeOptions warm = timelines.front();
    warm.iterations = 64;
    warm.faults.resize(1);
    (void)age(accel, net, warm, no_spans);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // ---- the measured rounds ---------------------------------------------
  // Rounds repeat the same timelines. The first is kept whole for the
  // checks; later ones keep only their summary and CSVs, so memory does
  // not grow with the number of rounds a run fits in.
  Spans spans(settings.trace);
  Round first;
  std::vector<RoundSummary> rounds;
  const Clock::time_point start = Clock::now();
  while (rounds.size() < 2 ||
         seconds_between(start, Clock::now()) < settings.seconds) {
    Round round = age_round(accel, net, timelines, 1, spans);
    rounds.push_back(summarize(round));
    if (first.empty()) first = std::move(round);
  }
  const auto n_rounds = static_cast<double>(rounds.size());
  const auto each = [&rounds](double RoundSummary::*field) {
    std::vector<double> values;
    for (const RoundSummary& r : rounds) values.push_back(r.*field);
    return values;
  };
  const std::vector<double> round_s = each(&RoundSummary::wall_s);

  // The same timelines at 4 lanes: identical CSVs, and the speed-up base.
  // Untraced runs check the first timeline only; traced runs time them all.
  const Round wide = age_round(
      accel, net,
      settings.trace ? timelines
                     : std::vector<fi::DegradeOptions>{timelines.front()},
      kLanes, no_spans);

  if (!settings.trace) {
    // Medians over rounds: a burst of load from outside the benchmark
    // moves one round, not the figure.
    add_end_to_end(result, setup_s, round_s,
                   static_cast<double>(kHorizon * kTimelines),
                   median(each(&RoundSummary::p50_ms)),
                   median(each(&RoundSummary::tail_ms)));
  } else {
    Spans off(false);
    const Round untraced = age_round(accel, net, timelines, 1, off);
    std::int64_t reschedules = 0;
    std::int64_t remaps = 0;
    std::int64_t faults = 0;
    for (const Aged& a : first) {
      reschedules += a.report.reschedules;
      remaps += a.report.remaps;
      faults += a.report.faults_injected;
    }
    add_per_layer(
        result,
        {
            {"nn.build_ms", median(build_ms)},
            {"par.degrade_speedup", median(round_s) / round_wall(wide)},
            {"fi.iter_us_intact", median(each(&RoundSummary::intact_us))},
            {"fi.iter_us_degraded", median(each(&RoundSummary::degraded_us))},
            {"fi.reschedules", static_cast<double>(reschedules)},
            {"fi.remaps", static_cast<double>(remaps)},
            {"fi.faults_injected", static_cast<double>(faults)},
            {"trace.overhead_s", median(round_s) - round_wall(untraced)},
        },
        spans, n_rounds);
    if (!settings.spans_path.empty() && !spans.write_json(settings.spans_path)) {
      result.problems.push_back("could not write " + settings.spans_path);
    }
  }

  // ---- checks ----------------------------------------------------------
  // The first round is checked in full; every later one, and the 4-lane
  // one, must reproduce its timeline CSVs byte for byte.
  for (std::size_t k = 0; k < first.size(); ++k) {
    const std::string what = "degrade timeline " + std::to_string(k);
    const Findings found =
        check_degrade(view_of(first[k].report, timelines[k]));
    result.check(found);
    for (const RoundSummary& round : rounds) {
      const Findings same =
          check_same_text(what + " CSV across rounds",
                          first[k].report.timeline_csv, round.csv[k]);
      result.check(same);
      result.attempted += kHorizon;
      if (!found.empty() || !same.empty()) result.failed += kHorizon;
    }
    if (k < wide.size()) {
      result.check(check_same_text(what + " CSV at 1 and 4 lanes",
                                   first[k].report.timeline_csv,
                                   wide[k].report.timeline_csv));
    }
  }
  return result;
}

}  // namespace rotabench
