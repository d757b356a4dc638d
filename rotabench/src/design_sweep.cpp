// design_sweep: an offline design study at 2 lanes with telemetry off.
// For every (network, array geometry) point of the grid it runs cold
// mapper searches and Pareto fronts under each objective (a fresh Mapper,
// no ScheduleCache), core::Experiment policy cells, the closed-form
// lifetime figures and a fixed-trial Monte-Carlo MTTF per cell. It never
// touches svc, obs or fi.

#include <map>

#include "arch/config.hpp"
#include "checks.hpp"
#include "core/experiment.hpp"
#include "gen.hpp"
#include "nn/workloads.hpp"
#include "reliability/array_reliability.hpp"
#include "reliability/monte_carlo.hpp"
#include "sched/mapper.hpp"
#include "workloads.hpp"

namespace rotabench {

using namespace rota;

namespace {

const std::vector<Geometry> kGeometries = {{14, 12}, {16, 16}, {32, 32}};
/// Lanes of the study. At 4 (one per vCPU) every parallel batch waits for
/// its slowest lane, so any load from outside the benchmark stalls the
/// whole pass: ten-run sets spread 11-32% across seeds on a shared 4-vCPU
/// host, against 7-12% at 2. Scaling to 4 lanes is par.mc_speedup's job.
constexpr int kSweepLanes = 2;
constexpr std::int64_t kIterations = 1000;
constexpr std::int64_t kTrials = 16384;  ///< four 4096-trial chunks
constexpr int kSetups = 11;
constexpr int kMinPasses = 2;
/// A pass's tail is the mean time of its points beyond p85 (the slowest 5
/// of 36): the grid is a fixed set of unequal points, so a single order
/// statistic would pick one point and carry that point's own noise.
constexpr double kTailPct = 85.0;
constexpr const char* kObjectives[] = {"energy", "lifetime", "throughput"};

struct Cell {
  wear::PolicyKind kind = wear::PolicyKind::kBaseline;
  std::vector<double> usage;
  double improvement = 0.0;  ///< ExperimentResult::improvement_over_baseline
  double array_mttf = 0.0;   ///< rel::array_mttf
  rel::MonteCarloResult mc;
};

/// Everything one grid point produced, kept for the checks.
struct PointOutput {
  std::vector<std::pair<std::string, std::vector<SpaceView>>> schedules;
  std::vector<std::pair<std::string, std::vector<std::vector<FrontPoint>>>>
      fronts;
  std::vector<std::pair<double, double>> energy_optimum;  ///< per layer
  std::vector<Cell> cells;
  std::int64_t front_points = 0;
  double wall_s = 0.0;
};

std::vector<SpaceView> spaces_of(const sched::NetworkSchedule& ns) {
  std::vector<SpaceView> spaces;
  for (const sched::LayerSchedule& l : ns.layers) {
    spaces.push_back({l.space.x, l.space.y, l.tiles});
  }
  return spaces;
}

PointOutput study(const SweepPoint& point, const nn::Network& net,
                  Spans& spans) {
  const Clock::time_point t0 = Clock::now();
  PointOutput out;
  arch::AcceleratorConfig accel = arch::rota_like();
  accel.array_width = point.array.w;
  accel.array_height = point.array.h;
  const std::string where = point.workload + "@" + to_string(point.array);

  for (const char* objective : kObjectives) {
    const sched::ObjectiveSpec spec = sched::parse_objective(objective).value();
    const sched::MapperOptions lanes{true, kSweepLanes};
    sched::NetworkSchedule ns;
    {
      const Spans::Scope span(spans, "sched.search");
      sched::Mapper mapper(accel, spec, {}, lanes);
      ns = mapper.schedule_network(net);
    }
    out.schedules.emplace_back(where + " " + objective, spaces_of(ns));
    if (spec.kind == sched::ObjectiveKind::kEnergy) {
      for (const sched::LayerSchedule& l : ns.layers) {
        out.energy_optimum.emplace_back(l.energy, l.cycles);
      }
    }
    sched::NetworkParetoFront front;
    {
      const Spans::Scope span(spans, "sched.pareto");
      const sched::Mapper mapper(accel, spec, {}, lanes);
      front = mapper.pareto_network(net);
    }
    std::vector<std::vector<FrontPoint>> layers;
    for (const sched::LayerParetoFront& layer : front.layers) {
      std::vector<FrontPoint> points;
      for (const sched::ParetoPoint& p : layer.points) {
        points.push_back({p.energy, p.cycles, p.mttf});
      }
      out.front_points += static_cast<std::int64_t>(points.size());
      layers.push_back(std::move(points));
    }
    out.fronts.emplace_back(where + " " + objective, std::move(layers));
  }

  std::vector<wear::PolicyKind> policies = {wear::PolicyKind::kBaseline,
                                            wear::PolicyKind::kRwl,
                                            wear::PolicyKind::kRwlRo};
  for (const std::string& light : light_zoo()) {
    if (light == point.workload) {
      policies.push_back(wear::PolicyKind::kRandomStart);
      policies.push_back(wear::PolicyKind::kDiagonalStride);
    }
  }
  ExperimentResult result;
  {
    const Spans::Scope span(spans, "core.experiment");
    ExperimentConfig config;
    config.accel = accel;
    config.iterations = kIterations;
    config.seed = point.seed;
    config.threads = kSweepLanes;
    Experiment experiment(config);
    sched::NetworkSchedule ns;
    {
      const Spans::Scope child(spans, "sched.search");
      ns = experiment.schedule(net);
    }
    out.schedules.emplace_back(where + " experiment", spaces_of(ns));
    // The schedule is memoized now, so run() is the policy cells' work.
    const Spans::Scope cells(spans, "wear.cells");
    result = experiment.run(net, policies);
  }
  for (const PolicyRun& run : result.runs) {
    Cell cell;
    cell.kind = run.kind;
    for (const std::int64_t count : run.usage.cells()) {
      cell.usage.push_back(static_cast<double>(count));
    }
    {
      const Spans::Scope span(spans, "rel.closed_form");
      cell.improvement = result.improvement_over_baseline(run.kind);
      cell.array_mttf = rel::array_mttf(cell.usage, result.beta);
    }
    {
      const Spans::Scope span(spans, "rel.mc");
      cell.mc = rel::monte_carlo_mttf(cell.usage, result.beta, 1.0, kTrials,
                                      point.seed, kSweepLanes);
    }
    out.cells.push_back(std::move(cell));
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

using Pass = std::vector<PointOutput>;

Pass sweep(const std::vector<SweepPoint>& grid,
           const std::map<std::string, nn::Network>& nets, Spans& spans) {
  Pass pass;
  for (const SweepPoint& point : grid) {
    pass.push_back(study(point, nets.at(point.workload), spans));
  }
  return pass;
}

double pass_wall(const Pass& pass) {
  double total = 0.0;
  for (const PointOutput& p : pass) total += p.wall_s;
  return total;
}

/// The checks of one point (README.md, design_sweep checks).
Findings check_point(const SweepPoint& point, const PointOutput& out,
                     double beta) {
  Findings found;
  const auto take = [&found](const Findings& more) {
    found.insert(found.end(), more.begin(), more.end());
  };
  for (const auto& [what, spaces] : out.schedules) {
    take(check_spaces(what, spaces, point.array.w, point.array.h));
  }
  for (const auto& [what, layers] : out.fronts) {
    if (layers.size() != out.energy_optimum.size()) {
      found.push_back(what + ": front has " + std::to_string(layers.size()) +
                      " layers, the schedule " +
                      std::to_string(out.energy_optimum.size()));
      continue;
    }
    for (std::size_t i = 0; i < layers.size(); ++i) {
      take(check_front(what + " layer " + std::to_string(i), layers[i],
                       out.energy_optimum[i].first,
                       out.energy_optimum[i].second));
    }
  }
  const std::string where = point.workload + "@" + to_string(point.array);
  for (const Cell& cell : out.cells) {
    const std::string what = where + " " + wear::to_string(cell.kind);
    take(check_eq4(what, out.cells.front().usage, cell.usage, beta,
                   cell.improvement));
    take(check_monte_carlo(what, cell.usage, beta, cell.mc.mttf,
                           cell.mc.stderr_));
  }
  return found;
}

/// Every number a pass reports, for the pass-to-pass identity check.
std::vector<double> digest(const Pass& pass) {
  std::vector<double> values;
  for (const PointOutput& p : pass) {
    for (const Cell& c : p.cells) {
      values.insert(values.end(), {c.improvement, c.array_mttf, c.mc.mttf,
                                   c.mc.stderr_});
    }
    values.push_back(static_cast<double>(p.front_points));
  }
  return values;
}

}  // namespace

RunResult run_design_sweep(const RunSettings& settings) {
  RunResult result;
  const std::vector<SweepPoint> grid = sweep_grid(settings.seed, kGeometries);

  // ---- set-up: the zoo networks, then one warm-up study ----------------
  // The warm-up starts the thread pool and the mapper's per-thread arenas,
  // which the first measured point would otherwise pay for.
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::map<std::string, nn::Network> nets;
  Spans no_spans(false);
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    nets.clear();
    for (const std::string& abbr : zoo()) {
      nets.emplace(abbr, nn::workload_by_abbr(abbr));
    }
    build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    (void)study({"AN", kGeometries.front(), settings.seed}, nets.at("AN"),
                no_spans);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // ---- the measured passes ---------------------------------------------
  // Passes repeat the same grid. The first is kept whole for the checks;
  // later ones keep only their point times and a digest of their numbers,
  // so memory does not grow with the number of passes a run fits in.
  Spans spans(settings.trace);
  Pass first;
  std::vector<std::vector<double>> digests;
  std::vector<double> pass_s;
  std::vector<double> pass_p50_ms;
  std::vector<double> pass_tail_ms;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(pass_s.size()) < kMinPasses ||
         seconds_between(start, Clock::now()) < settings.seconds) {
    Pass pass = sweep(grid, nets, spans);
    pass_s.push_back(pass_wall(pass));
    std::vector<double> point_ms;
    for (const PointOutput& p : pass) point_ms.push_back(p.wall_s * 1e3);
    pass_p50_ms.push_back(median(point_ms));
    pass_tail_ms.push_back(mean_beyond(point_ms, kTailPct));
    digests.push_back(digest(pass));
    if (first.empty()) first = std::move(pass);
  }
  const auto n_passes = static_cast<double>(pass_s.size());
  std::int64_t cells_per_pass = 0;
  for (const PointOutput& p : first) {
    cells_per_pass += static_cast<std::int64_t>(p.cells.size());
  }

  if (!settings.trace) {
    // Medians over passes: a burst of load from outside the benchmark
    // moves one pass, not the figure.
    add_end_to_end(result, setup_s, pass_s, static_cast<double>(cells_per_pass),
                   median(pass_p50_ms), median(pass_tail_ms));
  } else {
    const double untraced_s = pass_wall(sweep(grid, nets, no_spans));
    // The Monte-Carlo calls of one pass again, at 1 lane and at 4.
    const auto mc_pass_s = [&](int lanes) {
      double total = 0.0;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        for (const Cell& cell : first[i].cells) {
          const Clock::time_point t0 = Clock::now();
          (void)rel::monte_carlo_mttf(cell.usage, rel::kJedecShape, 1.0,
                                      kTrials, grid[i].seed, lanes);
          total += seconds_between(t0, Clock::now());
        }
      }
      return total;
    };
    const double mc_serial_s = mc_pass_s(1);
    const double mc_wide_s = mc_pass_s(kLanes);
    const std::map<std::string, SpanTotals> by_name = spans.by_name();
    const auto per_pass = [&](const char* name, bool count) {
      const auto found = by_name.find(name);
      if (found == by_name.end()) return 0.0;
      return (count ? static_cast<double>(found->second.count)
                    : found->second.total_ms) /
             n_passes;
    };
    const auto self_ms = [&](const char* name) {
      const auto found = by_name.find(name);
      return found == by_name.end() ? 0.0 : found->second.self_ms / n_passes;
    };
    std::int64_t tiles = 0;
    std::int64_t front_points = 0;
    for (const PointOutput& p : first) {
      std::int64_t per_iteration = 0;
      for (const SpaceView& l : p.schedules.back().second) {
        per_iteration += l.tiles;
      }
      tiles += per_iteration * kIterations *
               static_cast<std::int64_t>(p.cells.size());
      front_points += p.front_points;
    }
    const double mc_ms = per_pass("rel.mc", false);
    const double wear_ms = per_pass("wear.cells", false);
    add_per_layer(
        result,
        {
            {"nn.build_ms", median(build_ms)},
            {"sched.search_ms", per_pass("sched.search", false)},
            {"sched.searches", per_pass("sched.search", true)},
            {"sched.pareto_ms", per_pass("sched.pareto", false)},
            {"sched.front_points", static_cast<double>(front_points)},
            {"core.experiment_ms", self_ms("core.experiment")},
            {"wear.run_ms", wear_ms},
            {"wear.tiles", static_cast<double>(tiles)},
            {"wear.tiles_per_s", static_cast<double>(tiles) / (wear_ms / 1e3)},
            {"rel.closed_form_ms", per_pass("rel.closed_form", false)},
            {"rel.mc_ms", mc_ms},
            {"mc.trials_per_s",
             static_cast<double>(kTrials * cells_per_pass) / (mc_ms / 1e3)},
            {"par.mc_speedup", mc_serial_s / mc_wide_s},
            {"trace.overhead_s", median(pass_s) - untraced_s},
        },
        spans, n_passes);
    if (!settings.spans_path.empty() && !spans.write_json(settings.spans_path)) {
      result.problems.push_back("could not write " + settings.spans_path);
    }
  }

  // ---- checks ----------------------------------------------------------
  // Pass 0 is checked in full; every later pass must reproduce its numbers.
  std::vector<bool> point_ok;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Findings found = check_point(grid[i], first[i], rel::kJedecShape);
    result.check(found);
    point_ok.push_back(found.empty());
  }
  for (std::size_t k = 0; k < digests.size(); ++k) {
    const bool same = digests[k] == digests.front();
    if (!same) {
      result.problems.push_back("sweep: pass " + std::to_string(k) +
                                " differs from pass 0");
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto cells = static_cast<std::int64_t>(first[i].cells.size());
      result.attempted += cells;
      if (!point_ok[i] || !same) result.failed += cells;
    }
  }
  return result;
}

}  // namespace rotabench
