#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "cli/commands.hpp"
#include "cli/options.hpp"
#include "cli/signals.hpp"
#include "fi/checkpoint.hpp"
#include "fi/degrade.hpp"
#include "fi/plan.hpp"
#include "nn/workloads.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/spares.hpp"
#include "sched/array_state.hpp"
#include "sched/objective.hpp"
#include "util/check.hpp"
#include "util/io.hpp"
#include "wear/masked_policy.hpp"
#include "wear/policy.hpp"
#include "wear/usage_tracker.hpp"

namespace rota::fi {
namespace {

/// Unique scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("rota_degrade_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

HardwareFault fault(const std::string& spec) {
  auto parsed = parse_hardware_fault(spec);
  EXPECT_TRUE(parsed.ok()) << spec << ": " << parsed.error().message;
  return std::move(parsed).take();
}

DegradeOptions base_options(const std::vector<std::string>& fault_specs) {
  DegradeOptions opt;
  opt.iterations = 96;
  opt.spares = 2;
  opt.seed = 7;
  opt.objective = sched::parse_objective("energy").value();
  opt.retire_live_fraction = 0.9;
  opt.workload_tag = "AN";
  for (const std::string& spec : fault_specs) opt.faults.push_back(fault(spec));
  return opt;
}

const nn::Network& alexnet() {
  static const nn::Network net = nn::workload_by_abbr("AN");
  return net;
}

// ------------------------------------------------ determinism at any lanes

TEST(Degrade, TimelineIsBitIdenticalAcrossThreadCounts) {
  // Plan exhausts the 2-spare pool, so the run covers remaps, unmapped
  // faults, masked rotation and degraded-array rescheduling.
  const std::vector<std::string> plan = {"weibull=5", "pe=5,5@20"};
  DegradeReport reference;
  for (int threads : {1, 8, 0}) {
    DegradeOptions opt = base_options(plan);
    opt.threads = threads;
    const DegradeReport report =
        run_degraded_lifetime(arch::rota_like(), alexnet(), opt);
    if (threads == 1) {
      reference = report;
      EXPECT_GT(report.remaps, 0);
      EXPECT_GT(report.unmapped_faults, 0);
      EXPECT_GT(report.reschedules, 0);
      continue;
    }
    EXPECT_EQ(report.timeline_csv, reference.timeline_csv) << threads;
    EXPECT_EQ(report.events, reference.events) << threads;
    EXPECT_EQ(report.remaps, reference.remaps);
    EXPECT_EQ(report.reschedules, reference.reschedules);
    // Bit-equal doubles, not approximately equal ones.
    EXPECT_EQ(std::memcmp(&report.mttf_final, &reference.mttf_final,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&report.final_energy, &reference.final_energy,
                          sizeof(double)),
              0);
  }
}

// ------------------------------------------------------ interrupt / resume

DegradeReport run_with_stop_at(const DegradeOptions& base,
                               const std::string& ckpt,
                               std::int64_t stop_boundary) {
  DegradeOptions opt = base;
  opt.checkpoint_path = ckpt;
  std::int64_t boundaries = 0;
  const DegradeReport stopped = run_degraded_lifetime(
      arch::rota_like(), alexnet(), opt,
      [&boundaries, stop_boundary] { return ++boundaries >= stop_boundary; });
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_TRUE(std::filesystem::exists(ckpt));

  auto loaded = load_checkpoint(ckpt);
  EXPECT_TRUE(loaded.ok());
  const Checkpoint cp = std::move(loaded).take();
  DegradeOptions resume = base;
  resume.checkpoint_path = ckpt;
  resume.resume = &cp;
  const DegradeReport resumed =
      run_degraded_lifetime(arch::rota_like(), alexnet(), resume);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_FALSE(resumed.interrupted);
  return resumed;
}

TEST(Degrade, ResumeAcrossMidRunRemapIsByteEqual) {
  TempDir dir;
  const std::vector<std::string> plan = {"pe=5,5@20", "pe=8,3@40",
                                         "pe=2,9@60"};
  const DegradeOptions base = base_options(plan);
  const DegradeReport reference =
      run_degraded_lifetime(arch::rota_like(), alexnet(), base);
  EXPECT_GT(reference.remaps, 0);
  EXPECT_GT(reference.unmapped_faults, 0);

  // Stop between the second and third fault (boundary 50): the remapper
  // is mid-service, the schedule has been rebuilt once.
  const DegradeReport mid =
      run_with_stop_at(base, dir.file("mid.ckpt"), 50);
  EXPECT_EQ(mid.timeline_csv, reference.timeline_csv);
  EXPECT_EQ(mid.events, reference.events);
  EXPECT_EQ(mid.remaps, reference.remaps);
  EXPECT_EQ(mid.reschedules, reference.reschedules);
  EXPECT_EQ(mid.redirected_units, reference.redirected_units);
  EXPECT_EQ(std::memcmp(&mid.mttf_final, &reference.mttf_final,
                        sizeof(double)),
            0);

  // Stop exactly on a fault boundary — the hardest seam: the fault, the
  // remap/reschedule and the checkpoint land on the same iteration.
  const DegradeReport on_fault =
      run_with_stop_at(base, dir.file("onfault.ckpt"), 40);
  EXPECT_EQ(on_fault.timeline_csv, reference.timeline_csv);
  EXPECT_EQ(on_fault.events, reference.events);
  EXPECT_EQ(on_fault.redirected_units, reference.redirected_units);
}

TEST(Degrade, StaleCheckpointIsRefused) {
  TempDir dir;
  const std::string ckpt = dir.file("stale.ckpt");
  const DegradeOptions original = base_options({"pe=5,5@20"});
  std::int64_t boundaries = 0;
  DegradeOptions opt = original;
  opt.checkpoint_path = ckpt;
  const DegradeReport stopped =
      run_degraded_lifetime(arch::rota_like(), alexnet(), opt,
                            [&boundaries] { return ++boundaries >= 30; });
  ASSERT_TRUE(stopped.interrupted);

  auto loaded = load_checkpoint(ckpt);
  ASSERT_TRUE(loaded.ok());
  const Checkpoint cp = std::move(loaded).take();

  // A different fault plan is different work: the fingerprint gate fires.
  DegradeOptions other = base_options({"pe=4,4@10"});
  other.resume = &cp;
  EXPECT_THROW(run_degraded_lifetime(arch::rota_like(), alexnet(), other),
               util::precondition_error);

  // So is a different mode under the same plan.
  DegradeOptions oblivious = original;
  oblivious.mode = DegradeMode::kFaultOblivious;
  oblivious.resume = &cp;
  EXPECT_THROW(
      run_degraded_lifetime(arch::rota_like(), alexnet(), oblivious),
      util::precondition_error);
}

// ------------------------------------------------- exhaustion / retirement

TEST(Degrade, SpareExhaustionDegradesThenRetires) {
  DegradeOptions opt = base_options({"pe=1,1@5", "pe=2,2@10", "pe=3,3@15"});
  opt.spares = 0;
  opt.retire_live_fraction = 0.99;  // 14x12: retire below 167 live PEs
  const DegradeReport report =
      run_degraded_lifetime(arch::rota_like(), alexnet(), opt);
  EXPECT_TRUE(report.retired);
  EXPECT_EQ(report.retired_at, 10);  // second un-spared death: 166 < 167
  EXPECT_EQ(report.iterations_run, 10);
  EXPECT_EQ(report.reschedules, 1);  // the first death rescheduled
  EXPECT_EQ(report.mttf_final, 0.0);
  EXPECT_NE(report.timeline_csv.find(",retire,"), std::string::npos);
}

TEST(Degrade, ObliviousModeFailStopsWhereAwareKeepsServing) {
  const std::vector<std::string> plan = {"pe=5,5@20", "pe=8,3@40",
                                         "pe=2,9@60"};
  DegradeOptions aware = base_options(plan);
  aware.spares = 1;
  DegradeOptions oblivious = aware;
  oblivious.mode = DegradeMode::kFaultOblivious;

  const DegradeReport a =
      run_degraded_lifetime(arch::rota_like(), alexnet(), aware);
  const DegradeReport o =
      run_degraded_lifetime(arch::rota_like(), alexnet(), oblivious);

  // Same physical fault history on both devices.
  EXPECT_EQ(a.faults_injected, o.faults_injected);
  EXPECT_EQ(a.first_unspared_at, o.first_unspared_at);
  EXPECT_EQ(o.first_unspared_at, 40);

  // The oblivious device never reacts: no reschedule, work lands on dead
  // silicon, and its fail-stop service ended at the first un-spared
  // fault — zero residual lifetime.
  EXPECT_EQ(o.reschedules, 0);
  EXPECT_GT(o.lost_units, 0);
  EXPECT_EQ(o.mttf_final, 0.0);

  // The aware device rescheduled around the dead PEs, lost nothing, and
  // retains a positive residual lifetime on its live set.
  EXPECT_GT(a.reschedules, 0);
  EXPECT_EQ(a.lost_units, 0);
  EXPECT_GT(a.mttf_final, 0.0);
  EXPECT_GT(a.retire_budget, 0);
  EXPECT_EQ(a.mttf_tolerance, a.retire_budget);  // free pool is empty
}

// ------------------------------------------------------- fault arrivals

/// The PEs a run actually struck, read from its event log ("it=G
/// fault[ rank] pe=(U,V) -> spare S" or "-> unmapped ..."); no-op strikes
/// on dead PEs are logged but not counted.
std::vector<std::string> struck_pes(const DegradeReport& report) {
  std::vector<std::string> pes;
  for (const std::string& line : report.events) {
    if (line.rfind("it=", 0) != 0) continue;
    const std::size_t at = line.find("pe=(");
    if (at == std::string::npos || line.find(" fault") == std::string::npos ||
        line.find("already dead") != std::string::npos) {
      continue;
    }
    pes.push_back(line.substr(at, line.find(')', at) + 1 - at));
  }
  return pes;
}

/// The report identities that hold for any plan without transient faults:
/// every counted fault killed a distinct live PE, the pool absorbed at
/// most its size, and every un-spared death left the live set.
void expect_arrival_identities(const DegradeReport& report,
                               const DegradeOptions& opt,
                               const std::string& what) {
  const std::vector<std::string> struck = struck_pes(report);
  const std::set<std::string> distinct(struck.begin(), struck.end());
  const std::int64_t cells = 14 * 12;
  EXPECT_EQ(struck.size(), distinct.size()) << what;
  EXPECT_EQ(report.faults_injected,
            static_cast<std::int64_t>(distinct.size()))
      << what;
  EXPECT_EQ(report.faults_injected, report.remaps + report.unmapped_faults)
      << what;
  EXPECT_LE(report.remaps, opt.spares) << what;
  EXPECT_EQ(report.live_pes,
            cells - (static_cast<std::int64_t>(distinct.size()) -
                     report.remaps))
      << what;
}

TEST(Degrade, ArrivalsStrikeOnlyLivePEsAcrossSeeds) {
  // A declared strike on the first boundary plus a Weibull burst: the
  // burst must draw from the PEs still live after it, so (3,4) is never
  // struck twice. The second plan's Weibull victims can coincide with a
  // later declared strike, which must then be a no-op.
  for (std::uint64_t seed = 1; seed <= 59; ++seed) {
    DegradeOptions burst = base_options({"pe=3,4@1", "weibull=16"});
    burst.iterations = 256;
    burst.retire_live_fraction = 0.75;
    burst.seed = seed;
    const DegradeReport a =
        run_degraded_lifetime(arch::rota_like(), alexnet(), burst);
    expect_arrival_identities(a, burst, "burst seed " + std::to_string(seed));
    EXPECT_EQ(a.faults_injected, 17) << "burst seed " << seed;  // 1 + 16

    DegradeOptions mixed =
        base_options({"weibull=4", "pe=5,5@20", "rank=2@40", "pe=9,8@60"});
    mixed.iterations = 96;
    mixed.spares = 3;
    mixed.seed = seed;
    mixed.mode = DegradeMode::kFaultOblivious;
    const DegradeReport b =
        run_degraded_lifetime(arch::rota_like(), alexnet(), mixed);
    expect_arrival_identities(b, mixed, "mixed seed " + std::to_string(seed));
  }
}

TEST(Degrade, StrikeOnADeadPEIsALoggedNoOp) {
  DegradeOptions opt = base_options({"pe=4,4@10", "pe=4,4@30"});
  opt.spares = 1;
  const DegradeReport report =
      run_degraded_lifetime(arch::rota_like(), alexnet(), opt);
  EXPECT_EQ(report.faults_injected, 1);
  EXPECT_EQ(report.remaps, 1);
  EXPECT_EQ(report.unmapped_faults, 0);
  EXPECT_EQ(report.spare_stats.spares_free, 0);
  bool logged = false;
  for (const std::string& line : report.events) {
    logged = logged || line == "it=30 fault pe=(4,4) -> already dead (no-op)";
  }
  EXPECT_TRUE(logged);
}

// ----------------------------------------- with-spares Monte-Carlo estimator

TEST(MonteCarloSpares, AgreesWithClosedFormWithinSamplingError) {
  // A deliberately uneven live set, like a degraded array's.
  std::vector<double> alphas;
  for (int i = 0; i < 24; ++i)
    alphas.push_back(0.5 + 0.03 * static_cast<double>(i % 7));
  for (std::int64_t spares : {0, 2, 5}) {
    const double closed = rel::spare_array_mttf(alphas, spares);
    const rel::MonteCarloResult mc =
        rel::monte_carlo_spare_mttf(alphas, spares, rel::kJedecShape, 1.0,
                                    60000, 11, 4);
    EXPECT_NEAR(mc.mttf, closed, 4.0 * mc.stderr_ + 1e-12)
        << "spares=" << spares;
  }
}

TEST(MonteCarloSpares, IsBitIdenticalAcrossThreadCounts) {
  const std::vector<double> alphas = {1.0, 0.8, 0.9, 0.7, 1.0, 0.6};
  const rel::MonteCarloResult serial =
      rel::monte_carlo_spare_mttf(alphas, 2, rel::kJedecShape, 1.0, 20000,
                                  3, 1);
  const rel::MonteCarloResult wide =
      rel::monte_carlo_spare_mttf(alphas, 2, rel::kJedecShape, 1.0, 20000,
                                  3, 8);
  EXPECT_EQ(std::memcmp(&serial.mttf, &wide.mttf, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&serial.stderr_, &wide.stderr_, sizeof(double)), 0);
}

// ----------------------------------------------------------- masked policy

TEST(MaskedPolicy, NextOriginNeverCoversDeadPEs) {
  const sched::ArrayState mask(6, 6, {{0, 0}, {3, 3}});
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kRwl, wear::PolicyKind::kRwlRo,
        wear::PolicyKind::kDiagonalStride, wear::PolicyKind::kRandomStart}) {
    wear::MaskedPolicy policy(wear::make_policy(kind, 6, 6, 42), mask);
    const sched::UtilSpace space{2, 2};
    policy.begin_layer(space);
    for (int t = 0; t < 72; ++t) {
      const wear::Placement p = policy.next_origin(space);
      for (std::int64_t dv = 0; dv < space.y; ++dv) {
        for (std::int64_t du = 0; du < space.x; ++du) {
          EXPECT_FALSE(mask.dead((p.u + du) % 6, (p.v + dv) % 6))
              << wear::to_string(kind) << " tile " << t;
        }
      }
    }
  }
}

TEST(MaskedPolicy, BulkPathMatchesPerTilePathBitForBit) {
  const sched::ArrayState mask(6, 6, {{1, 4}, {4, 1}});
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
        wear::PolicyKind::kRwlRo, wear::PolicyKind::kDiagonalStride}) {
    wear::MaskedPolicy bulk(wear::make_policy(kind, 6, 6, 42), mask);
    wear::MaskedPolicy tile(wear::make_policy(kind, 6, 6, 42), mask);
    wear::UsageTracker bulk_tracker(6, 6);
    wear::UsageTracker tile_tracker(6, 6);
    const sched::UtilSpace space{3, 2};
    constexpr std::int64_t kTiles = 157;  // forces a partial final pass
    bulk.begin_layer(space);
    tile.begin_layer(space);
    const std::int64_t done =
        bulk.bulk_process(space, kTiles, bulk_tracker, true, 3);
    ASSERT_EQ(done, kTiles) << wear::to_string(kind);
    for (std::int64_t t = 0; t < kTiles; ++t) {
      const wear::Placement p = tile.next_origin(space);
      tile_tracker.add_space(p.u, p.v, space.x, space.y, 3, true);
    }
    EXPECT_EQ(bulk_tracker.usage().cells(), tile_tracker.usage().cells())
        << wear::to_string(kind);
    // The inner rotation state advanced identically: the next emitted
    // origins agree.
    for (int t = 0; t < 8; ++t) {
      const wear::Placement a = bulk.next_origin(space);
      const wear::Placement b = tile.next_origin(space);
      EXPECT_EQ(a.u, b.u) << wear::to_string(kind);
      EXPECT_EQ(a.v, b.v) << wear::to_string(kind);
    }
  }
}

TEST(MaskedPolicy, AllLiveMaskIsByteIdenticalToInnerPolicy) {
  wear::MaskedPolicy masked(wear::make_policy(wear::PolicyKind::kRwlRo, 6, 6),
                            sched::ArrayState{});
  auto inner = wear::make_policy(wear::PolicyKind::kRwlRo, 6, 6);
  const sched::UtilSpace space{3, 2};
  masked.begin_layer(space);
  inner->begin_layer(space);
  for (int t = 0; t < 64; ++t) {
    const wear::Placement a = masked.next_origin(space);
    const wear::Placement b = inner->next_origin(space);
    EXPECT_EQ(a.u, b.u);
    EXPECT_EQ(a.v, b.v);
  }
}

// -------------------------------------------- policy / tracker round-trips

TEST(Degrade, PolicyStateRoundTripsThroughPackUnpack) {
  const sched::UtilSpace space{3, 2};
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
        wear::PolicyKind::kRwlRo, wear::PolicyKind::kRandomStart,
        wear::PolicyKind::kDiagonalStride}) {
    auto original = wear::make_policy(kind, 7, 5, 99);
    original->begin_layer(space);
    for (int t = 0; t < 23; ++t) (void)original->next_origin(space);

    auto restored = wear::make_policy(kind, 7, 5, 99);
    restored->unpack_state(original->pack_state());
    for (int t = 0; t < 16; ++t) {
      const wear::Placement a = original->next_origin(space);
      const wear::Placement b = restored->next_origin(space);
      EXPECT_EQ(a.u, b.u) << wear::to_string(kind);
      EXPECT_EQ(a.v, b.v) << wear::to_string(kind);
    }
  }
}

TEST(Degrade, TrackerRestoreCellsRoundTrips) {
  wear::UsageTracker tracker(5, 4);
  tracker.add_space(1, 1, 3, 2, 7, true);
  tracker.add_space(4, 3, 2, 2, 3, true);  // wraps
  wear::UsageTracker restored(5, 4);
  restored.restore_cells(tracker.usage().cells());
  EXPECT_EQ(restored.usage().cells(), tracker.usage().cells());
  EXPECT_EQ(restored.total_pe_allocations(), tracker.total_pe_allocations());
  // Still usable after restore.
  restored.add_space(0, 0, 1, 1, 1, false);
  tracker.add_space(0, 0, 1, 1, 1, false);
  EXPECT_EQ(restored.usage().cells(), tracker.usage().cells());
}

// -------------------------------- wear-dependent static fault resolution

TEST(ArrayStateFromFaults, RankResolvesAgainstTheSnapshot) {
  WearSnapshot wear;
  wear.usage.assign(12, 0);
  for (std::size_t i = 0; i < wear.usage.size(); ++i)
    wear.usage[i] = static_cast<std::int64_t>(i);  // most worn: index 11
  const std::vector<HardwareFault> faults = {fault("rank=0@1")};
  auto state = array_state_from_faults(4, 3, faults, 0, wear);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().dead_count(), 1);
  EXPECT_TRUE(state.value().dead(3, 2));  // index 11 = (3, 2)
}

TEST(ArrayStateFromFaults, WeibullSamplesDistinctPEsDeterministically) {
  WearSnapshot wear;
  wear.usage.assign(12, 5);
  wear.seed = 123;
  const std::vector<HardwareFault> faults = {fault("weibull=3")};
  auto first = array_state_from_faults(4, 3, faults, 0, wear);
  auto second = array_state_from_faults(4, 3, faults, 0, wear);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().dead_count(), 3);  // distinct picks
  EXPECT_EQ(first.value().digest(), second.value().digest());

  // A spare pool absorbs the deaths: the static map is intact again.
  auto spared = array_state_from_faults(4, 3, faults, 3, wear);
  ASSERT_TRUE(spared.ok());
  EXPECT_EQ(spared.value().dead_count(), 0);
}

TEST(ArrayStateFromFaults, WearDependentSpecsNeedASnapshot) {
  const std::vector<HardwareFault> faults = {fault("rank=0@1")};
  auto state = array_state_from_faults(4, 3, faults, 0);
  EXPECT_FALSE(state.ok());
}

TEST(ArrayStateFromFaults, SnapshotGeometryMustMatch) {
  WearSnapshot wear;
  wear.usage.assign(6, 1);  // wrong size for 4x3
  const std::vector<HardwareFault> faults = {fault("rank=0@1")};
  auto state = array_state_from_faults(4, 3, faults, 0, wear);
  EXPECT_FALSE(state.ok());
}

// ------------------------------------------------------------ CLI surface

/// Run `rota <args>` in-process, returning {exit code, stdout}.
std::pair<int, std::string> run_cli(const std::vector<std::string>& args) {
  const cli::Options options = cli::parse(args);
  std::ostringstream out;
  const int rc = cli::run(options, out);
  return {rc, out.str()};
}

TEST(DegradeCli, InterruptAndResumeReproduceTheExactTimeline) {
  TempDir dir;
  const std::string ref_csv = dir.file("ref.csv");
  const std::string resumed_csv = dir.file("resumed.csv");
  const std::string ckpt = dir.file("degrade.ckpt");
  const std::vector<std::string> base = {
      "degrade", "AN",      "--iters",  "96",       "--spares", "2",
      "--fault", "pe=5,5@20", "--fault", "pe=8,3@40", "--seed",  "7"};

  std::vector<std::string> ref_args = base;
  ref_args.insert(ref_args.end(), {"--csv", ref_csv});
  auto [ref_rc, ref_out] = run_cli(ref_args);
  ASSERT_EQ(ref_rc, 0);

  std::vector<std::string> ckpt_args = base;
  ckpt_args.insert(ckpt_args.end(),
                   {"--csv", resumed_csv, "--checkpoint", ckpt});
  cli::clear_interrupt();
  cli::simulate_interrupt_after(50);  // boundary 50: one remap behind us
  auto [killed_rc, killed_out] = run_cli(ckpt_args);
  EXPECT_EQ(killed_rc, cli::kExitInterrupted);
  EXPECT_TRUE(std::filesystem::exists(ckpt));

  cli::clear_interrupt();
  auto [resumed_rc, resumed_out] = run_cli(ckpt_args);
  ASSERT_EQ(resumed_rc, 0);
  EXPECT_EQ(util::read_text_file(ref_csv), util::read_text_file(resumed_csv));
  EXPECT_FALSE(std::filesystem::exists(ckpt));  // finished runs clean up
}

TEST(DegradeCli, RetirementExitsWithCode5) {
  cli::clear_interrupt();
  auto [rc, out] =
      run_cli({"degrade", "AN", "--iters", "64", "--spares", "0", "--fault",
               "pe=1,1@5", "--fault", "pe=2,2@10", "--retire", "0.99"});
  EXPECT_EQ(rc, cli::kExitRetired);
  EXPECT_NE(out.find("retire"), std::string::npos);
}

/// The "  "-indented event lines of a degrade or inject report.
std::vector<std::string> event_lines(const std::string& out) {
  std::vector<std::string> lines;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  ", 0) == 0) lines.push_back(line);
  }
  return lines;
}

TEST(DegradeCli, InjectRunsTheFailStopDegradeEngine) {
  cli::clear_interrupt();
  const std::vector<std::string> plan = {
      "AN",      "--iters",   "48",      "--spares",  "1",
      "--fault", "pe=5,5@10", "--fault", "pe=8,3@20", "--fault",
      "rank=0@30"};
  std::vector<std::string> inject = {"inject"};
  inject.insert(inject.end(), plan.begin(), plan.end());
  std::vector<std::string> degrade = {"degrade"};
  degrade.insert(degrade.end(), plan.begin(), plan.end());
  degrade.push_back("--oblivious");
  auto [rc, out] = run_cli(inject);
  auto [degrade_rc, degrade_out] = run_cli(degrade);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(degrade_rc, 0);
  EXPECT_NE(out.find("unmapped (pool exhausted)"), std::string::npos);
  EXPECT_EQ(out.find("reschedule"), std::string::npos);
  EXPECT_EQ(event_lines(out), event_lines(degrade_out));
}

TEST(DegradeCli, InjectStdoutMatchesGoldenReports) {
  // Captured from the standalone injection campaign the degrade engine
  // replaced; none of these plans strikes a PE twice.
  const std::vector<std::pair<std::string, std::vector<std::string>>> plans =
      {{"an_pe",
        {"AN", "--iters", "400", "--spares", "2", "--fault", "pe=3,4@50",
         "--fault", "pe=8,2@120", "--fault", "pe=11,9@300"}},
       {"an_transient",
        {"AN", "--iters", "400", "--spares", "1", "--fault", "pe=2,2@40+30",
         "--fault", "pe=6,6@100", "--fault", "pe=9,1@150+100"}},
       {"an_rank",
        {"AN", "--iters", "400", "--spares", "1", "--fault", "rank=0@60",
         "--fault", "rank=3@200", "--fault", "rank=0@300"}},
       {"an_weibull",
        {"AN", "--iters", "400", "--spares", "2", "--fault", "weibull=3",
         "--seed", "7"}},
       {"sqz_weibull",
        {"Sqz", "--fault", "weibull=8", "--spares", "2", "--iters", "256",
         "--seed", "0x526f5441"}},
       {"an_mixed",
        {"AN", "--iters", "128", "--spares", "3", "--fault", "pe=5,5@20",
         "--fault", "rank=2@40", "--fault", "weibull=4"}}};
  for (const auto& [name, args] : plans) {
    std::vector<std::string> argv = {"inject"};
    argv.insert(argv.end(), args.begin(), args.end());
    cli::clear_interrupt();
    auto [rc, out] = run_cli(argv);
    EXPECT_EQ(rc, 0) << name;
    EXPECT_EQ(out, util::read_text_file(std::string(ROTA_TEST_CORPUS_DIR) +
                                        "/inject/" + name + ".txt"))
        << name;
  }
}

}  // namespace
}  // namespace rota::fi
