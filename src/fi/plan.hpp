#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "reliability/spares.hpp"
#include "sched/array_state.hpp"
#include "util/result.hpp"

/// \file plan.hpp
/// Fault plans (`rota::fi`): declarative descriptions of what to break,
/// parsed once and executed deterministically from a seed. Two families
/// share the grammar conventions:
///
/// **Software faults** (SoftwarePlan) perturb the process itself — failed
/// or corrupted file I/O, stalled pool workers, allocation failure — and
/// are armed process-wide through fi::Hooks (see hooks.hpp). The spec is a
/// comma-separated key=value list, also accepted via the ROTA_FI
/// environment variable:
///
///   read=0.1,write=0.1,corrupt=0.05,stall=0.01,stall_ms=5,
///   alloc=0.001,seed=42,match=schedule-cache
///
/// **Hardware faults** (HardwareFault) kill PEs of the simulated array.
/// fi::run_degraded_lifetime (degrade.hpp) executes them at runtime —
/// behind both `rota degrade` and `rota inject` — and
/// array_state_from_faults below gives them a static reading; both go
/// through the one resolver declared at the end of this header. Grammar,
/// one fault per spec (the CLI flag repeats):
///
///   pe=U,V@ITER        permanent fault of PE (U,V) after iteration ITER
///   pe=U,V@ITER+K      transient: restored K iterations later
///   rank=R@ITER        fault the rank-th most-worn live PE (0 = most worn)
///   weibull=N          N faults at Weibull-sampled times (seeded; per-PE
///                      scale η/α_ij from observed first-iteration wear,
///                      drawn over the PEs still live at that point)
///
/// Both parsers return Result rather than throwing: a bad spec is operator
/// input, not a caller bug.

namespace rota::fi {

/// Probabilities are per *operation* (one file read, one file write, one
/// pool task), decided deterministically from `seed` and an operation
/// sequence number, so a fixed seed yields a reproducible fault pattern
/// for a fixed operation order.
struct SoftwarePlan {
  double read_fail_rate = 0.0;    ///< P(file read throws util::io_error)
  double write_fail_rate = 0.0;   ///< P(file write throws util::io_error)
  double corrupt_rate = 0.0;      ///< P(read data is bit-flipped instead)
  double stall_rate = 0.0;        ///< P(a pool task sleeps stall_ms first)
  std::int64_t stall_ms = 2;      ///< stall duration
  double alloc_fail_rate = 0.0;   ///< P(an allocation site reports OOM)
  std::uint64_t seed = 1;
  /// When non-empty, I/O faults hit only paths containing this substring
  /// (e.g. "schedule-cache" to spare run artifacts); stalls and alloc
  /// faults are unaffected.
  std::string path_match;

  /// True when any fault rate is positive (arming a plan with any() ==
  /// false is a no-op).
  [[nodiscard]] bool any() const;
  /// Round-trippable spec string (parse_software_plan(to_spec()) == *this).
  [[nodiscard]] std::string to_spec() const;
};

/// Parse the key=value spec described above. Unknown keys, rates outside
/// [0, 1] and malformed numbers are kInvalidArgument errors. The empty
/// string parses to the all-zero plan.
[[nodiscard]] util::Result<SoftwarePlan> parse_software_plan(
    std::string_view spec);

enum class HardwareFaultKind {
  kCoordinate,  ///< pe=U,V@ITER[+K]
  kWearRank,    ///< rank=R@ITER
  kWeibull,     ///< weibull=N
};

/// One declared hardware-fault event (see file comment for the grammar).
struct HardwareFault {
  HardwareFaultKind kind = HardwareFaultKind::kCoordinate;
  std::int64_t u = -1;          ///< kCoordinate
  std::int64_t v = -1;          ///< kCoordinate
  std::int64_t rank = -1;       ///< kWearRank; 0 = most worn at that instant
  std::int64_t iteration = 1;   ///< strike after this iteration completes
  std::int64_t restore_after = 0;  ///< kCoordinate: >0 = transient, restored
                                   ///< this many iterations after the strike
  std::int64_t count = 0;       ///< kWeibull: number of sampled faults
};

/// Parse one hardware-fault spec.
[[nodiscard]] util::Result<HardwareFault> parse_hardware_fault(
    std::string_view spec);

/// Round-trippable rendering (used by run manifests and reports).
[[nodiscard]] std::string to_string(const HardwareFault& fault);

// ---------------------------------------------- hardware-fault resolver
// Turns a fault plan into PE strikes, for the runtime engine and the
// static reading alike. Wear-dependent specs resolve against a row-major
// usage grid and only ever pick live primaries (not dead in `remapper`).

/// One scheduled boundary action of a runtime fault timeline: a declared
/// fault, a resolved Weibull strike, or a pending transient restore.
struct TimelineEvent {
  std::int64_t iteration = 1;
  bool is_restore = false;
  HardwareFaultKind kind = HardwareFaultKind::kCoordinate;
  std::int64_t u = -1;
  std::int64_t v = -1;
  std::int64_t rank = -1;
  std::int64_t restore_after = 0;
};

/// A fault plan as a runtime timeline: the declared `pe=` and `rank=`
/// specs in declaration order, plus the total `weibull=N` count, which
/// resolves later against observed wear (sample_weibull_arrivals).
struct FaultTimeline {
  std::vector<TimelineEvent> pending;
  std::int64_t weibull_count = 0;
};

/// Errors (invalid_argument): a coordinate fault outside the
/// width×height array.
[[nodiscard]] util::Result<FaultTimeline> fault_timeline(
    const std::vector<HardwareFault>& faults, std::int64_t width,
    std::int64_t height);

/// "pe=(U,V)", the spelling every fault log uses.
[[nodiscard]] std::string pe_name(std::int64_t u, std::int64_t v);

/// The rank-th most-worn live primary (ties toward lower index); ranks
/// past the end clamp to the least-worn live PE. False when every primary
/// is dead.
[[nodiscard]] bool pick_by_rank(const std::vector<std::int64_t>& usage,
                                const rel::SpareRemapper& remapper,
                                std::int64_t rank, std::int64_t* u,
                                std::int64_t* v);

struct WeibullArrival {
  std::int64_t u = -1;
  std::int64_t v = -1;
  std::int64_t iteration = 1;  ///< strike boundary within the horizon
};

/// Up to `count` Weibull arrivals over the live primaries, from the
/// seed's "weibull" SplitMix64 substream: each victim is drawn without
/// replacement with probability ∝ usage^β (its early failure
/// probability), then its strike iteration clamp(ceil(U^{1/β}·T),
/// min(2, T), T) for horizon T — the Weibull CDF conditioned on failing
/// within the window. Fewer than `count` when the live PEs run out (or
/// carry no wear).
[[nodiscard]] std::vector<WeibullArrival> sample_weibull_arrivals(
    const std::vector<std::int64_t>& usage, const rel::SpareRemapper& remapper,
    std::int64_t count, double beta, std::uint64_t seed, std::int64_t horizon);

/// Observed per-PE wear that gives wear-dependent fault specs a static
/// reading: `rank=R` resolves to the R-th most-worn live primary and
/// `weibull=N` to the N victims sample_weibull_arrivals draws — the same
/// rules the runtime engine applies.
struct WearSnapshot {
  std::vector<std::int64_t> usage;  ///< row-major w·h usage counters
  double beta = rel::kJedecShape;   ///< Weibull shape for weibull= sampling
  std::uint64_t seed = 1;           ///< drives weibull= sampling
};

/// Fold permanent faults into the sched::ArrayState the fault-aware
/// mapper consumes (DESIGN.md §15): each fault claims a spare through a
/// fresh rel::SpareRemapper (lowest-free-spare order, like the runtime
/// engine), and only PEs left dead *and* un-spared make the state
/// degraded. Without a wear snapshot only permanent `pe=U,V@ITER` specs
/// convert; with one, `rank=R@ITER` and `weibull=N` resolve against the
/// snapshot deterministically. Errors (invalid_argument): out-of-range
/// coordinates, transient (`+K`) faults (they heal at runtime and have no
/// static reading), wear-dependent faults without a snapshot, or a
/// snapshot whose geometry does not match.
[[nodiscard]] util::Result<sched::ArrayState> array_state_from_faults(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares = 0);
[[nodiscard]] util::Result<sched::ArrayState> array_state_from_faults(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares,
    const WearSnapshot& wear);

}  // namespace rota::fi
