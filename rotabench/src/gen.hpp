#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file gen.hpp
/// Seeded input generators. Everything a workload feeds the program is made
/// here from the `--seed` argument alone: the same seed gives the same
/// request stream, fault plans and sweep order. The generators use their
/// own SplitMix64 so that no program code takes part in making the inputs.

namespace rotabench {

/// SplitMix64 (Steele, Lea & Flood 2014).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Substream `k` of `seed` (one SplitMix64 step over seed ^ k·golden).
[[nodiscard]] std::uint64_t substream(std::uint64_t seed, std::uint64_t k);

/// The zoo networks in their Table II + extended order.
[[nodiscard]] const std::vector<std::string>& zoo();
/// The networks light enough for the per-tile stochastic policies.
[[nodiscard]] const std::vector<std::string>& light_zoo();

struct Geometry {
  std::int64_t w = 14;
  std::int64_t h = 12;
};
[[nodiscard]] std::string to_string(const Geometry& g);

// ------------------------------------------------------------ serve_mix

/// One request of the serve stream, as a client would send it.
struct ServeRequest {
  std::string id;
  std::string op;  ///< schedule | wear | lifetime | stats
  std::string workload;
  Geometry array;
  std::string objective;  ///< canonical objective id
  std::string policy;     ///< wear only
  std::int64_t iters = 0;
  std::uint64_t seed = 0;
  std::string line;  ///< the JSON-lines wire text
};

/// Wear iterations every compute request asks for.
inline constexpr std::int64_t kServeIterations = 1000;

/// One round of the serve stream. Its make-up is fixed (README.md): every
/// zoo network appears once as a lifetime, once as a wear and once as a
/// schedule request, each on its own (array, objective) pair of a Latin
/// square over {14x12,16x16,32x32} x {energy,lifetime,throughput}; the four
/// light networks add one RandomStart or DiagonalStride wear request each;
/// two stats requests act as a scraper. The seed orders the requests
/// within each cost class (lifetime / wear / schedule+stats), which
/// interleave in a fixed, even pattern, and sets the policies' RNG seeds.
[[nodiscard]] std::vector<ServeRequest> serve_round(std::uint64_t seed);

// ----------------------------------------------------- degrade_timeline

struct DegradePlan {
  std::uint64_t seed = 0;      ///< engine seed of this timeline
  std::int64_t horizon = 0;    ///< iterations to age the array
  std::int64_t spares = 0;
  std::vector<std::string> faults;  ///< fi::parse_hardware_fault specs
};

/// `count` fault timelines for a w x h array. Each declares one early
/// `pe=U,V@I` fault (I in [1, 32]) and `strikes` further permanent faults
/// on distinct PEs at Weibull(beta) times, stratified over the first
/// `window` of the horizon: strike j lands at
/// window * horizon * ((j + U_j) / strikes)^(1/beta).
[[nodiscard]] std::vector<DegradePlan> degrade_plans(
    std::uint64_t seed, int count, Geometry array, std::int64_t horizon,
    std::int64_t spares, int strikes, double beta, double window);

// --------------------------------------------------------- design_sweep

struct SweepPoint {
  std::string workload;
  Geometry array;
  std::uint64_t seed = 0;  ///< experiment + Monte-Carlo seed of this point
};

/// Every (network, geometry) point of the grid, in a seeded order.
[[nodiscard]] std::vector<SweepPoint> sweep_grid(
    std::uint64_t seed, const std::vector<Geometry>& geometries);

}  // namespace rotabench
