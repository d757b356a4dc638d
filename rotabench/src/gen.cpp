#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace rotabench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

std::uint64_t substream(std::uint64_t seed, std::uint64_t k) {
  return Rng(seed ^ (k * 0x9E3779B97F4A7C15ULL)).next();
}

const std::vector<std::string>& zoo() {
  static const std::vector<std::string> kZoo = {
      "Res", "Inc", "YL", "Sqz", "Mb", "Eff",
      "VT",  "MVT", "LM", "AN",  "VGG", "BRT"};
  return kZoo;
}

const std::vector<std::string>& light_zoo() {
  static const std::vector<std::string> kLight = {"Sqz", "Mb", "Eff", "MVT"};
  return kLight;
}

std::string to_string(const Geometry& g) {
  return std::to_string(g.w) + "x" + std::to_string(g.h);
}

namespace {

template <class T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

std::string wire_line(const ServeRequest& r) {
  std::ostringstream os;
  os << "{\"schema_version\":2,\"id\":\"" << r.id << "\",\"op\":\"" << r.op
     << '"';
  if (r.op != "stats") {
    os << ",\"workload\":\"" << r.workload << "\",\"array\":\""
       << to_string(r.array) << "\",\"objective\":\"" << r.objective
       << '"';
  }
  if (r.op == "wear" || r.op == "lifetime") {
    os << ",\"iters\":" << r.iters << ",\"seed\":" << r.seed;
  }
  if (r.op == "wear") os << ",\"policy\":\"" << r.policy << '"';
  os << '}';
  return os.str();
}

}  // namespace

std::vector<ServeRequest> serve_round(std::uint64_t seed) {
  static const Geometry kArrays[3] = {{14, 12}, {16, 16}, {32, 32}};
  static const char* const kObjectives[3] = {"energy", "lifetime",
                                             "throughput"};
  static const char* const kPolicies[3] = {"Baseline", "RWL", "RWL+RO"};
  // Three cost classes: lifetime (three policy cells), wear (one), and
  // schedule/stats (no simulation).
  std::vector<ServeRequest> classes[3];
  const auto add = [&](int cls, std::string op, const std::string& net,
                       int a, int o, std::string policy) {
    ServeRequest r;
    r.op = std::move(op);
    r.workload = net;
    r.array = kArrays[a % 3];
    r.objective = kObjectives[o % 3];
    r.policy = std::move(policy);
    r.iters = kServeIterations;
    classes[cls].push_back(std::move(r));
  };
  const std::vector<std::string>& nets = zoo();
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const int a = static_cast<int>(i % 3);
    const int o = static_cast<int>((i / 3) % 3);
    add(0, "lifetime", nets[i], a, o, "");
    add(1, "wear", nets[i], a + 1, o + 1, kPolicies[(i + i / 3) % 3]);
    add(2, "schedule", nets[i], a + 2, o + 2, "");
  }
  // The per-tile stochastic policies, on the light networks only.
  add(1, "wear", "Sqz", 2, 0, "DiagonalStride");
  add(1, "wear", "Mb", 1, 0, "RandomStart");
  add(1, "wear", "Eff", 2, 0, "RandomStart");
  add(1, "wear", "MVT", 2, 0, "DiagonalStride");
  for (int s = 0; s < 2; ++s) add(2, "stats", "", 0, 0, "");

  // The seed orders each class; the classes interleave evenly in a fixed
  // pattern, so every seed spreads the expensive requests alike and the
  // round's cost does not hinge on where the seed puts them.
  Rng rng(seed);
  std::size_t total = 0;
  for (std::vector<ServeRequest>& c : classes) {
    shuffle(c, rng);
    total += c.size();
  }
  std::vector<ServeRequest> round;
  std::size_t taken[3] = {0, 0, 0};
  for (std::size_t p = 0; p < total; ++p) {
    int pick = 0;
    double deficit = -1.0;
    for (int c = 0; c < 3; ++c) {
      const double due = static_cast<double>((p + 1) * classes[c].size()) /
                             static_cast<double>(total) -
                         static_cast<double>(taken[c]);
      if (taken[c] < classes[c].size() && due > deficit) {
        pick = c;
        deficit = due;
      }
    }
    round.push_back(std::move(classes[pick][taken[pick]++]));
  }
  for (std::size_t n = 0; n < round.size(); ++n) {
    ServeRequest& r = round[n];
    r.id = "r" + std::to_string(n);
    r.seed = rng.next() >> 12;
    r.line = wire_line(r);
  }
  return round;
}

std::vector<DegradePlan> degrade_plans(std::uint64_t seed, int count,
                                       Geometry array, std::int64_t horizon,
                                       std::int64_t spares, int strikes,
                                       double beta, double window) {
  std::vector<DegradePlan> plans;
  const auto cells = static_cast<std::uint64_t>(array.w * array.h);
  for (int k = 0; k < count; ++k) {
    Rng rng(substream(seed, static_cast<std::uint64_t>(k)));
    DegradePlan plan;
    plan.seed = rng.next() >> 12;
    plan.horizon = horizon;
    plan.spares = spares;
    // Distinct PEs: a partial Fisher-Yates draw over the array.
    std::vector<std::uint64_t> pes(cells);
    for (std::uint64_t i = 0; i < cells; ++i) pes[i] = i;
    for (std::uint64_t i = 0; i <= static_cast<std::uint64_t>(strikes); ++i) {
      std::swap(pes[i], pes[i + rng.below(cells - i)]);
    }
    const auto pe = [&](std::uint64_t idx) {
      return "pe=" + std::to_string(pes[idx] % static_cast<std::uint64_t>(array.w)) +
             "," + std::to_string(pes[idx] / static_cast<std::uint64_t>(array.w));
    };
    plan.faults.push_back(pe(0) + "@" + std::to_string(1 + rng.below(32)));
    for (int j = 0; j < strikes; ++j) {
      const double frac =
          window * std::pow((j + rng.uniform()) / strikes, 1.0 / beta);
      const auto at = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::ceil(frac * static_cast<double>(horizon))),
          2, horizon);
      plan.faults.push_back(pe(static_cast<std::uint64_t>(j) + 1) + "@" +
                            std::to_string(at));
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<SweepPoint> sweep_grid(std::uint64_t seed,
                                   const std::vector<Geometry>& geometries) {
  Rng rng(seed);
  std::vector<SweepPoint> grid;
  for (const Geometry& g : geometries) {
    for (const std::string& net : zoo()) {
      grid.push_back({net, g, 0});
    }
  }
  shuffle(grid, rng);
  for (SweepPoint& p : grid) p.seed = rng.next() >> 12;
  return grid;
}

}  // namespace rotabench
