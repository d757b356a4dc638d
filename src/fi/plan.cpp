#include "fi/plan.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/rng.hpp"

namespace rota::fi {

namespace {

using util::Error;
using util::ErrorCode;

/// Substream tag ("weibull") of the Weibull arrival sampler.
constexpr std::uint64_t kWeibullSeedTag = 0x77656962756c6cULL;

/// Split on `sep`, keeping empty pieces out.
std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    const std::string_view piece =
        text.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                         : end - start);
    if (!piece.empty()) out.emplace_back(piece);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

bool parse_number(const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

bool parse_integer(const std::string& text, std::int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<std::int64_t>(value);
  return true;
}

Error bad_spec(const std::string& what) {
  return Error{ErrorCode::kInvalidArgument, what};
}

util::Result<double> parse_rate(const std::string& key,
                                const std::string& value) {
  double rate = 0.0;
  if (!parse_number(value, &rate) || rate < 0.0 || rate > 1.0)
    return bad_spec("fault rate '" + key + "' must be a number in [0, 1], got '" +
                    value + "'");
  return rate;
}

}  // namespace

bool SoftwarePlan::any() const {
  return read_fail_rate > 0.0 || write_fail_rate > 0.0 || corrupt_rate > 0.0 ||
         stall_rate > 0.0 || alloc_fail_rate > 0.0;
}

std::string SoftwarePlan::to_spec() const {
  std::ostringstream out;
  out << "read=" << read_fail_rate << ",write=" << write_fail_rate
      << ",corrupt=" << corrupt_rate << ",stall=" << stall_rate
      << ",stall_ms=" << stall_ms << ",alloc=" << alloc_fail_rate
      << ",seed=" << seed;
  if (!path_match.empty()) out << ",match=" << path_match;
  return out.str();
}

util::Result<SoftwarePlan> parse_software_plan(std::string_view spec) {
  SoftwarePlan plan;
  for (const std::string& item : split(spec, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      return bad_spec("fault spec item '" + item + "' is not key=value");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "read" || key == "write" || key == "corrupt" ||
        key == "stall" || key == "alloc") {
      auto rate = parse_rate(key, value);
      if (!rate.ok()) return rate.error();
      if (key == "read") plan.read_fail_rate = rate.value();
      else if (key == "write") plan.write_fail_rate = rate.value();
      else if (key == "corrupt") plan.corrupt_rate = rate.value();
      else if (key == "stall") plan.stall_rate = rate.value();
      else plan.alloc_fail_rate = rate.value();
    } else if (key == "stall_ms") {
      std::int64_t ms = 0;
      if (!parse_integer(value, &ms) || ms < 0)
        return bad_spec("stall_ms must be a non-negative integer, got '" +
                        value + "'");
      plan.stall_ms = ms;
    } else if (key == "seed") {
      std::int64_t s = 0;
      if (!parse_integer(value, &s) || s < 0)
        return bad_spec("seed must be a non-negative integer, got '" + value +
                        "'");
      plan.seed = static_cast<std::uint64_t>(s);
    } else if (key == "match") {
      if (value.empty()) return bad_spec("match= needs a path substring");
      plan.path_match = value;
    } else {
      return bad_spec("unknown fault spec key '" + key +
                      "' (known: read, write, corrupt, stall, stall_ms, "
                      "alloc, seed, match)");
    }
  }
  return plan;
}

util::Result<HardwareFault> parse_hardware_fault(std::string_view spec) {
  const std::string text(spec);
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos)
    return bad_spec("fault spec '" + text +
                    "' is not pe=U,V@ITER[+K], rank=R@ITER or weibull=N");
  const std::string key = text.substr(0, eq);
  const std::string value = text.substr(eq + 1);

  HardwareFault fault;
  if (key == "weibull") {
    fault.kind = HardwareFaultKind::kWeibull;
    if (!parse_integer(value, &fault.count) || fault.count < 1)
      return bad_spec("weibull=N needs a positive fault count, got '" + value +
                      "'");
    return fault;
  }

  // pe= and rank= share the @ITER suffix.
  const std::size_t at = value.find('@');
  if (at == std::string::npos)
    return bad_spec("fault spec '" + text + "' is missing @ITER");
  std::string when = value.substr(at + 1);
  const std::string target = value.substr(0, at);

  if (key == "pe") {
    fault.kind = HardwareFaultKind::kCoordinate;
    const std::size_t plus = when.find('+');
    if (plus != std::string::npos) {
      if (!parse_integer(when.substr(plus + 1), &fault.restore_after) ||
          fault.restore_after < 1)
        return bad_spec("transient suffix +K needs a positive K in '" + text +
                        "'");
      when = when.substr(0, plus);
    }
    const std::size_t comma = target.find(',');
    if (comma == std::string::npos ||
        !parse_integer(target.substr(0, comma), &fault.u) ||
        !parse_integer(target.substr(comma + 1), &fault.v) || fault.u < 0 ||
        fault.v < 0)
      return bad_spec("pe= needs non-negative coordinates U,V in '" + text +
                      "'");
  } else if (key == "rank") {
    fault.kind = HardwareFaultKind::kWearRank;
    if (!parse_integer(target, &fault.rank) || fault.rank < 0)
      return bad_spec("rank= needs a non-negative wear rank in '" + text +
                      "'");
  } else {
    return bad_spec("unknown fault kind '" + key +
                    "' (known: pe, rank, weibull)");
  }

  if (!parse_integer(when, &fault.iteration) || fault.iteration < 1)
    return bad_spec("@ITER needs a positive iteration in '" + text + "'");
  return fault;
}

std::string to_string(const HardwareFault& fault) {
  std::ostringstream out;
  switch (fault.kind) {
    case HardwareFaultKind::kCoordinate:
      out << "pe=" << fault.u << "," << fault.v << "@" << fault.iteration;
      if (fault.restore_after > 0) out << "+" << fault.restore_after;
      break;
    case HardwareFaultKind::kWearRank:
      out << "rank=" << fault.rank << "@" << fault.iteration;
      break;
    case HardwareFaultKind::kWeibull:
      out << "weibull=" << fault.count;
      break;
  }
  return out.str();
}

// ---------------------------------------------- hardware-fault resolver

util::Result<FaultTimeline> fault_timeline(
    const std::vector<HardwareFault>& faults, std::int64_t width,
    std::int64_t height) {
  FaultTimeline timeline;
  for (const HardwareFault& fault : faults) {
    if (fault.kind == HardwareFaultKind::kWeibull) {
      timeline.weibull_count += fault.count;
      continue;
    }
    if (fault.kind == HardwareFaultKind::kCoordinate &&
        (fault.u < 0 || fault.u >= width || fault.v < 0 ||
         fault.v >= height)) {
      return bad_spec("coordinate fault " + to_string(fault) +
                      " lies outside the configured array");
    }
    TimelineEvent event;
    event.iteration = fault.iteration;
    event.kind = fault.kind;
    event.u = fault.u;
    event.v = fault.v;
    event.rank = fault.rank;
    event.restore_after = fault.restore_after;
    timeline.pending.push_back(event);
  }
  return timeline;
}

std::string pe_name(std::int64_t u, std::int64_t v) {
  std::ostringstream out;
  out << "pe=(" << u << "," << v << ")";
  return out.str();
}

bool pick_by_rank(const std::vector<std::int64_t>& usage,
                  const rel::SpareRemapper& remapper, std::int64_t rank,
                  std::int64_t* u, std::int64_t* v) {
  const std::int64_t width = remapper.width();
  std::vector<std::size_t> live;
  live.reserve(usage.size());
  for (std::size_t idx = 0; idx < usage.size(); ++idx) {
    const auto iu = static_cast<std::int64_t>(idx) % width;
    const auto iv = static_cast<std::int64_t>(idx) / width;
    if (!remapper.is_dead(iu, iv)) live.push_back(idx);
  }
  if (live.empty()) return false;
  std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
    if (usage[a] != usage[b]) return usage[a] > usage[b];
    return a < b;
  });
  const std::size_t pick =
      std::min<std::size_t>(static_cast<std::size_t>(rank), live.size() - 1);
  *u = static_cast<std::int64_t>(live[pick]) % width;
  *v = static_cast<std::int64_t>(live[pick]) / width;
  return true;
}

std::vector<WeibullArrival> sample_weibull_arrivals(
    const std::vector<std::int64_t>& usage, const rel::SpareRemapper& remapper,
    std::int64_t count, double beta, std::uint64_t seed,
    std::int64_t horizon) {
  const std::int64_t width = remapper.width();
  util::SplitMix64 rng(seed ^ kWeibullSeedTag);
  std::vector<double> weight(usage.size(), 0.0);
  for (std::size_t idx = 0; idx < usage.size(); ++idx) {
    const auto u = static_cast<std::int64_t>(idx) % width;
    const auto v = static_cast<std::int64_t>(idx) / width;
    if (!remapper.is_dead(u, v)) {
      weight[idx] = std::pow(static_cast<double>(usage[idx]), beta);
    }
  }
  std::vector<WeibullArrival> arrivals;
  for (std::int64_t n = 0; n < count; ++n) {
    double total = 0.0;
    for (const double w : weight) total += w;
    if (total <= 0.0) break;
    double pick = rng.next_double() * total;
    std::size_t idx = 0;
    for (; idx + 1 < weight.size(); ++idx) {
      if (pick < weight[idx]) break;
      pick -= weight[idx];
    }
    weight[idx] = 0.0;  // without replacement
    const double frac = std::pow(rng.next_double(), 1.0 / beta);
    WeibullArrival arrival;
    arrival.u = static_cast<std::int64_t>(idx) % width;
    arrival.v = static_cast<std::int64_t>(idx) / width;
    arrival.iteration = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(
            std::ceil(frac * static_cast<double>(horizon))),
        std::min<std::int64_t>(2, horizon), horizon);
    arrivals.push_back(arrival);
  }
  return arrivals;
}

namespace {

util::Result<sched::ArrayState> array_state_from_faults_impl(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares,
    const WearSnapshot* wear) {
  if (width < 1 || height < 1) {
    return bad_spec("array_state_from_faults: array must be at least 1x1, "
                    "got " +
                    std::to_string(width) + "x" + std::to_string(height));
  }
  if (spares < 0) {
    return bad_spec("array_state_from_faults: spares must be >= 0, got " +
                    std::to_string(spares));
  }
  if (wear != nullptr) {
    if (wear->usage.size() !=
        static_cast<std::size_t>(width) * static_cast<std::size_t>(height)) {
      return bad_spec("array_state_from_faults: wear snapshot has " +
                      std::to_string(wear->usage.size()) + " cells but the " +
                      std::to_string(width) + "x" + std::to_string(height) +
                      " array needs " + std::to_string(width * height));
    }
    if (!(wear->beta > 0.0)) {
      return bad_spec(
          "array_state_from_faults: wear snapshot beta must be positive");
    }
  }
  rel::SpareRemapper remapper(width, height, spares);
  const auto kill = [&remapper](std::int64_t u, std::int64_t v) {
    if (!remapper.is_dead(u, v)) (void)remapper.fault_primary(u, v);
  };
  for (const HardwareFault& fault : faults) {
    if (fault.restore_after > 0) {
      return bad_spec("array_state_from_faults: transient fault '" +
                      to_string(fault) +
                      "' has no static dead-PE reading (it heals at "
                      "runtime)");
    }
    if (fault.kind != HardwareFaultKind::kCoordinate && wear == nullptr) {
      return bad_spec("array_state_from_faults: wear-dependent fault '" +
                      to_string(fault) +
                      "' needs a wear snapshot to get a static dead-PE "
                      "reading");
    }
    switch (fault.kind) {
      case HardwareFaultKind::kCoordinate:
        if (fault.u < 0 || fault.u >= width || fault.v < 0 ||
            fault.v >= height) {
          return bad_spec("array_state_from_faults: fault '" +
                          to_string(fault) + "' lies outside the " +
                          std::to_string(width) + "x" +
                          std::to_string(height) + " array");
        }
        kill(fault.u, fault.v);
        break;
      case HardwareFaultKind::kWearRank: {
        std::int64_t u = 0;
        std::int64_t v = 0;
        if (pick_by_rank(wear->usage, remapper, fault.rank, &u, &v)) {
          kill(u, v);
        }
        break;
      }
      case HardwareFaultKind::kWeibull:
        // Strike times do not matter to a static reading: every victim
        // has struck by the end of the horizon.
        for (const WeibullArrival& arrival :
             sample_weibull_arrivals(wear->usage, remapper, fault.count,
                                     wear->beta, wear->seed, 1)) {
          kill(arrival.u, arrival.v);
        }
        break;
    }
  }
  return sched::ArrayState(remapper);
}

}  // namespace

util::Result<sched::ArrayState> array_state_from_faults(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares) {
  return array_state_from_faults_impl(width, height, faults, spares, nullptr);
}

util::Result<sched::ArrayState> array_state_from_faults(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares,
    const WearSnapshot& wear) {
  return array_state_from_faults_impl(width, height, faults, spares, &wear);
}

}  // namespace rota::fi
