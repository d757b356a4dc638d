// serve_mix: a seeded request stream answered by svc::Engine at 4 lanes
// with telemetry on, as `rota serve --stats-out` runs it. One client thread
// keeps a fixed window of requests in flight through Engine::submit (a
// closed loop) and consumes the replies in request order.

#include <deque>
#include <future>
#include <map>
#include <memory>
#include <numeric>

#include "arch/config.hpp"
#include "checks.hpp"
#include "gen.hpp"
#include "nn/workloads.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "sched/mapper.hpp"
#include "svc/cache.hpp"
#include "svc/engine.hpp"
#include "svc/jsonv.hpp"
#include "svc/request.hpp"
#include "workloads.hpp"

namespace rotabench {

using namespace rota;

namespace {

/// Requests in flight. With four (one per lane) the lanes contend for the
/// metrics registry's lock so hard that throughput drops (about 14 against
/// 22 requests/s with two) and runs spread 15-26%; two keep two lanes
/// working at once and spread under 10%.
constexpr std::size_t kWindow = 2;
constexpr int kSetups = 7;
/// The latency tail is the nearest-rank p90 of every measured request:
/// about 70 requests lie beyond it in a 35-second run. Not the mean of the
/// requests beyond it, which follows the few slowest and spread 16-29%
/// across seeds on a shared host, nor a per-round p90, which has only 4
/// requests beyond it.
constexpr double kTailPct = 90.0;
constexpr std::size_t kMaxRequestBytes = 1 << 20;

std::string schedule_key(const ServeRequest& r) {
  return r.workload + "|" + to_string(r.array) + "|" + r.objective;
}

std::string usage_key(const ServeRequest& r) {
  return schedule_key(r) + "|" + std::to_string(r.iters);
}

/// Telemetry as a `--stats-out` service has it: a fresh registry and event
/// log, recording.
void set_telemetry(bool on) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  obs::EventLog& events = obs::EventLog::global();
  metrics.reset();
  events.reset();
  metrics.set_enabled(on);
  events.set_enabled(on);
}

/// One reply as the client consumed it.
struct Served {
  ReplyView view;
  std::size_t index = 0;  ///< request index in the round
  std::string payload;
  double latency_ms = 0.0;  ///< submit -> reply, client side
  double compute_ms = 0.0;  ///< the reply's wall_seconds
};

struct Service {
  std::unique_ptr<svc::Engine> engine;
  /// usage_key -> iterations * sum(tiles*x*y) / (w*h) of its schedule.
  std::map<std::string, double> expected_mean;
  /// usage_key -> tiles per iteration of its schedule.
  std::map<std::string, std::int64_t> tiles;
};

/// Set-up: an engine at `lanes`, its schedule cache warmed with every
/// (workload, array, objective) the round asks for.
Service set_up(const std::vector<ServeRequest>& round, int lanes,
               const std::map<std::string, nn::Network>& nets) {
  svc::EngineOptions options;
  options.threads = lanes;
  Service service;
  service.engine = std::make_unique<svc::Engine>(options);
  std::map<std::string, const ServeRequest*> keys;
  for (const ServeRequest& r : round) {
    if (r.op != "stats") keys.emplace(schedule_key(r), &r);
  }
  for (const auto& [key, r] : keys) {
    arch::AcceleratorConfig accel = arch::rota_like();
    accel.array_width = r->array.w;
    accel.array_height = r->array.h;
    sched::Mapper mapper(accel, sched::parse_objective(r->objective).value(),
                         {}, sched::MapperOptions{true, kLanes});
    const sched::NetworkSchedule ns = svc::cached_schedule_network(
        mapper, nets.at(r->workload), service.engine->cache());
    std::vector<SpaceView> spaces;
    for (const sched::LayerSchedule& l : ns.layers) {
      spaces.push_back({l.space.x, l.space.y, l.tiles});
    }
    service.tiles[usage_key(*r)] = ns.total_tiles();
    service.expected_mean[usage_key(*r)] = expected_mean_usage(
        spaces, r->array.w, r->array.h, kServeIterations);
  }
  return service;
}

/// The request stream: round r is serve_round(substream(seed, r)), the
/// same operations every round in that round's own seeded order, so a
/// run's figures average over many orders rather than hinge on one.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : seed_(seed) {}
  const std::vector<ServeRequest>& round(std::size_t r) {
    while (rounds_.size() <= r) {
      rounds_.push_back(serve_round(substream(seed_, rounds_.size())));
    }
    return rounds_[r];
  }

 private:
  std::uint64_t seed_;
  std::deque<std::vector<ServeRequest>> rounds_;  ///< references stay valid
};

struct Rounds {
  std::size_t first = 0;       ///< stream index of served[0]
  std::vector<double> wall_s;  ///< from the previous round's last reply
  std::vector<std::vector<Served>> served;
};

/// The closed loop: keep kWindow requests of the stream in flight, from
/// round `first` on, and consume replies in request order. Once `seconds`
/// have passed (and at least `min_rounds` are under way) it submits only
/// what completes the current round, then drains.
Rounds serve_for(svc::Engine& engine, Stream& stream, std::size_t first,
                 Spans& spans, double seconds, std::size_t min_rounds) {
  struct InFlight {
    std::size_t index = 0;  ///< position in the stream from round `first`
    Clock::time_point sent;
    std::future<svc::Response> reply;
  };
  const std::size_t n = stream.round(first).size();
  Rounds rounds;
  rounds.first = first;
  std::deque<InFlight> window;
  std::size_t next = 0;
  std::size_t limit = 0;  ///< 0 until the stream's end is fixed
  const Clock::time_point start = Clock::now();
  Clock::time_point round_start = start;
  for (;;) {
    if (limit == 0 && next >= min_rounds * n &&
        seconds_between(start, Clock::now()) >= seconds) {
      limit = (next + n - 1) / n * n;
    }
    while (window.size() < kWindow && (limit == 0 || next < limit)) {
      const ServeRequest& request = stream.round(first + next / n)[next % n];
      InFlight f;
      f.index = next++;
      util::Result<svc::Request> parsed = [&] {
        const Spans::Scope span(spans, "svc.parse");
        return svc::parse_request(request.line, kMaxRequestBytes);
      }();
      f.sent = Clock::now();
      if (parsed.ok()) {
        const Spans::Scope span(spans, "svc.submit");
        f.reply = engine.submit(std::move(parsed).take());
      } else {
        std::promise<svc::Response> refused;
        svc::Response response;
        response.id = request.id;
        response.error = parsed.error();
        refused.set_value(std::move(response));
        f.reply = refused.get_future();
      }
      window.push_back(std::move(f));
    }
    if (window.empty()) break;
    InFlight& f = window.front();
    svc::Response response;
    {
      const Spans::Scope span(spans, "svc.wait");
      response = f.reply.get();
    }
    Served s;
    s.latency_ms = seconds_between(f.sent, Clock::now()) * 1e3;
    std::string wire;  // what `rota serve` would write back
    {
      const Spans::Scope span(spans, "svc.emit");
      wire = svc::to_json(response);
    }
    s.view = {response.id, response.ok, response.seq};
    s.index = f.index % n;
    s.payload = response.payload_json;
    s.compute_ms = response.wall_seconds * 1e3;
    if (s.index == 0) rounds.served.emplace_back();
    rounds.served.back().push_back(std::move(s));
    if (f.index % n == n - 1) {
      const Clock::time_point now = Clock::now();
      rounds.wall_s.push_back(seconds_between(round_start, now));
      round_start = now;
    }
    window.pop_front();
  }
  return rounds;
}

/// Check one served round (README.md, serve_mix checks).
Findings check_round(const std::vector<ServeRequest>& round,
                     const std::vector<Served>& served,
                     const std::map<std::string, double>& expected) {
  std::vector<std::string> ids;
  for (const ServeRequest& r : round) ids.push_back(r.id);
  std::vector<ReplyView> views;
  for (const Served& s : served) views.push_back(s.view);
  Findings out = check_reply_order(ids, views);
  std::vector<MeanUsage> means;
  for (const Served& s : served) {
    const ServeRequest& r = round[s.index];
    if (!s.view.ok || (r.op != "wear" && r.op != "lifetime")) continue;
    auto doc = svc::JsonValue::parse(s.payload);
    if (!doc.ok()) {
      out.push_back("serve: reply " + r.id + " payload is not JSON");
      continue;
    }
    const svc::JsonValue& payload = doc.value();
    const auto number = [](const svc::JsonValue& v, const char* a,
                           const char* b) {
      const svc::JsonValue* outer = v.find(a);
      const svc::JsonValue* inner = outer ? outer->find(b) : nullptr;
      return inner && inner->is_number() ? inner->number() : -1.0;
    };
    if (r.op == "wear") {
      means.push_back({usage_key(r), r.policy, number(payload, "stats", "mean")});
      continue;
    }
    const svc::JsonValue* runs = payload.find("runs");
    if (runs == nullptr || !runs->is_array() || runs->array().empty()) {
      out.push_back("serve: lifetime reply " + r.id + " has no runs");
      continue;
    }
    const svc::JsonValue& baseline = runs->array().front();
    const double max_b = number(baseline, "stats", "max");
    const double mean_b = number(baseline, "stats", "mean");
    for (const svc::JsonValue& run : runs->array()) {
      const svc::JsonValue* policy = run.find("policy");
      const svc::JsonValue* gain = run.find("improvement");
      const std::string name =
          policy && policy->is_string() ? policy->str() : "?";
      means.push_back({usage_key(r), name, number(run, "stats", "mean")});
      const Findings bound = check_improvement_bound(
          "serve: " + r.id + " " + name,
          gain && gain->is_number() ? gain->number() : 0.0, max_b, mean_b);
      out.insert(out.end(), bound.begin(), bound.end());
    }
  }
  const Findings usage = check_mean_usage(means, expected);
  out.insert(out.end(), usage.begin(), usage.end());
  return out;
}

}  // namespace

RunResult run_serve_mix(const RunSettings& settings) {
  Stream stream(settings.seed);
  RunResult result;

  // ---- set-up, several times; the last engine serves -----------------
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::map<std::string, nn::Network> nets;
  Service service;
  for (int k = 0; k < kSetups; ++k) {
    service = {};  // the previous engine drains and joins first
    const Clock::time_point t0 = Clock::now();
    set_telemetry(true);
    nets.clear();
    for (const std::string& abbr : zoo()) {
      nets.emplace(abbr, nn::workload_by_abbr(abbr));
    }
    build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    service = set_up(stream.round(0), kLanes, nets);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  svc::Engine& engine = *service.engine;

  // ---- one warm-up round, then the measured rounds ----------------------
  // With 4 or 8 in flight the first round through a fresh engine ran
  // 2-3x faster than every later one, so it is served (and checked) but
  // not measured.
  Spans no_spans(false);
  std::vector<Rounds> all;  ///< every served round, for the checks
  // Serves the stream's next rounds; callers copy the result out, since
  // `all` may reallocate on the next call.
  const auto serve = [&](svc::Engine& on, Spans& spans, double seconds,
                         std::size_t min_rounds) -> const Rounds& {
    const std::size_t first =
        all.empty() ? 0 : all.back().first + all.back().served.size();
    all.push_back(serve_for(on, stream, first, spans, seconds, min_rounds));
    return all.back();
  };
  (void)serve(engine, no_spans, 0.0, 1);
  const svc::ScheduleCacheStats cache_before = engine.cache_stats();
  Spans spans(settings.trace);
  const Rounds measured = serve(engine, spans, settings.seconds, 2);
  const svc::ScheduleCacheStats cache_after = engine.cache_stats();

  // The service's exit snapshot, as SnapshotPublisher::stop() takes it.
  const Clock::time_point snap_t0 = Clock::now();
  const obs::MetricsSnapshot snapshot = obs::capture_snapshot();
  const std::string snapshot_text = obs::snapshot_json(snapshot);
  const double final_snapshot_ms = seconds_between(snap_t0, Clock::now()) * 1e3;

  std::vector<double> latency_ms;
  std::vector<double> compute_ms;
  std::vector<double> wait_ms;
  std::vector<double> snapshot_ms = {final_snapshot_ms};
  double wear_ms = 0.0;
  double wear_tiles = 0.0;
  for (std::size_t k = 0; k < measured.served.size(); ++k) {
    const std::vector<ServeRequest>& round = stream.round(measured.first + k);
    for (const Served& s : measured.served[k]) {
      const ServeRequest& r = round[s.index];
      latency_ms.push_back(s.latency_ms);
      compute_ms.push_back(s.compute_ms);
      wait_ms.push_back(s.latency_ms - s.compute_ms);
      if (r.op == "stats") snapshot_ms.push_back(s.compute_ms);
      if (r.op == "wear" || r.op == "lifetime") {
        wear_ms += s.compute_ms;
        // A lifetime request runs three policy cells.
        wear_tiles += static_cast<double>(service.tiles.at(usage_key(r)) *
                                          r.iters) *
                      (r.op == "lifetime" ? 3.0 : 1.0);
      }
    }
  }
  const auto n_rounds = static_cast<double>(measured.wall_s.size());

  if (!settings.trace) {
    // The round wall is a median over rounds, so a burst of load from
    // outside the benchmark moves one round, not the figure. Latencies are
    // percentiles of all measured requests: a round holds too few requests
    // for a steady p90 of its own.
    add_end_to_end(result, setup_s, measured.wall_s,
                   static_cast<double>(stream.round(0).size()),
                   median(latency_ms), percentile(latency_ms, kTailPct));
  } else {
    // Untraced rounds of the same engine, then telemetry off, then one
    // lane: the bases of the overhead and speed-up ratios.
    const Rounds untraced = serve(engine, no_spans, 0.0, 2);
    set_telemetry(false);
    const Rounds quiet = serve(engine, no_spans, 0.0, 2);
    set_telemetry(true);
    Service one_lane = set_up(stream.round(0), 1, nets);
    (void)serve(*one_lane.engine, no_spans, 0.0, 1);
    const Rounds serial = serve(*one_lane.engine, no_spans, 0.0, 2);
    set_telemetry(false);

    std::int64_t histogram_samples = 0;
    for (const auto& [name, h] : snapshot.metrics.histograms) {
      histogram_samples += h.count;
    }
    const std::int64_t hits = (cache_after.hits_memory + cache_after.hits_disk) -
                              (cache_before.hits_memory + cache_before.hits_disk);
    const std::int64_t lookups = hits + cache_after.misses - cache_before.misses;
    const std::map<std::string, SpanTotals> by_name = spans.by_name();
    const auto span_ms = [&](const char* name) {
      const auto found = by_name.find(name);
      return found == by_name.end() ? 0.0 : found->second.total_ms / n_rounds;
    };
    const double untraced_wall = median(untraced.wall_s);
    add_per_layer(
        result,
        {
            {"nn.build_ms", median(build_ms)},
            {"svc.compute_ms_p50", median(compute_ms)},
            {"svc.wait_ms_p50", median(wait_ms)},
            {"svc.parse_ms", span_ms("svc.parse")},
            {"svc.emit_ms", span_ms("svc.emit")},
            {"svc.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                         : 0.0},
            {"svc.cache_lookups", static_cast<double>(lookups) / n_rounds},
            {"obs.overhead_ratio", untraced_wall / median(quiet.wall_s)},
            {"obs.snapshot_ms", std::accumulate(snapshot_ms.begin(), snapshot_ms.end(), 0.0) /
                                    static_cast<double>(snapshot_ms.size())},
            {"obs.histogram_samples", static_cast<double>(histogram_samples)},
            {"wear.run_ms", wear_ms / n_rounds},
            {"wear.tiles", wear_tiles / n_rounds},
            {"wear.tiles_per_s", wear_ms > 0.0 ? wear_tiles / (wear_ms / 1e3) : 0.0},
            {"par.serve_speedup", median(serial.wall_s) / untraced_wall},
            {"trace.overhead_s", median(measured.wall_s) - untraced_wall},
        },
        spans, n_rounds);
    if (!settings.spans_path.empty() && !spans.write_json(settings.spans_path)) {
      result.problems.push_back("could not write " + settings.spans_path);
    }
  }
  set_telemetry(false);

  // ---- checks ----------------------------------------------------------
  if (snapshot_text.find("\"schema_version\"") == std::string::npos) {
    result.problems.push_back("serve: exit snapshot lacks schema_version");
  }
  for (const Rounds& rounds : all) {
    for (std::size_t k = 0; k < rounds.served.size(); ++k) {
      const std::vector<Served>& served = rounds.served[k];
      result.check(check_round(stream.round(rounds.first + k), served,
                               service.expected_mean));
      for (const Served& s : served) {
        ++result.attempted;
        if (!s.view.ok) ++result.failed;
      }
    }
  }
  return result;
}

}  // namespace rotabench
