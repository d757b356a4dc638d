#include "svc/engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "fi/hooks.hpp"
#include "nn/workloads.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "reliability/array_reliability.hpp"
#include "util/check.hpp"
#include "wear/policy.hpp"
#include "wear/simulator.hpp"

namespace rota::svc {

namespace {

using util::ErrorCode;

arch::AcceleratorConfig accel_of(const Request& req) {
  arch::AcceleratorConfig cfg = arch::rota_like();
  cfg.array_width = req.array_width;
  cfg.array_height = req.array_height;
  cfg.validate();
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The request's mapper objective. parse_request already validated and
/// canonicalized the field, so a failure here is a programming error
/// surfaced by the catch chain as invalid_argument.
sched::ObjectiveSpec objective_of(const Request& request) {
  auto spec = sched::parse_objective(request.objective);
  ROTA_REQUIRE(spec.ok(), "invalid request objective '" + request.objective +
                              "': " + spec.error().message);
  return spec.value();
}

std::string payload_schedule(const sched::NetworkSchedule& ns,
                             const sched::ObjectiveSpec& objective) {
  std::ostringstream os;
  os << "{\"workload\":" << obs::json_quote(ns.network_abbr)
     << ",\"objective\":" << obs::json_quote(objective.id())
     << ",\"layers\":" << ns.layers.size()
     << ",\"total_tiles\":" << ns.total_tiles()
     << ",\"mean_utilization\":" << obs::json_number(ns.mean_utilization())
     << ",\"total_energy\":" << obs::json_number(ns.total_energy())
     << ",\"total_cycles\":" << obs::json_number(ns.total_cycles()) << '}';
  return os.str();
}

std::string json_stats(const wear::UsageStats& stats) {
  std::ostringstream os;
  os << "{\"min\":" << stats.min << ",\"max\":" << stats.max
     << ",\"d_max\":" << stats.max_diff
     << ",\"r_diff\":" << obs::json_number(stats.r_diff)
     << ",\"mean\":" << obs::json_number(stats.mean) << '}';
  return os.str();
}

/// The structured error reply for a request that never reaches execute().
Response error_reply(const Request& req, ErrorCode code, std::string message) {
  Response resp;
  resp.id = req.id;
  resp.seq = req.seq;
  resp.error = {code, std::move(message)};
  return resp;
}

/// One policy pass over a schedule — the exact computation Experiment's
/// run_policies performs for one cell (same simulator options, same
/// policy seeding), so engine replies are bit-identical to the CLI path.
struct PolicyOutcome {
  std::string name;
  wear::UsageStats stats;
  std::vector<double> alphas;
};

PolicyOutcome run_policy(const arch::AcceleratorConfig& accel,
                         const sched::NetworkSchedule& ns,
                         const Request& req, wear::PolicyKind kind) {
  auto policy =
      wear::make_policy(kind, accel.array_width, accel.array_height, req.seed);
  wear::WearSimulator sim(accel, {true, req.metric});
  sim.run_iterations(ns, *policy, req.iterations);
  PolicyOutcome out;
  out.name = policy->name();
  out.stats = sim.tracker().stats();
  out.alphas = sim.tracker().usage_as_doubles();
  return out;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), cache_(options_.cache) {
  // Capped, so an absurd --threads cannot ask the OS for that many threads.
  const std::size_t lanes =
      std::min<std::size_t>(par::resolve_threads(options_.threads), 256);
  try {
    const util::MutexLock spawning(join_mu_);
    while (lanes_.size() < lanes) lanes_.emplace_back([this] { lane_loop(); });
  } catch (...) {
    shutdown();  // join the lanes already started before unwinding
    throw;
  }
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  {
    const util::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  const util::MutexLock joining(join_mu_);
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
}

std::future<Response> Engine::submit(Request request) {
  Job job;
  job.request = std::move(request);
  job.request.seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.submitted = std::chrono::steady_clock::now();
  std::future<Response> future = job.promise.get_future();
  {
    const util::MutexLock lock(mu_);
    if (stopping_) {
      job.promise.set_value(
          error_reply(job.request, ErrorCode::kUnavailable,
                      "engine is shutting down; request not accepted"));
      return future;
    }
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
      // Shed, never drop: the caller gets a structured overloaded reply
      // immediately and can back off and retry.
      shed_count_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::global().add("svc.requests_shed");
      obs::log_event(obs::Severity::kWarn, "svc",
                     "request shed: queue is full (" +
                         std::to_string(options_.max_queue) + " waiting)",
                     job.request.seq, job.request.id);
      job.promise.set_value(error_reply(
          job.request, ErrorCode::kOverloaded,
          "queue is full (" + std::to_string(options_.max_queue) +
              " requests waiting); retry after backoff"));
      return future;
    }
    queue_.push_back(std::move(job));
    // Under mu_, so the gauge's last write is the queue's last state.
    obs::MetricsRegistry::global().gauge("svc.queue_depth",
                                         static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

void Engine::lane_loop() {
  for (;;) {
    Job job;
    {
      util::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock, mu_);
      if (queue_.empty()) return;  // stopping_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
      obs::MetricsRegistry::global().gauge(
          "svc.queue_depth", static_cast<double>(queue_.size()));
    }
    // Each job answers through its own promise, so reply routing never
    // depends on which lane ran it (DESIGN.md §9). A failure outside
    // execute()'s own catch reaches the waiting client, not terminate().
    try {
      job.promise.set_value(run_job(job));
    } catch (...) {
      job.promise.set_exception(std::current_exception());
    }
  }
}

Response Engine::run_job(Job& job) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const Request& req = job.request;
  // Queue-wait phase ends the moment a lane picks the job up; cancelled
  // and expired requests waited just the same, so they are observed too.
  metrics.observe("svc.queue_wait_ms", seconds_since(job.submitted) * 1e3);
  const auto finish = [&](Response resp) {
    resp.seq = req.seq;
    resp.done_at = std::chrono::steady_clock::now();
    return resp;
  };
  if (req.cancel && req.cancel->load()) {
    metrics.add("svc.requests_cancelled");
    return finish(error_reply(req, ErrorCode::kCancelled,
                              "request was cancelled while queued"));
  }
  const std::int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    const double queued_ms = seconds_since(job.submitted) * 1e3;
    if (queued_ms > static_cast<double>(deadline_ms)) {
      metrics.add("svc.requests_expired");
      return finish(error_reply(req, ErrorCode::kDeadlineExceeded,
                                "deadline of " + std::to_string(deadline_ms) +
                                    " ms expired while the request was "
                                    "queued"));
    }
  }
  // The counter always pairs inc/dec; gauge() itself is the no-op when
  // observability is off.
  metrics.gauge("svc.inflight", static_cast<double>(
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
  const auto compute_start = std::chrono::steady_clock::now();
  Response resp = execute(req);
  metrics.observe("svc.compute_ms", seconds_since(compute_start) * 1e3);
  metrics.gauge("svc.inflight", static_cast<double>(
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
  return finish(std::move(resp));
}

Response Engine::execute(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  obs::TraceSpan span(std::string(to_string(request.op)), "svc.request");
  span.set_request(request.seq);
  obs::MetricsRegistry::global().add("svc.requests_total");

  Response resp;
  resp.id = request.id;
  resp.seq = request.seq;
  try {
    // Injected allocation failure (fi): compute ops only, so protocol
    // control (ping/stats/shutdown) stays reachable under heavy fault
    // rates — an operator must be able to scrape a snapshot of a sick
    // server.
    if (request.op != RequestOp::kPing && request.op != RequestOp::kStats &&
        request.op != RequestOp::kShutdown &&
        fi::Hooks::should_fail_alloc("svc.engine")) {
      throw std::bad_alloc();
    }
    switch (request.op) {
      case RequestOp::kPing:
        resp.payload_json = "{\"pong\":true}";
        break;
      case RequestOp::kShutdown:
        resp.payload_json = "{\"stopping\":true}";
        break;
      case RequestOp::kStats: {
        std::string snap = obs::snapshot_json(obs::capture_snapshot(
            obs::MetricsRegistry::global(),
            stats_seq_.fetch_add(1, std::memory_order_relaxed) + 1));
        while (!snap.empty() && snap.back() == '\n') snap.pop_back();
        resp.payload_json = std::move(snap);
        break;
      }
      case RequestOp::kSchedule: {
        const nn::Network net = nn::workload_by_abbr(request.workload);
        const arch::AcceleratorConfig accel = accel_of(request);
        const sched::ObjectiveSpec objective = objective_of(request);
        sched::Mapper mapper(accel, objective, {},
                             sched::MapperOptions{true, 1});
        resp.payload_json = payload_schedule(
            cached_schedule_network(mapper, net, cache_), objective);
        break;
      }
      case RequestOp::kWear: {
        const nn::Network net = nn::workload_by_abbr(request.workload);
        const arch::AcceleratorConfig accel = accel_of(request);
        sched::Mapper mapper(accel, objective_of(request), {},
                             sched::MapperOptions{true, 1});
        const sched::NetworkSchedule ns =
            cached_schedule_network(mapper, net, cache_);
        const PolicyOutcome run =
            run_policy(accel, ns, request, request.policy);
        std::ostringstream os;
        os << "{\"workload\":" << obs::json_quote(net.abbr())
           << ",\"policy\":" << obs::json_quote(run.name)
           << ",\"iters\":" << request.iterations
           << ",\"stats\":" << json_stats(run.stats) << '}';
        resp.payload_json = os.str();
        break;
      }
      case RequestOp::kLifetime: {
        const nn::Network net = nn::workload_by_abbr(request.workload);
        const arch::AcceleratorConfig accel = accel_of(request);
        sched::Mapper mapper(accel, objective_of(request), {},
                             sched::MapperOptions{true, 1});
        const sched::NetworkSchedule ns =
            cached_schedule_network(mapper, net, cache_);
        std::vector<PolicyOutcome> runs;
        for (wear::PolicyKind kind :
             {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
              wear::PolicyKind::kRwlRo}) {
          runs.push_back(run_policy(accel, ns, request, kind));
        }
        std::ostringstream os;
        os << "{\"workload\":" << obs::json_quote(net.abbr())
           << ",\"iters\":" << request.iterations << ",\"runs\":[";
        for (std::size_t i = 0; i < runs.size(); ++i) {
          const double gain = rel::lifetime_improvement(
              runs.front().alphas, runs[i].alphas, rel::kJedecShape);
          os << (i == 0 ? "" : ",") << "{\"policy\":"
             << obs::json_quote(runs[i].name)
             << ",\"improvement\":" << obs::json_number(gain)
             << ",\"stats\":" << json_stats(runs[i].stats) << '}';
        }
        os << "]}";
        resp.payload_json = os.str();
        break;
      }
    }
    resp.ok = true;
  } catch (const util::precondition_error& e) {
    resp.error = {ErrorCode::kInvalidArgument, e.what()};
  } catch (const util::io_error& e) {
    resp.error = {ErrorCode::kIo, e.what()};
  } catch (const std::bad_alloc&) {
    // One request's allocation failure (real or injected) is that
    // request's problem, not the process's.
    resp.error = {ErrorCode::kResourceExhausted,
                  "allocation failed while executing the request"};
  } catch (const std::exception& e) {
    resp.error = {ErrorCode::kInternal, e.what()};
  }
  if (!resp.ok) obs::MetricsRegistry::global().add("svc.requests_failed");
  resp.wall_seconds = seconds_since(start);
  obs::MetricsRegistry::global().observe("svc.request_seconds",
                                         resp.wall_seconds);
  return resp;
}

int Engine::serve(std::istream& in, std::ostream& out,
                  const std::atomic<bool>* interrupt) {
  // Pending replies for one flush window, in input order. A parse
  // failure is answered in place (no job), so ordering never depends on
  // whether a line was valid.
  struct Pending {
    bool immediate = false;
    Response response;
    std::future<Response> future;
  };
  std::vector<Pending> window;
  window.reserve(options_.max_batch);

  const auto flush = [&] {
    for (Pending& p : window) {
      const Response& resp = p.immediate ? p.response
                                         : (p.response = p.future.get());
      out << to_json(resp) << '\n';
    }
    out.flush();
    // Reply phase: compute finished (done_at) -> reply on the wire. The
    // post-flush instant is shared by the window, so ordering cost shows
    // up in the earlier replies' samples — exactly what a client sees.
    const auto flushed = std::chrono::steady_clock::now();
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      for (const Pending& p : window) {
        if (p.response.done_at.time_since_epoch().count() == 0) continue;
        metrics.observe(
            "svc.reply_ms",
            std::chrono::duration<double>(flushed - p.response.done_at)
                    .count() *
                1e3);
      }
    }
    window.clear();
  };

  const auto interrupted = [&] {
    return interrupt != nullptr && interrupt->load(std::memory_order_relaxed);
  };
  bool stop_requested = false;
  std::string line;
  while (!stop_requested && !interrupted() && std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = parse_request(line, options_.max_request_bytes);
    if (!parsed.ok()) {
      obs::MetricsRegistry::global().add("svc.requests_rejected");
      Pending p;
      p.immediate = true;
      p.response.id = salvage_request_id(line);
      p.response.error = parsed.error();
      window.push_back(std::move(p));
    } else {
      Request req = std::move(parsed).take();
      stop_requested = req.op == RequestOp::kShutdown;
      Pending p;
      p.future = submit(std::move(req));
      window.push_back(std::move(p));
    }
    if (window.size() >= options_.max_batch) flush();
  }
  // Graceful drain (EOF, op=shutdown or a signal): every request read so
  // far is answered and flushed before the loop returns.
  flush();
  shutdown();
  if (interrupted()) {
    obs::MetricsRegistry::global().add("svc.serve_interrupted");
    obs::log_event(obs::Severity::kWarn, "svc",
                   "serve loop interrupted; accepted requests drained");
    return 4;  // cli::kExitInterrupted: drained cleanly after a signal
  }
  return 0;
}

}  // namespace rota::svc
