#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "svc/cache.hpp"
#include "svc/request.hpp"
#include "util/thread_annotations.hpp"

/// \file engine.hpp
/// `rota::svc::Engine`: the embeddable asynchronous request engine behind
/// `rota serve`. Requests are submitted from any thread and answered
/// through futures. The engine runs its own lane threads; each lane pops
/// the next queued request in FIFO order as soon as it is free and runs
/// it to completion, serially, before it pulls another. So a burst of
/// requests executes concurrently, a short request never waits for a
/// long one it was not queued behind, and each result stays
/// bit-identical to the serial CLI path (requests are independent and
/// every computation is a pure function of the request — DESIGN.md
/// §9/§10).
///
/// The engine owns the process's two-tier ScheduleCache: repeated
/// workloads skip the mapper search entirely after the first request
/// (and, with a disk tier, across restarts).
///
/// Failure containment: malformed requests, unknown workloads, expired
/// deadlines and cancelled requests all produce structured error replies;
/// nothing a client sends can unwind the engine. shutdown() (and the
/// destructor) drain gracefully — every accepted request is answered.
///
/// Overload policy: with `max_queue` configured, submissions beyond the
/// queue bound are *shed* — answered immediately with a structured
/// `overloaded` error (never silently dropped) and counted in
/// `svc.requests_shed` — so a flood degrades the flood, not the process.
/// Simulated allocation failure (fi::Hooks alloc faults) surfaces the
/// same way as real std::bad_alloc: a `resource_exhausted` reply for that
/// request only.

namespace rota::svc {

struct EngineOptions {
  /// Lane threads the engine runs (rota::par convention: 0 = one lane
  /// per hardware thread; capped at 256). Each lane executes one request
  /// at a time. Results are identical for any value.
  int threads = 1;
  ScheduleCacheOptions cache;
  /// serve(): replies are flushed at least every `max_batch` requests.
  std::size_t max_batch = 64;
  /// Requests longer than this many bytes are rejected with
  /// resource_exhausted (stdin is untrusted).
  std::size_t max_request_bytes = 1 << 20;
  /// Default deadline for requests that do not carry one; 0 = none.
  std::int64_t default_deadline_ms = 0;
  /// Queue bound: submissions while `max_queue` jobs are already waiting
  /// are shed with an `overloaded` error. 0 = unbounded (trusted callers).
  std::size_t max_queue = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();  ///< shutdown(): drains the queue, then joins the lanes
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// Enqueue one request; the future resolves to its reply. After
  /// shutdown() began, resolves immediately with code unavailable.
  std::future<Response> submit(Request request) ROTA_EXCLUDES(mu_);

  /// Execute one request synchronously on the calling thread (no queue,
  /// no deadline bookkeeping). This is the single code path lanes also
  /// run, so queued and inline execution cannot diverge.
  [[nodiscard]] Response execute(const Request& request);

  /// Stop accepting work, answer everything already queued, join the
  /// lanes. Idempotent; a concurrent caller returns once the lanes are
  /// joined.
  void shutdown() ROTA_EXCLUDES(mu_, join_mu_);

  /// JSON-lines loop: read requests from `in` one per line, reply on
  /// `out` in input order (flushed at least every options().max_batch
  /// requests and at EOF). Returns the process exit code (0 — protocol
  /// errors are replies, not exits). An op=shutdown request drains and
  /// ends the loop.
  ///
  /// `interrupt` (optional) is the graceful-drain flag a signal handler
  /// sets: it is checked between lines, the loop stops reading, every
  /// already-accepted request is still answered and flushed, and serve
  /// returns 4 (the CLI's "interrupted, drained cleanly" exit code)
  /// instead of 0.
  int serve(std::istream& in, std::ostream& out,
            const std::atomic<bool>* interrupt = nullptr);

  [[nodiscard]] ScheduleCacheStats cache_stats() const {
    return cache_.stats();
  }
  [[nodiscard]] ScheduleCache& cache() { return cache_; }

  /// Requests shed by the overload policy since construction.
  [[nodiscard]] std::int64_t shed_count() const {
    return shed_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    Request request;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point submitted;
  };

  /// One lane: pop the oldest job, run it, repeat; returns once stopping_
  /// is set and the queue is empty.
  void lane_loop() ROTA_EXCLUDES(mu_);

  /// Deadline/cancellation gate + execute() + metrics, for one job.
  Response run_job(Job& job);

  EngineOptions options_;
  ScheduleCache cache_;

  util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Job> queue_ ROTA_GUARDED_BY(mu_);
  bool stopping_ ROTA_GUARDED_BY(mu_) = false;
  std::atomic<std::int64_t> shed_count_{0};
  /// Request sequence source: submit() stamps each accepted request with
  /// the next value (1-based), threading one identity through queue →
  /// lane → compute → reply for histograms, trace spans and EventLog.
  std::atomic<std::uint64_t> next_seq_{0};
  /// Requests currently executing (mirrored to the svc.inflight gauge).
  std::atomic<std::int64_t> inflight_{0};
  /// stats requests served (each in-band snapshot carries its own seq).
  std::atomic<std::uint64_t> stats_seq_{0};
  /// Serializes shutdown()'s joins, so concurrent callers never join the
  /// same thread twice. Never held together with mu_ (the lanes need mu_
  /// to drain while a caller waits here).
  util::Mutex join_mu_;
  /// Started by the constructor, joined by shutdown() after stopping_
  /// rises. Declared last: the lanes use every member above.
  std::vector<std::thread> lanes_ ROTA_GUARDED_BY(join_mu_);
};

}  // namespace rota::svc
