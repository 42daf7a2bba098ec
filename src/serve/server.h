#ifndef ROTIND_SERVE_SERVER_H_
#define ROTIND_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cancel.h"
#include "src/core/status.h"
#include "src/core/sync.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/serve/protocol.h"

namespace rotind::serve {

/// Server configuration: the robustness knobs of ISSUE 6.
struct ServerOptions {
  /// Worker threads draining the request queue.
  int num_workers = 4;
  /// Bounded queue depth; a Submit beyond it is shed with kOverloaded.
  std::size_t queue_capacity = 64;
  /// Deadline applied to requests that carry none (zero = no deadline).
  std::chrono::nanoseconds default_deadline{0};
  /// How long Shutdown lets in-flight + queued work finish before the
  /// kill-switch hard-cancels the remainder.
  std::chrono::nanoseconds drain_deadline{std::chrono::seconds(5)};
  /// Graceful degradation under sustained overload: when a k-NN request
  /// is dequeued while queue depth >= degrade_depth_fraction * capacity,
  /// its k is narrowed to degraded_k. The response carries degraded=1 and
  /// the effective k — the answer is exact FOR THAT k and is never
  /// presented as the full answer (the honesty rule).
  bool degrade_under_overload = true;
  double degrade_depth_fraction = 0.75;
  int degraded_k = 1;
};

/// Cumulative server accounting. Every admitted request ends in exactly
/// one terminal counter (ok / deadline_exceeded / cancelled / failed);
/// shed requests never enter the queue.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;               ///< kOverloaded fast-rejects.
  std::uint64_t rejected_draining = 0;  ///< Submits after BeginShutdown.
  std::uint64_t completed_ok = 0;
  std::uint64_t degraded = 0;           ///< OK responses with narrowed k.
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;             ///< I/O or validation failures.
  std::uint64_t reloads = 0;            ///< Completed engine swaps.
  /// Merged per-stage engine metrics (cascade attribution, storage I/O
  /// with retry counters, engine-side latency).
  obs::QueryMetrics engine_metrics;
  /// End-to-end latency: admission to completion, queue wait included.
  obs::LatencyHistogram e2e_latency;

  /// {"submitted": ..., "e2e_latency_p99_us": ..., "engine": {...}}
  [[nodiscard]] std::string ToJson(int indent = 0) const;
};

/// A long-running concurrent query server over one QueryEngine.
///
/// Lifecycle: construct -> (optionally Submit while stopped, for
/// deterministic tests) -> Start() -> Submit()/callbacks -> Shutdown().
/// Submit is thread-safe and non-blocking: it either enqueues (bounded
/// queue) or fast-rejects with kOverloaded / kCancelled. Worker threads
/// dequeue, run the query through the engine's Checked entry points with
/// a per-query CancelToken (deadline measured from ADMISSION, so queue
/// wait counts), and invoke the completion callback from the worker.
///
/// Shutdown(): stops admission, drains under drain_deadline, then flips
/// the shared kill-switch so stragglers abort at their next cascade
/// stage boundary with a typed status. Returns true for a clean drain.
/// The engine must outlive the server.
///
/// Online reload (ISSUE 10): the engine is held as a generation-stamped
/// shared_ptr swapped by SwapEngine. A swap is a barrier, not a restart:
/// admission stays open (requests queue behind the reload), workers stop
/// dequeuing, in-flight queries drain, the pointer flips atomically
/// under engine_mutex_, and the queue resumes against the new
/// generation. Queued requests are therefore answered by whichever
/// generation is live when they are DEQUEUED — never by a mix.
class QueryServer {
 public:
  /// Completion callback; runs on a worker thread. Must not call back
  /// into the server (Submit from a callback would deadlock on drain).
  using ResponseCallback =
      std::function<void(const Request&, const Response&)>;

  /// Legacy non-owning binding: the caller keeps the engine alive for
  /// the server's lifetime. SwapEngine still works (the swapped-in
  /// engine is owned; the original is simply released unobserved).
  QueryServer(const QueryEngine& engine, const ServerOptions& options);
  /// Owning binding for reloadable deployments; `generation` stamps the
  /// initial snapshot (a later SwapEngine must advance past it).
  QueryServer(std::shared_ptr<const QueryEngine> engine,
              const ServerOptions& options, std::uint64_t generation = 0);
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Launches the worker pool. Idempotent.
  void Start() ROTIND_EXCLUDES(mutex_);

  /// Admission control. OK: enqueued, `done` will run exactly once.
  /// kOverloaded: queue full, request shed, `done` never runs.
  /// kCancelled: server is draining, `done` never runs.
  [[nodiscard]] Status Submit(const Request& request, ResponseCallback done)
      ROTIND_EXCLUDES(mutex_, stats_mutex_);

  /// Stops admission; queued and in-flight work continues.
  void BeginShutdown() ROTIND_EXCLUDES(mutex_);

  /// Waits for the queue and in-flight set to empty. If `deadline`
  /// passes first, sets the kill-switch (in-flight queries return
  /// kCancelled at their next stage boundary) and waits for the fast
  /// unwind. Returns true iff the drain completed without the
  /// kill-switch.
  bool Drain(std::chrono::nanoseconds deadline)
      ROTIND_EXCLUDES(mutex_, stats_mutex_);

  /// BeginShutdown + Drain(options.drain_deadline) + worker join.
  /// Returns Drain's verdict. Idempotent.
  bool Shutdown() ROTIND_EXCLUDES(mutex_, stats_mutex_);

  /// Atomic engine swap: rejects generation rollbacks (kInvalidArgument)
  /// and swaps during shutdown (kCancelled); a concurrent swap returns
  /// kOverloaded. Otherwise pauses dequeuing, waits for in-flight work
  /// to drain (queued requests are retained), flips the engine pointer
  /// + generation, and wakes the workers. Blocks the caller for at most
  /// the tail latency of the in-flight set. `next` must be non-null,
  /// like the constructor argument.
  [[nodiscard]] Status SwapEngine(std::shared_ptr<const QueryEngine> next,
                                  std::uint64_t generation)
      ROTIND_EXCLUDES(mutex_, stats_mutex_, engine_mutex_);

  /// Generation stamp of the live engine.
  [[nodiscard]] std::uint64_t generation() const
      ROTIND_EXCLUDES(engine_mutex_);

  [[nodiscard]] ServerStats stats() const ROTIND_EXCLUDES(stats_mutex_);
  [[nodiscard]] std::size_t queue_depth() const ROTIND_EXCLUDES(mutex_);
  [[nodiscard]] bool draining() const ROTIND_EXCLUDES(mutex_);

 private:
  struct Item {
    Request request;
    ResponseCallback done;
    std::chrono::steady_clock::time_point admitted;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
  };

  void WorkerLoop() ROTIND_EXCLUDES(mutex_, stats_mutex_, engine_mutex_);
  /// Runs one admitted request through `engine` and fills the response.
  /// The worker pins the engine snapshot it dequeued under, so a swap
  /// completing mid-query cannot pull the engine out from under it.
  /// `depth_at_dequeue` drives the degradation decision; per-query
  /// engine metrics land in `*metrics` for the stats merge.
  Response Execute(const QueryEngine& engine, const Item& item,
                   std::size_t depth_at_dequeue,
                   obs::QueryMetrics* metrics) const;
  void RecordOutcome(const Item& item, const Response& response,
                     const obs::QueryMetrics& metrics)
      ROTIND_EXCLUDES(stats_mutex_);
  /// The drain condition: nothing queued, nothing running.
  [[nodiscard]] bool IdleLocked() const ROTIND_REQUIRES(mutex_) {
    return queue_.empty() && in_flight_ == 0;
  }

  const ServerOptions options_;

  /// kEngineGen nests inside kServeQueue (SwapEngine holds mutex_ across
  /// the drain barrier and flips the pointer under both) and inside
  /// nothing else: workers copy the shared_ptr with only engine_mutex_
  /// held, then run the query lock-free.
  mutable Mutex engine_mutex_{LockRank::kEngineGen};
  std::shared_ptr<const QueryEngine> engine_ ROTIND_GUARDED_BY(engine_mutex_);
  std::uint64_t generation_ ROTIND_GUARDED_BY(engine_mutex_) = 0;

  /// kServeQueue is the top of the lock-order hierarchy: Submit holds it
  /// while taking stats_mutex_, and workers reach storage-layer mutexes
  /// only after releasing it.
  mutable Mutex mutex_{LockRank::kServeQueue};
  CondVar work_cv_;   ///< Queue became non-empty / stop / reload done.
  CondVar drain_cv_;  ///< In-flight hit zero (drain + reload barrier).
  std::deque<Item> queue_ ROTIND_GUARDED_BY(mutex_);
  std::size_t in_flight_ ROTIND_GUARDED_BY(mutex_) = 0;
  /// Admission stopped.
  bool draining_ ROTIND_GUARDED_BY(mutex_) = false;
  /// A SwapEngine barrier is up: workers park instead of dequeuing.
  bool reloading_ ROTIND_GUARDED_BY(mutex_) = false;
  /// Workers exit once the queue is empty.
  bool stopping_ ROTIND_GUARDED_BY(mutex_) = false;
  bool started_ ROTIND_GUARDED_BY(mutex_) = false;
  bool joined_ ROTIND_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_ ROTIND_GUARDED_BY(mutex_);

  /// Shared hard-cancel flag, attached to every in-flight CancelToken.
  /// SYNC-EXEMPT: lock-free by design — workers poll it at cascade stage
  /// boundaries without taking mutex_; relaxed flag, no ordering needed.
  std::atomic<bool> kill_switch_{false};

  /// kServeStats nests INSIDE mutex_ (Submit's admission accounting), so
  /// it ranks strictly below kServeQueue.
  mutable Mutex stats_mutex_{LockRank::kServeStats};
  ServerStats stats_ ROTIND_GUARDED_BY(stats_mutex_);
};

}  // namespace rotind::serve

#endif  // ROTIND_SERVE_SERVER_H_
