#include "src/serve/server.h"

#include <utility>

#include "src/core/contracts.h"

namespace rotind::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NanosToMicros(std::uint64_t nanos) { return nanos / 1000; }

void AppendU64(std::string* out, const std::string& pad, const char* key,
               std::uint64_t value, bool comma) {
  *out += pad + "\"" + key + "\": " + std::to_string(value) +
          (comma ? ",\n" : "\n");
}

}  // namespace

std::string ServerStats::ToJson(int indent) const {
  const std::string p0(indent, ' ');
  const std::string p1(indent + 2, ' ');
  const std::string p2(indent + 4, ' ');
  std::string out = p0 + "{\n";
  AppendU64(&out, p1, "submitted", submitted, true);
  AppendU64(&out, p1, "admitted", admitted, true);
  AppendU64(&out, p1, "shed", shed, true);
  AppendU64(&out, p1, "rejected_draining", rejected_draining, true);
  AppendU64(&out, p1, "completed_ok", completed_ok, true);
  AppendU64(&out, p1, "degraded", degraded, true);
  AppendU64(&out, p1, "deadline_exceeded", deadline_exceeded, true);
  AppendU64(&out, p1, "cancelled", cancelled, true);
  AppendU64(&out, p1, "failed", failed, true);
  AppendU64(&out, p1, "reloads", reloads, true);
  out += p1 + "\"e2e_latency\": {\n";
  AppendU64(&out, p2, "count", e2e_latency.count(), true);
  AppendU64(&out, p2, "p50_us",
            NanosToMicros(e2e_latency.PercentileNanos(50.0)), true);
  AppendU64(&out, p2, "p95_us",
            NanosToMicros(e2e_latency.PercentileNanos(95.0)), true);
  AppendU64(&out, p2, "p99_us",
            NanosToMicros(e2e_latency.PercentileNanos(99.0)), true);
  AppendU64(&out, p2, "max_us", NanosToMicros(e2e_latency.max_nanos()),
            false);
  out += p1 + "},\n";
  out += p1 + "\"engine\":\n";
  out += engine_metrics.ToJson(indent + 2);
  out += "\n" + p0 + "}";
  return out;
}

QueryServer::QueryServer(const QueryEngine& engine,
                         const ServerOptions& options)
    // Non-owning alias: an empty control block with a raw pointer — the
    // caller's lifetime promise is unchanged from the pre-reload API.
    : QueryServer(std::shared_ptr<const QueryEngine>(
                      std::shared_ptr<const QueryEngine>(), &engine),
                  options, 0) {}

QueryServer::QueryServer(std::shared_ptr<const QueryEngine> engine,
                         const ServerOptions& options,
                         std::uint64_t generation)
    : options_(options), engine_(std::move(engine)),
      generation_(generation) {
  ROTIND_CONTRACT(engine_ != nullptr, "QueryServer needs an engine");
  ROTIND_CONTRACT(options.num_workers >= 1, "num_workers must be >= 1");
  ROTIND_CONTRACT(options.queue_capacity >= 1,
                  "queue_capacity must be >= 1");
}

QueryServer::~QueryServer() { (void)Shutdown(); }

void QueryServer::Start() {
  MutexLock lock(mutex_);
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Status QueryServer::Submit(const Request& request, ResponseCallback done) {
  {
    MutexLock stats_lock(stats_mutex_);
    ++stats_.submitted;
  }
  Item item;
  item.request = request;
  item.done = std::move(done);
  item.admitted = Clock::now();
  const std::chrono::nanoseconds budget =
      request.deadline.count() > 0 ? request.deadline
                                   : options_.default_deadline;
  if (budget.count() > 0) {
    item.deadline = item.admitted + budget;
    item.has_deadline = true;
  }
  {
    // stats_mutex_ (kServeStats) nests inside mutex_ (kServeQueue) here —
    // the one sanctioned nesting in the serve layer.
    MutexLock lock(mutex_);
    if (draining_) {
      MutexLock stats_lock(stats_mutex_);
      ++stats_.rejected_draining;
      return Status::Cancelled("server is draining; admission stopped");
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Load shedding: fail FAST and typed, do not queue beyond capacity.
      MutexLock stats_lock(stats_mutex_);
      ++stats_.shed;
      return Status::Overloaded(
          "request queue full (" + std::to_string(options_.queue_capacity) +
          " deep); retry later");
    }
    queue_.push_back(std::move(item));
    MutexLock stats_lock(stats_mutex_);
    ++stats_.admitted;
  }
  work_cv_.NotifyOne();
  return Status::Ok();
}

void QueryServer::BeginShutdown() {
  {
    MutexLock lock(mutex_);
    draining_ = true;
  }
  work_cv_.NotifyAll();
}

bool QueryServer::Drain(std::chrono::nanoseconds deadline) {
  std::deque<Item> orphans;
  {
    MutexLock lock(mutex_);
    if (started_) {
      const auto until = Clock::now() + deadline;
      bool timed_out = false;
      while (!IdleLocked() && !timed_out) {
        timed_out = !drain_cv_.WaitUntil(mutex_, until);
      }
      if (IdleLocked()) return true;
      // Drain deadline expired: hard-cancel. Every in-flight query
      // observes the kill-switch at its next cascade stage boundary and
      // unwinds with a typed status; queued items fail their
      // admission-time token check.
      kill_switch_.store(true, std::memory_order_relaxed);
      while (!IdleLocked()) drain_cv_.Wait(mutex_);
      return false;
    }
    // No workers to drain through: complete queued items as cancelled so
    // every admitted request still gets exactly one callback. Callbacks
    // and stats run after the swap, outside the queue mutex.
    orphans.swap(queue_);
  }
  for (Item& item : orphans) {
    Response response;
    response.status =
        Status::Cancelled("server stopped before the request ran");
    response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - item.admitted);
    if (item.done) item.done(item.request, response);
    RecordOutcome(item, response, obs::QueryMetrics());
  }
  return true;
}

bool QueryServer::Shutdown() {
  BeginShutdown();
  const bool clean = Drain(options_.drain_deadline);
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  std::vector<std::thread> workers;
  {
    MutexLock lock(mutex_);
    if (joined_) return clean;
    joined_ = true;
    // Swap the pool out under the mutex that Start() mutates it under —
    // joining workers_ in place raced a concurrent Start() — then join
    // outside the lock: exiting workers take mutex_ for their final
    // drain notification.
    workers.swap(workers_);
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  return clean;
}

ServerStats QueryServer::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

std::size_t QueryServer::queue_depth() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

bool QueryServer::draining() const {
  MutexLock lock(mutex_);
  return draining_;
}

std::uint64_t QueryServer::generation() const {
  MutexLock lock(engine_mutex_);
  return generation_;
}

Status QueryServer::SwapEngine(std::shared_ptr<const QueryEngine> next,
                               std::uint64_t generation) {
  if (next == nullptr) {
    return Status::InvalidArgument("SwapEngine needs an engine");
  }
  {
    MutexLock lock(mutex_);
    if (draining_ || stopping_) {
      return Status::Cancelled("server is shutting down; reload refused");
    }
    if (reloading_) {
      return Status::Overloaded("another reload is already in progress");
    }
    {
      // engine_mutex_ (kEngineGen) nests inside mutex_ (kServeQueue).
      MutexLock engine_lock(engine_mutex_);
      if (generation <= generation_) {
        return Status::InvalidArgument(
            "reload generation " + std::to_string(generation) +
            " does not advance live generation " +
            std::to_string(generation_) + "; rollback refused");
      }
    }
    // Barrier up: workers park instead of dequeuing, then the in-flight
    // set drains. Queued requests are RETAINED — they resume against the
    // new generation once the barrier drops.
    reloading_ = true;
    while (in_flight_ > 0) drain_cv_.Wait(mutex_);
    {
      MutexLock engine_lock(engine_mutex_);
      engine_ = std::move(next);
      generation_ = generation;
    }
    reloading_ = false;
    MutexLock stats_lock(stats_mutex_);
    ++stats_.reloads;
  }
  work_cv_.NotifyAll();
  return Status::Ok();
}

void QueryServer::WorkerLoop() {
  for (;;) {
    Item item;
    std::size_t depth_at_dequeue = 0;
    {
      MutexLock lock(mutex_);
      // A raised reload barrier parks the worker even when work is
      // queued: dequeuing would re-grow the in-flight set SwapEngine is
      // waiting to drain.
      while (reloading_ || (!stopping_ && queue_.empty())) {
        work_cv_.Wait(mutex_);
      }
      if (queue_.empty()) return;  // stopping_, and nothing left to run.
      depth_at_dequeue = queue_.size();
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    // Pin the live engine snapshot for this item. The shared_ptr keeps a
    // swapped-out generation alive until its last in-flight query ends.
    std::shared_ptr<const QueryEngine> engine;
    {
      MutexLock engine_lock(engine_mutex_);
      engine = engine_;
    }
    obs::QueryMetrics metrics;
    const Response response =
        Execute(*engine, item, depth_at_dequeue, &metrics);
    if (item.done) item.done(item.request, response);
    RecordOutcome(item, response, metrics);
    {
      MutexLock lock(mutex_);
      --in_flight_;
      // The reload barrier waits on in_flight_ alone (the queue may be
      // non-empty behind it), so notify on that, not on IdleLocked().
      if (in_flight_ == 0) drain_cv_.NotifyAll();
    }
  }
}

Response QueryServer::Execute(const QueryEngine& engine, const Item& item,
                              std::size_t depth_at_dequeue,
                              obs::QueryMetrics* metrics) const {
  const Request& request = item.request;
  Response response;
  response.effective_k = request.k;

  // Graceful degradation, decided at dequeue time: sustained overload
  // shows up as standing queue depth. The honesty rule: the narrowed k is
  // reported in the response, never silently substituted.
  if (options_.degrade_under_overload && request.op == RequestOp::kKnn &&
      request.k > options_.degraded_k &&
      depth_at_dequeue >=
          static_cast<std::size_t>(options_.degrade_depth_fraction *
                                   static_cast<double>(
                                       options_.queue_capacity))) {
    response.effective_k = options_.degraded_k;
    response.degraded = true;
  }

  CancelToken token = item.has_deadline
                          ? CancelToken::WithDeadline(item.deadline)
                          : CancelToken();
  token.AttachKillSwitch(&kill_switch_);

  const auto finish = [&](Status status) {
    response.status = std::move(status);
    response.latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - item.admitted);
    // A failed query may have latched an error on the shared backend;
    // consume it so one transient fault cannot poison later queries.
    if (!response.status.ok()) engine.backend()->ClearError();
    return response;
  };

  // A request that waited out its whole deadline in the queue fails here
  // without touching the engine (and a kill-switch drain unwinds the
  // entire queue this way).
  Status pre = token.Check();
  if (!pre.ok()) return finish(std::move(pre));

  if (request.query_id >= engine.database_size()) {
    return finish(Status::OutOfRange(
        "query_id " + std::to_string(request.query_id) + " not in [0, " +
        std::to_string(engine.database_size()) + ")"));
  }
  StatusOr<storage::SeriesHandle> handle =
      engine.backend()->TryFetch(request.query_id, nullptr);
  if (!handle.ok()) return finish(handle.status());
  const Series query(handle->data(), handle->data() + handle->length());

  switch (request.op) {
    case RequestOp::kNearest: {
      StatusOr<ScanResult> result =
          engine.SearchChecked(query, &token, metrics);
      if (!result.ok()) return finish(result.status());
      if (result->best_index >= 0) {
        response.neighbors.push_back(Neighbor{result->best_index,
                                              result->best_distance,
                                              result->best_shift,
                                              result->best_mirrored});
      }
      return finish(Status::Ok());
    }
    case RequestOp::kKnn: {
      StatusOr<std::vector<Neighbor>> result = engine.KnnChecked(
          query, response.effective_k, nullptr, &token, metrics);
      if (!result.ok()) return finish(result.status());
      response.neighbors = *std::move(result);
      return finish(Status::Ok());
    }
    case RequestOp::kRange: {
      StatusOr<std::vector<Neighbor>> result = engine.RangeChecked(
          query, request.radius, nullptr, &token, metrics);
      if (!result.ok()) return finish(result.status());
      response.neighbors = *std::move(result);
      return finish(Status::Ok());
    }
  }
  return finish(Status::Internal("unhandled request op"));
}

void QueryServer::RecordOutcome(const Item& item, const Response& response,
                                const obs::QueryMetrics& metrics) {
  (void)item;
  MutexLock lock(stats_mutex_);
  stats_.engine_metrics += metrics;
  stats_.e2e_latency.Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(response.latency)
          .count()));
  switch (response.status.code()) {
    case StatusCode::kOk:
      ++stats_.completed_ok;
      if (response.degraded) ++stats_.degraded;
      break;
    case StatusCode::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      break;
    case StatusCode::kCancelled:
      ++stats_.cancelled;
      break;
    default:
      ++stats_.failed;
      break;
  }
}

}  // namespace rotind::serve
