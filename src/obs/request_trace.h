#ifndef BULLFROG_OBS_REQUEST_TRACE_H_
#define BULLFROG_OBS_REQUEST_TRACE_H_

// Request-scoped tracing with latency attribution.
//
// A TraceContext is allocated at a request root (server frame, shell
// statement, sharded-session statement, or bench transaction) and made
// visible to everything the request touches through a thread-local
// pointer — no signature changes on the hot paths. Deep layers (lock
// manager, WAL committer, lazy migrator) consult CurrentTrace(); when no
// trace is bound they pay one thread-local load and a branch.
//
// Two kinds of data are recorded:
//   - Stage accumulators: fixed per-stage atomic {nanos, count} pairs
//     (Stage enum below). Atomics because a sharded fan-out accumulates
//     from several executor threads into one front-end trace.
//   - Spans: named wall-time intervals with a depth, forming a tree that
//     Render() prints indented and sorted by start time. Span recording
//     takes a mutex; it happens a handful of times per statement, never
//     per row.
//
// Propagation rules:
//   - Same thread: ScopedSpan / stage helpers read the thread-local.
//   - Cross thread (shard fan-out): the dispatching thread captures
//     CurrentTrace() + CurrentTraceDepth() and the closure installs a
//     TraceBinding on the executor thread.
//   - Cross process (wire): the 64-bit id travels in a traced frame
//     (protocol.h kTracedFlag); each side keeps its own span store.
//
// Overhead budget: with sampling off the cost is one thread-local load
// per instrumented site; with a trace bound, a span is two clock reads
// plus one small mutex-protected append. fig09 pins the end-to-end
// overhead at <= 3% with BF_TRACE_SAMPLE=1 (see EXPERIMENTS.md).

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bullfrog::obs {

/// Named stages a statement's wall time is attributed to. Keep in sync
/// with StageName().
enum class Stage : int {
  kParse = 0,     ///< SQL text -> statement.
  kExecute,       ///< Whole engine execution (parent of the rest).
  kLockWait,      ///< Blocked in LockManager::Acquire.
  kMigratePull,   ///< Lazy-migration granule pulls done by this request.
  kMigrateWait,   ///< Waiting out units claimed by another migrator
                  ///< (background-migrator interference).
  kWalSync,       ///< Group-commit WAL sync wait at commit.
  kShardSend,     ///< Cross-shard fan-out: posting per-shard tasks.
  kShardWait,     ///< Cross-shard fan-out: waiting for all shards.
  kShardMerge,    ///< Cross-shard fan-out: merging per-shard results.
  kNumStages,
};

const char* StageName(Stage s);

/// One request's trace: id, stage accumulators, span tree.
/// Thread-safe; a sharded fan-out writes into one trace from several
/// executor threads.
class TraceContext {
 public:
  struct Span {
    std::string name;
    std::string detail;   // e.g. "table=orders units=42"; may be empty.
    int64_t start_ns = 0;  // Offset from the trace's start.
    int64_t dur_ns = 0;
    int depth = 1;  // 1 = direct child of the (implicit) root.
  };

  explicit TraceContext(uint64_t id, std::string sql = "");

  uint64_t id() const { return id_; }
  const std::string& sql() const { return sql_; }
  /// Only safe before the trace is shared across threads (the root sets
  /// the statement text right after allocation).
  void set_sql(std::string sql) { sql_ = std::move(sql); }
  int64_t start_ns() const { return start_ns_; }

  /// Stage accumulation. `ns` and `count` are independent so a deep
  /// layer can count an event (migrator counts pulled units) while the
  /// layer that owns the clock adds the time.
  void AddStage(Stage s, int64_t ns, uint64_t count = 1);
  int64_t StageNanos(Stage s) const;
  uint64_t StageCount(Stage s) const;

  /// Records a closed span. `start_abs_ns` is a Clock::NowNanos() value;
  /// depth <= 0 means "one below the current thread-local depth".
  void RecordSpan(const char* name, int64_t start_abs_ns, int64_t dur_ns,
                  std::string detail = "", int depth = 0);

  /// Stamps the end-to-end duration. Idempotent.
  void Finish();
  /// Finish with `end_abs_ns` (a Clock::NowNanos() value) as the end.
  void FinishAt(int64_t end_abs_ns);
  bool finished() const { return total_ns_.load(std::memory_order_acquire) >= 0; }
  int64_t total_ns() const;

  /// Sum of the durations of depth-1 spans — the "accounted" portion of
  /// total_ns() that the span tree explains.
  int64_t AccountedNanos() const;

  /// Human-readable span tree. The first line is machine-parseable:
  /// `trace id=0x... total_ns=N accounted_ns=M sql="..."`, then a
  /// `stages:` attribution line, then the indented span tree.
  std::string Render() const;

 private:
  const uint64_t id_;
  std::string sql_;
  const int64_t start_ns_;  // Clock::NowNanos() at construction.
  std::atomic<int64_t> total_ns_{-1};
  std::atomic<int64_t> stage_ns_[static_cast<int>(Stage::kNumStages)] = {};
  std::atomic<uint64_t> stage_count_[static_cast<int>(Stage::kNumStages)] = {};
  mutable std::mutex mu_;  // Guards spans_.
  std::vector<Span> spans_;
};

/// The trace (if any) bound to the calling thread, else nullptr.
TraceContext* CurrentTrace();
/// Current span nesting depth on this thread (0 at the root).
int CurrentTraceDepth();

/// Adds stage time/count to the thread's current trace; no-op without
/// one. The cheap entry point for deep layers (lock waits, WAL sync).
void TraceAddStage(Stage s, int64_t ns, uint64_t count = 1);

/// RAII: binds `trace` to the calling thread for the scope's lifetime,
/// restoring the previous binding on exit. `base_depth` seeds the span
/// depth — a fan-out closure passes the dispatcher's depth + 1 so shard
/// spans nest under the fan-out span.
class TraceBinding {
 public:
  explicit TraceBinding(TraceContext* trace, int base_depth = 0);
  ~TraceBinding();
  TraceBinding(const TraceBinding&) = delete;
  TraceBinding& operator=(const TraceBinding&) = delete;

 private:
  TraceContext* saved_trace_;
  int saved_depth_;
};

/// RAII span: no-op when the thread has no current trace. Also
/// accumulates its duration into `stage` unless stage == kNumStages.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Stage stage = Stage::kNumStages);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return trace_ != nullptr; }
  /// Replaces the span's detail string (shown in the rendered tree).
  void SetDetail(std::string detail) { detail_ = std::move(detail); }

 private:
  TraceContext* trace_;
  const char* name_;
  Stage stage_;
  std::string detail_;
  int depth_ = 0;
  int64_t start_abs_ = 0;
};

/// 1-in-N request sampler (BF_TRACE_SAMPLE). every() == 0 disables
/// sampling entirely; 1 traces every request.
class TraceSampler {
 public:
  /// Reads BF_TRACE_SAMPLE (default 0 = off).
  TraceSampler();
  explicit TraceSampler(int64_t every) : every_(every) {}

  void set_every(int64_t every) {
    every_.store(every, std::memory_order_relaxed);
  }
  int64_t every() const { return every_.load(std::memory_order_relaxed); }

  /// True when the next request should be traced.
  bool Sample();

  /// Process-unique 64-bit trace id (never 0).
  static uint64_t NextTraceId();

 private:
  std::atomic<int64_t> every_{0};
  std::atomic<uint64_t> n_{0};
};

/// Bounded store of finished traces: a ring of the most recent ones
/// (ADMIN profile) plus the K slowest by end-to-end latency
/// (ADMIN slowlog; K from BF_SLOWLOG_K, default 16).
class ProfileStore {
 public:
  /// Reads BF_SLOWLOG_K for the slowlog bound.
  ProfileStore();
  ProfileStore(size_t recent_capacity, size_t slow_k);

  void Record(std::shared_ptr<const TraceContext> trace);

  /// `id` == 0 renders the most recent trace; otherwise the trace with
  /// that id (searching recents then the slowlog).
  std::string RenderProfile(uint64_t id = 0) const;

  /// The K slowest statements, slowest first: one summary line each
  /// (total, trace id, stage attribution, truncated SQL).
  std::string RenderSlowlog() const;

  size_t recent_size() const;

  /// Running totals over every trace ever Record()ed (not bounded by the
  /// rings) — the benches' `--attribution` output aggregates these.
  uint64_t aggregate_requests() const {
    return agg_requests_.load(std::memory_order_relaxed);
  }
  int64_t aggregate_total_ns() const {
    return agg_total_ns_.load(std::memory_order_relaxed);
  }
  int64_t AggregateStageNanos(Stage s) const;
  uint64_t AggregateStageCount(Stage s) const;

  /// One line per non-empty stage:
  ///   `attribution stage=<name> total_ms=<N> count=<C> frac=<of total>`
  /// preceded by an `attribution requests=<N> total_ms=<N>` header.
  /// `prefix` is prepended to every line (series labeling).
  std::string RenderAttribution(const std::string& prefix = "") const;

 private:
  const size_t recent_capacity_;
  const size_t slow_k_;
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const TraceContext>> recent_;
  std::vector<std::shared_ptr<const TraceContext>> slow_;  // Sorted desc.
  // Aggregates live outside mu_: relaxed atomics, monotone counters.
  std::atomic<uint64_t> agg_requests_{0};
  std::atomic<int64_t> agg_total_ns_{0};
  std::atomic<int64_t> agg_stage_ns_[static_cast<int>(Stage::kNumStages)] = {};
  std::atomic<uint64_t> agg_stage_count_[static_cast<int>(
      Stage::kNumStages)] = {};
};

}  // namespace bullfrog::obs

#endif  // BULLFROG_OBS_REQUEST_TRACE_H_
