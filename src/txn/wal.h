#ifndef BULLFROG_TXN_WAL_H_
#define BULLFROG_TXN_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/tuple.h"

namespace bullfrog {

/// Logical redo-log record kinds.
enum class LogOp : uint8_t {
  kInsert,
  kUpdate,
  kDelete,
  /// Marks a migration unit (bitmap granule or hashmap group) as migrated
  /// by a committed migration transaction. §3.5: "while the REDO log is
  /// scanned during recovery, for each tuple (or group) found in a
  /// committed migration transaction, the corresponding status is set to
  /// [0 1] / migrated". The original prototype left this unimplemented;
  /// this reproduction implements it (see txn/recovery.h).
  kMigrationMark,
  kCommit,
  /// A replicated DDL event (CREATE TABLE / CREATE INDEX / migration
  /// submit / migration completion). `table` carries the DDL kind string
  /// ("create_table", "create_index", "migrate", "migrate_complete") and
  /// the single Str value in `after` carries a kind-specific blob (see
  /// catalog/schema_codec.h and migration/replication_log.h). Single-node
  /// recovery (txn/recovery.cc) ignores these; the replication applier
  /// (src/replication/applier.cc) replays them against the catalog.
  kDdl,
};

/// One redo record. `after` carries the post-image for inserts/updates;
/// migration marks carry the tracker id and the unit key.
struct LogRecord {
  uint64_t txn_id = 0;
  LogOp op = LogOp::kCommit;
  std::string table;    // DML target, or tracker id for kMigrationMark.
  RowId rid = kInvalidRowId;
  Tuple after;          // Post-image / migration unit key.
};

/// Builds a kDdl record. `kind` names the DDL event ("create_table",
/// "create_index", "migrate", "migrate_complete"); `blob` is an opaque
/// kind-specific payload, shipped as a single Str value. DDL records are
/// appended via AppendCommitted(0, ...): txn id 0 never collides with real
/// transactions (TxnManager ids start at 1) and the implicit kCommit
/// terminator makes each DDL batch self-contained for replay.
inline LogRecord MakeDdlRecord(std::string kind, std::string blob) {
  LogRecord r;
  r.op = LogOp::kDdl;
  r.table = std::move(kind);
  r.after.push_back(Value::Str(std::move(blob)));
  return r;
}

/// Receipt for one committed append, filled by AppendCommitted on
/// success. `lsn` is the end LSN just past this commit's records —
/// commits become durable and visible in strictly increasing LSN order.
/// `ack_seq` is the order in which the ack was released; sorting a set
/// of tickets by ack_seq must yield nondecreasing lsn, which the
/// LSN-ordered-ack test asserts under 16 concurrent committers.
struct CommitTicket {
  uint64_t lsn = 0;
  uint64_t ack_seq = 0;
};

/// The redo log: a bounded in-memory buffer of committed records
/// addressed by absolute LSN, plus an optional durability sink (e.g. a
/// LogFileWriter) with a group-commit writer in front of it.
///
/// LSNs. Every record has an absolute LSN: its position in the log as if
/// nothing had ever been dropped. The log holds only [base_lsn, end_lsn);
/// size() is end_lsn, so an offset read from size() stays valid across
/// trims, restarts (WalDir) and checkpoint loads (StartAt).
///
/// Retention. A record is kept only while something can still read it:
///  - a RetentionPin (RAII) keeps [pin.lsn(), end) while it lives;
///  - a lease keeps [lsn, end) for a period after its last refresh, on
///    behalf of a holder that is not an object in this process — a
///    replica's REPLICATE cursor, or a recovered base a replica may
///    resume from after a primary restart.
/// The base is the lowest live pin or lease; with neither, each
/// committed batch is dropped outside the log mutex as soon as the sink
/// has taken it, so an embedded Database with no sink and no replica
/// keeps no records at all. Lapsed leases are noticed whenever the log
/// trims (each publish, and each pin or lease change). ReadFrom below
/// the base returns kTrimmed: those records exist only in the sink.
///
/// Migration marks. Tracker recovery (§3.5, txn/recovery.h) needs the
/// committed kMigrationMark records and nothing else, so the log keeps
/// them on the side, per tracker id, independent of retention. Marks of
/// AppendRaw'd records (WAL replay, replica apply) are buffered per
/// transaction until its commit record arrives. The controller drops a
/// tracker's marks when it prunes the finished migration (DropMarks).
///
/// Commit path (sink attached, group commit enabled — the default):
/// committing transactions enqueue their records and block on a
/// per-commit latch; a dedicated writer thread drains the queue, hands
/// the whole batch to the sink in one call (one fwrite + one fdatasync in
/// LogFileWriter), publishes the records to the in-memory log, and
/// releases the acks strictly in LSN order. The sink's Status is
/// propagated to every waiter in the batch: a failed write/sync aborts
/// those commits instead of acking them, and the failed records are never
/// published (not visible to ReadFrom, never shipped to replicas).
///
/// Reader isolation: the sink is invoked WITHOUT holding the log mutex,
/// so ReadFrom / size readers (replication tails, ADMIN offset) never
/// wait on an fsync. Records become visible only after they are durable
/// — the in-memory log is always a prefix of the durable log, never
/// ahead of it.
///
/// Knobs (read once per RedoLog when the first sink is attached):
///   BF_GROUP_COMMIT=0          disable the writer thread; every commit
///                              runs the sink synchronously (status still
///                              propagated — the pre-group-commit bug of
///                              acking a failed fsync stays fixed)
///   BF_GROUP_COMMIT_MAX_BATCH  max commits drained per sink call
///                              (default 128)
///   BF_GROUP_COMMIT_MAX_WAIT_US extra time the writer waits for more
///                              commits to accumulate once the queue is
///                              non-empty (default 500; 0 disables the
///                              window — batches then form only while the
///                              previous fsync is in flight)
class RedoLog {
 public:
  /// Keeps every record at or above lsn() while it lives. Movable, not
  /// copyable; Advance moves it forward, releasing the records it passes.
  class RetentionPin {
   public:
    RetentionPin() = default;
    RetentionPin(RetentionPin&& other) noexcept;
    RetentionPin& operator=(RetentionPin&& other) noexcept;
    RetentionPin(const RetentionPin&) = delete;
    RetentionPin& operator=(const RetentionPin&) = delete;
    ~RetentionPin() { Release(); }

    uint64_t lsn() const { return lsn_; }
    /// Moves the pin to `lsn` (ignored unless it is ahead of lsn()).
    void Advance(uint64_t lsn);
    /// Drops the pin now; a no-op on an empty or released pin.
    void Release();

   private:
    friend class RedoLog;
    RetentionPin(RedoLog* log, uint64_t lsn) : log_(log), lsn_(lsn) {}
    RedoLog* log_ = nullptr;
    uint64_t lsn_ = 0;
  };

  RedoLog() = default;
  ~RedoLog();
  RedoLog(const RedoLog&) = delete;
  RedoLog& operator=(const RedoLog&) = delete;

  /// Atomically appends all records of a committing transaction plus its
  /// commit record, making them durable through the sink first (see class
  /// comment). Returns the sink's Status: on error the records were NOT
  /// appended anywhere and the caller must treat the commit as failed.
  /// Empty `records` (a read-only transaction) are skipped entirely — no
  /// commit record, no fsync. `ticket`, when non-null, receives the
  /// commit's LSN and ack sequence on success.
  Status AppendCommitted(uint64_t txn_id, std::vector<LogRecord> records,
                         CommitTicket* ticket = nullptr);

  /// Attaches a durability sink invoked with each committed batch.
  /// Pass nullptr to detach. Attach sinks before commit traffic flows;
  /// call BindMetrics (if at all) before the first attach.
  using Sink = std::function<Status(const std::vector<LogRecord>&)>;
  void SetSink(Sink sink);

  /// Atomically replaces the sink and returns the end LSN at the swap
  /// point. WAL segment rotation needs the two together: every record
  /// before the returned LSN went to the old sink, every one after goes
  /// to the new sink, so the new segment's base LSN is exact. (Commits
  /// queued but not yet durable at the swap point are published after
  /// it, through the new sink — the invariant holds.)
  uint64_t SwapSink(Sink sink);

  /// Appends already-committed records (WAL replay, replica apply) at
  /// the end LSN. Their migration marks count once their transaction's
  /// commit record has been appended.
  void AppendRaw(std::vector<LogRecord> records);

  /// Moves an empty log to start at `lsn` (base = end = lsn): a database
  /// restored from a checkpoint continues the LSN space the checkpoint
  /// covers. InvalidArgument once anything was appended.
  Status StartAt(uint64_t lsn);

  /// Copies up to `limit` records starting at LSN `from` into *out
  /// (cleared first) and returns the end LSN. Used by the replication
  /// stream to tail committed records; only durable records are ever
  /// visible here. kTrimmed when `from` is below the base: the records
  /// were dropped once nothing pinned them.
  Result<uint64_t> ReadFrom(uint64_t from, size_t limit,
                            std::vector<LogRecord>* out) const;

  /// Blocks until the end LSN exceeds `from` or `timeout_ms` elapses;
  /// returns the end LSN. Replication tails wait here instead of
  /// sleep-polling, so a committed batch wakes them immediately.
  uint64_t WaitForSize(uint64_t from, int64_t timeout_ms) const;

  /// Pins [max(lsn, base), end): see RetentionPin.
  RetentionPin Pin(uint64_t lsn);

  /// Keeps [max(lsn, base), end) for `period_ms` from now on behalf of
  /// `holder` (from NewLeaseHolder). A holder has at most one lease; a
  /// refresh replaces its LSN and restarts its period.
  void Lease(uint64_t holder, uint64_t lsn, int64_t period_ms);
  uint64_t NewLeaseHolder() {
    return next_lease_holder_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The committed migration marks of `tracker_id`, in commit order.
  std::vector<Tuple> MarksFor(const std::string& tracker_id) const;
  /// Forgets `tracker_id`'s marks (its migration finished and was pruned).
  void DropMarks(const std::string& tracker_id);

  /// Exports group-commit health and retention onto `registry`:
  ///   bullfrog_wal_group_commit_batch_size  commits per sink call
  ///   bullfrog_wal_sync_seconds             sink (write+fsync) latency
  ///   bullfrog_wal_acks_released_total      commit acks released
  ///   bullfrog_wal_retained_records         records held in memory
  ///   bullfrog_wal_base_lsn / _end_lsn      the retained LSN range
  ///   bullfrog_wal_pins                     live pins + unexpired leases
  /// Call before the first sink attach (handles are read by the writer
  /// thread without synchronization afterwards).
  void BindMetrics(obs::MetricsRegistry* registry);

  uint64_t base_lsn() const {
    std::lock_guard lock(mu_);
    return base_;
  }
  uint64_t end_lsn() const {
    std::lock_guard lock(mu_);
    return end_;
  }
  /// The end LSN (records ever appended, counting trimmed ones).
  uint64_t size() const { return end_lsn(); }

 private:
  /// One queued commit awaiting durability + ack. `done` doubles as the
  /// publication flag: the writer fills result/ticket, then flips it with
  /// release semantics and notifies exactly this committer — a targeted
  /// futex wake instead of a shared-CV thundering herd. int, not bool:
  /// a 4-byte atomic takes libstdc++'s direct per-address futex path
  /// instead of the shared proxy waiter pool.
  struct Pending {
    std::vector<LogRecord> records;  // Stamped, commit record included.
    Status result;
    CommitTicket ticket;
    std::atomic<int> done{0};
  };

  struct LeaseEntry {
    uint64_t lsn;
    int64_t expires_ms;
  };

  /// Appends `*records` at the end LSN under mu_ (already locked by
  /// caller), collecting committed marks and trimming below the
  /// retention floor. Whatever is no longer retained is left in
  /// *records or moved to *dropped, for the caller to free after
  /// unlocking.
  void PublishLocked(std::vector<LogRecord>* records,
                     std::vector<LogRecord>* dropped);
  /// Moves retained records below the retention floor into *dropped.
  void TrimLocked(std::vector<LogRecord>* dropped);
  /// The lowest live pin or unexpired lease (lapsed leases are erased);
  /// UINT64_MAX when nothing retains.
  uint64_t RetentionFloorLocked();
  void UpdateGaugesLocked();
  /// Trims after a pin or lease change, freeing outside mu_.
  void Retrim();
  void Unpin(uint64_t lsn);
  /// Runs the sink (if any) for `records` under sink_mu_ (already locked
  /// by caller), observing sync latency. OK when no sink is attached.
  Status RunSinkLocked(const std::vector<LogRecord>& records);
  /// The group-commit writer thread: drain queue -> sink -> publish ->
  /// release acks in LSN order.
  void WriterLoop();
  void ProcessBatch(const std::vector<Pending*>& batch);
  /// Synchronous append (no writer thread): sink, publish, ack. Used when
  /// group commit is disabled and as the shutdown-race fallback.
  Status SyncAppend(std::vector<LogRecord> records, CommitTicket* ticket);
  /// Starts the writer thread if configured and not yet running.
  void ResolveKnobsAndStartWriter();

  // Lock order (when nested): sink_mu_ -> mu_. queue_mu_ and ack_mu_ are
  // leaves, never held across a sink call or while taking the others.
  mutable std::mutex mu_;  // Everything below up to sink_mu_.
  mutable std::condition_variable grow_cv_;
  std::deque<LogRecord> records_;  // [base_, end_).
  uint64_t base_ = 0;
  uint64_t end_ = 0;
  std::multiset<uint64_t> pins_;
  std::unordered_map<uint64_t, LeaseEntry> leases_;  // By holder.
  /// Committed kMigrationMark unit keys by tracker id.
  std::unordered_map<std::string, std::vector<Tuple>> marks_;
  /// Marks of transactions whose commit record has not been seen yet.
  std::unordered_map<uint64_t, std::vector<std::pair<std::string, Tuple>>>
      pending_marks_;
  std::atomic<uint64_t> next_lease_holder_{1};

  std::mutex sink_mu_;  // sink_ identity + serialization of sink calls.
  Sink sink_;
  bool knobs_resolved_ = false;
  bool group_commit_ = true;
  size_t max_batch_ = 128;
  int64_t max_wait_us_ = 0;

  std::mutex queue_mu_;  // queue_ + writer lifecycle.
  std::condition_variable queue_cv_;
  std::deque<Pending*> queue_;
  bool stop_ = false;
  std::thread writer_;

  std::mutex ack_mu_;  // Ack counter only; Pending fields are handed off
  uint64_t acks_released_ = 0;  // via Pending::done release/acquire.

  // Nullable metric handles; bound before the writer thread exists (the
  // gauges under mu_).
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Histogram* sync_latency_hist_ = nullptr;
  obs::Counter* acks_counter_ = nullptr;
  obs::Gauge* retained_gauge_ = nullptr;
  obs::Gauge* base_gauge_ = nullptr;
  obs::Gauge* end_gauge_ = nullptr;
  obs::Gauge* pins_gauge_ = nullptr;
};

}  // namespace bullfrog

#endif  // BULLFROG_TXN_WAL_H_
