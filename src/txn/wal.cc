#include "txn/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/clock.h"
#include "common/env.h"
#include "obs/request_trace.h"

namespace bullfrog {

namespace {

/// Annotates a sink failure so the committing session's error names the
/// durability layer, not just the underlying fwrite/fsync errno text.
Status AnnotateSinkFailure(const Status& st) {
  return Status(st.code(), "durable WAL append failed: " + st.message());
}

/// Accumulation-window tick: how long the writer waits for one more
/// arrival before concluding the stream went dry.
constexpr int64_t kGrowTickUs = 150;

}  // namespace

RedoLog::~RedoLog() {
  {
    std::lock_guard lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

RedoLog::RetentionPin::RetentionPin(RetentionPin&& other) noexcept
    : log_(other.log_), lsn_(other.lsn_) {
  other.log_ = nullptr;
}

RedoLog::RetentionPin& RedoLog::RetentionPin::operator=(
    RetentionPin&& other) noexcept {
  if (this != &other) {
    Release();
    log_ = other.log_;
    lsn_ = other.lsn_;
    other.log_ = nullptr;
  }
  return *this;
}

void RedoLog::RetentionPin::Advance(uint64_t lsn) {
  if (log_ == nullptr || lsn <= lsn_) return;
  {
    std::lock_guard lock(log_->mu_);
    log_->pins_.erase(log_->pins_.find(lsn_));
    log_->pins_.insert(lsn);
  }
  lsn_ = lsn;
  log_->Retrim();
}

void RedoLog::RetentionPin::Release() {
  if (log_ == nullptr) return;
  RedoLog* log = log_;
  log_ = nullptr;
  log->Unpin(lsn_);
}

RedoLog::RetentionPin RedoLog::Pin(uint64_t lsn) {
  std::lock_guard lock(mu_);
  lsn = std::max(lsn, base_);
  pins_.insert(lsn);
  UpdateGaugesLocked();
  return RetentionPin(this, lsn);
}

void RedoLog::Unpin(uint64_t lsn) {
  {
    std::lock_guard lock(mu_);
    pins_.erase(pins_.find(lsn));
  }
  Retrim();
}

void RedoLog::Lease(uint64_t holder, uint64_t lsn, int64_t period_ms) {
  {
    std::lock_guard lock(mu_);
    leases_[holder] = LeaseEntry{std::max(lsn, base_),
                                 Clock::NowMillis() + period_ms};
  }
  Retrim();
}

uint64_t RedoLog::RetentionFloorLocked() {
  uint64_t floor = pins_.empty() ? UINT64_MAX : *pins_.begin();
  if (!leases_.empty()) {
    const int64_t now = Clock::NowMillis();
    for (auto it = leases_.begin(); it != leases_.end();) {
      if (it->second.expires_ms <= now) {
        it = leases_.erase(it);
      } else {
        floor = std::min(floor, it->second.lsn);
        ++it;
      }
    }
  }
  return floor;
}

void RedoLog::TrimLocked(std::vector<LogRecord>* dropped) {
  const uint64_t floor = std::min(RetentionFloorLocked(), end_);
  if (floor > base_) {
    const size_t n = static_cast<size_t>(floor - base_);
    dropped->reserve(dropped->size() + n);
    for (size_t i = 0; i < n; ++i) {
      dropped->push_back(std::move(records_.front()));
      records_.pop_front();
    }
    base_ = floor;
  }
  UpdateGaugesLocked();
}

void RedoLog::Retrim() {
  std::vector<LogRecord> dropped;
  std::lock_guard lock(mu_);
  TrimLocked(&dropped);
  // `dropped` is declared first, so it is freed after the unlock.
}

void RedoLog::PublishLocked(std::vector<LogRecord>* records,
                            std::vector<LogRecord>* dropped) {
  for (const LogRecord& r : *records) {
    if (r.op == LogOp::kMigrationMark) {
      pending_marks_[r.txn_id].emplace_back(r.table, r.after);
    } else if (r.op == LogOp::kCommit && !pending_marks_.empty()) {
      auto it = pending_marks_.find(r.txn_id);
      if (it == pending_marks_.end()) continue;
      for (auto& [tracker, key] : it->second) {
        marks_[tracker].push_back(std::move(key));
      }
      pending_marks_.erase(it);
    }
  }
  end_ += records->size();
  if (records_.empty() && RetentionFloorLocked() >= end_) {
    // Nothing retains any of it: the batch stays with the caller, which
    // frees it after unlocking.
    base_ = end_;
    UpdateGaugesLocked();
    return;
  }
  for (LogRecord& r : *records) records_.push_back(std::move(r));
  TrimLocked(dropped);
}

void RedoLog::UpdateGaugesLocked() {
  if (retained_gauge_ == nullptr) return;
  retained_gauge_->Set(static_cast<int64_t>(records_.size()));
  base_gauge_->Set(static_cast<int64_t>(base_));
  end_gauge_->Set(static_cast<int64_t>(end_));
  pins_gauge_->Set(static_cast<int64_t>(pins_.size() + leases_.size()));
}

Status RedoLog::RunSinkLocked(const std::vector<LogRecord>& records) {
  if (!sink_) return Status::OK();
  Stopwatch sw;
  Status st = sink_(records);
  if (sync_latency_hist_ != nullptr) {
    sync_latency_hist_->ObserveNanos(sw.ElapsedNanos());
  }
  return st;
}

void RedoLog::ResolveKnobsAndStartWriter() {
  // Called under sink_mu_. Knobs are sampled once per RedoLog so a
  // long-lived process keeps consistent behavior even if the environment
  // mutates underneath it.
  if (!knobs_resolved_) {
    knobs_resolved_ = true;
    group_commit_ = EnvInt64("BF_GROUP_COMMIT", 1) != 0;
    int64_t batch = EnvInt64("BF_GROUP_COMMIT_MAX_BATCH", 128);
    max_batch_ = batch > 0 ? static_cast<size_t>(batch) : 1;
    int64_t wait = EnvInt64("BF_GROUP_COMMIT_MAX_WAIT_US", 500);
    max_wait_us_ = wait > 0 ? wait : 0;
  }
  if (group_commit_ && !writer_.joinable()) {
    std::lock_guard lock(queue_mu_);
    if (!stop_) writer_ = std::thread([this] { WriterLoop(); });
  }
}

void RedoLog::SetSink(Sink sink) {
  std::lock_guard sink_lock(sink_mu_);
  sink_ = std::move(sink);
  if (sink_) ResolveKnobsAndStartWriter();
}

uint64_t RedoLog::SwapSink(Sink sink) {
  // sink_mu_ first: an in-flight batch finishes against the old sink and
  // publishes before we read the swap offset, so every record below the
  // returned offset is durable in the old segment and everything queued
  // behind us lands in the new one.
  std::lock_guard sink_lock(sink_mu_);
  std::lock_guard lock(mu_);
  sink_ = std::move(sink);
  if (sink_) ResolveKnobsAndStartWriter();
  return end_;
}

Status RedoLog::SyncAppend(std::vector<LogRecord> records,
                           CommitTicket* ticket) {
  std::vector<LogRecord> dropped;  // Freed after both locks are released.
  std::lock_guard sink_lock(sink_mu_);
  Status st = RunSinkLocked(records);
  if (!st.ok()) return AnnotateSinkFailure(st);
  uint64_t lsn = 0;
  {
    std::lock_guard lock(mu_);
    PublishLocked(&records, &dropped);
    lsn = end_;
  }
  grow_cv_.notify_all();
  uint64_t seq;
  {
    std::lock_guard ack_lock(ack_mu_);
    seq = ++acks_released_;
  }
  if (acks_counter_ != nullptr) acks_counter_->Inc();
  if (ticket != nullptr) {
    ticket->lsn = lsn;
    ticket->ack_seq = seq;
  }
  return Status::OK();
}

Status RedoLog::AppendCommitted(uint64_t txn_id,
                                std::vector<LogRecord> records,
                                CommitTicket* ticket) {
  // A read-only transaction has nothing to make durable: skip the commit
  // record (and the fsync it would cost) entirely.
  if (records.empty()) {
    if (ticket != nullptr) *ticket = CommitTicket{};
    return Status::OK();
  }
  for (LogRecord& r : records) r.txn_id = txn_id;
  LogRecord commit;
  commit.txn_id = txn_id;
  commit.op = LogOp::kCommit;
  records.push_back(std::move(commit));

  bool use_writer;
  bool has_sink;
  {
    std::lock_guard sink_lock(sink_mu_);
    has_sink = sink_ != nullptr;
    use_writer = sink_ && group_commit_;
  }
  if (!use_writer) {
    if (!has_sink) return SyncAppend(std::move(records), ticket);
    // Sink without group commit: the fwrite+fdatasync happens on this
    // thread — attribute it like the group-commit wait below.
    obs::ScopedSpan span("wal_sync", obs::Stage::kWalSync);
    return SyncAppend(std::move(records), ticket);
  }

  Pending pending;
  pending.records = std::move(records);
  bool queued = false;
  bool was_empty = false;
  {
    std::lock_guard lock(queue_mu_);
    if (!stop_) {
      was_empty = queue_.empty();
      queue_.push_back(&pending);
      queued = true;
    }
  }
  if (!queued) {
    // Shutdown race: the writer is gone (or going); fall back to the
    // synchronous path rather than parking forever.
    return SyncAppend(std::move(pending.records), ticket);
  }
  // Only the empty -> non-empty transition needs a wake: a non-empty
  // queue means the writer is either mid-batch or accumulating on a
  // timed tick, and will see this entry without a futex wake per commit.
  if (was_empty) queue_cv_.notify_one();
  // Futex-style park on our own flag: the writer's release store (and
  // notify_one) publishes result/ticket to exactly this thread, so a
  // batch of N acks costs N targeted wakes, not N threads contending one
  // condition-variable mutex.
  {
    obs::ScopedSpan span("wal_sync", obs::Stage::kWalSync);
    pending.done.wait(0, std::memory_order_acquire);
  }
  if (!pending.result.ok()) return pending.result;
  if (ticket != nullptr) *ticket = pending.ticket;
  return Status::OK();
}

void RedoLog::WriterLoop() {
  for (;;) {
    std::vector<Pending*> batch;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained.
      if (max_wait_us_ > 0 && queue_.size() < max_batch_ && !stop_) {
        // Adaptive accumulation: on hardware where fdatasync burns CPU,
        // the "batches form during the previous sync" assumption fails —
        // the sync starves the very committers that would fill the next
        // batch. So hold the sync open in short ticks while commits keep
        // arriving, and fire the moment an entire tick adds nothing (a
        // lone committer pays one tick, far less than the sync itself).
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(max_wait_us_);
        size_t last = queue_.size();
        while (!stop_ && queue_.size() < max_batch_ &&
               std::chrono::steady_clock::now() < deadline) {
          queue_cv_.wait_for(lock, std::chrono::microseconds(kGrowTickUs));
          if (queue_.size() == last) break;  // Arrival stream went dry.
          last = queue_.size();
        }
      }
      while (!queue_.empty() && batch.size() < max_batch_) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    ProcessBatch(batch);
  }
}

void RedoLog::ProcessBatch(const std::vector<Pending*>& batch) {
  // One sink call for the whole batch: LogFileWriter turns this into a
  // single fwrite + fdatasync. Records are moved, not copied — the
  // committer never looks at them again; the moved-from vectors keep
  // their size, which the LSN assignment below still needs.
  std::vector<LogRecord> combined;
  size_t total = 0;
  for (const Pending* p : batch) total += p->records.size();
  combined.reserve(total);
  for (Pending* p : batch) {
    for (LogRecord& r : p->records) combined.push_back(std::move(r));
  }

  Status st;
  std::vector<LogRecord> dropped;
  {
    std::lock_guard sink_lock(sink_mu_);
    st = RunSinkLocked(combined);
    if (st.ok()) {
      // Publish while still holding sink_mu_ so SwapSink cannot slide a
      // new sink (and read its base offset) between our durable write
      // and our memory publish. mu_ itself is held only for the splice —
      // readers never wait on the fsync above.
      std::lock_guard lock(mu_);
      uint64_t lsn = end_;
      for (Pending* p : batch) {
        lsn += p->records.size();
        p->ticket.lsn = lsn;
      }
      PublishLocked(&combined, &dropped);
    }
  }
  if (st.ok()) grow_cv_.notify_all();

  // Observe BEFORE releasing any ack: a committer may scrape metrics the
  // instant its ack fires, and must see this batch accounted for.
  if (batch_size_hist_ != nullptr) {
    batch_size_hist_->Observe(static_cast<double>(batch.size()));
  }
  if (st.ok() && acks_counter_ != nullptr) acks_counter_->Inc(batch.size());

  const Status failure = st.ok() ? Status::OK() : AnnotateSinkFailure(st);
  {
    std::lock_guard ack_lock(ack_mu_);
    // ack_seq hands out in batch order == LSN order: tickets were
    // assigned walking the batch front-to-back, and so does this loop,
    // under one critical section shared with SyncAppend's counter.
    if (st.ok()) {
      for (Pending* p : batch) p->ticket.ack_seq = ++acks_released_;
    }
  }
  // Release waiters front-to-back so acks fire in LSN order. Each store
  // + notify targets one parked committer; result/ticket writes above
  // happen-before the acquire load in AppendCommitted.
  for (Pending* p : batch) {
    p->result = failure;
    p->done.store(1, std::memory_order_release);
    p->done.notify_one();
  }
}

void RedoLog::AppendRaw(std::vector<LogRecord> records) {
  std::vector<LogRecord> dropped;
  {
    std::lock_guard lock(mu_);
    PublishLocked(&records, &dropped);
  }
  grow_cv_.notify_all();
}

Status RedoLog::StartAt(uint64_t lsn) {
  std::lock_guard lock(mu_);
  if (end_ != 0) {
    return Status::InvalidArgument(
        "redo log already holds LSNs up to " + std::to_string(end_));
  }
  base_ = end_ = lsn;
  UpdateGaugesLocked();
  return Status::OK();
}

Result<uint64_t> RedoLog::ReadFrom(uint64_t from, size_t limit,
                                   std::vector<LogRecord>* out) const {
  std::lock_guard lock(mu_);
  out->clear();
  if (from < base_) {
    return Status::Trimmed("redo log trimmed below LSN " +
                           std::to_string(base_) + " (asked for " +
                           std::to_string(from) + ")");
  }
  for (uint64_t i = from; i < end_ && out->size() < limit; ++i) {
    out->push_back(records_[static_cast<size_t>(i - base_)]);
  }
  return end_;
}

uint64_t RedoLog::WaitForSize(uint64_t from, int64_t timeout_ms) const {
  std::unique_lock lock(mu_);
  if (timeout_ms > 0) {
    grow_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this, from] { return end_ > from; });
  }
  return end_;
}

std::vector<Tuple> RedoLog::MarksFor(const std::string& tracker_id) const {
  std::lock_guard lock(mu_);
  auto it = marks_.find(tracker_id);
  return it == marks_.end() ? std::vector<Tuple>{} : it->second;
}

void RedoLog::DropMarks(const std::string& tracker_id) {
  std::vector<Tuple> dropped;
  std::lock_guard lock(mu_);
  auto it = marks_.find(tracker_id);
  if (it == marks_.end()) return;
  dropped = std::move(it->second);
  marks_.erase(it);
}

void RedoLog::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  batch_size_hist_ = registry->GetHistogram(
      "bullfrog_wal_group_commit_batch_size", "",
      obs::MetricsRegistry::ExponentialBounds(1.0, 2.0, 10));
  sync_latency_hist_ = registry->GetHistogram(
      "bullfrog_wal_sync_seconds", "", obs::MetricsRegistry::LatencyBounds());
  acks_counter_ = registry->GetCounter("bullfrog_wal_acks_released_total");
  std::lock_guard lock(mu_);
  retained_gauge_ = registry->GetGauge("bullfrog_wal_retained_records");
  base_gauge_ = registry->GetGauge("bullfrog_wal_base_lsn");
  end_gauge_ = registry->GetGauge("bullfrog_wal_end_lsn");
  pins_gauge_ = registry->GetGauge("bullfrog_wal_pins");
  UpdateGaugesLocked();
}

}  // namespace bullfrog
