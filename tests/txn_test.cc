#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "common/random.h"
#include "storage/table.h"
#include "txn/lock_manager.h"
#include "txn/recovery.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"

namespace bullfrog {
namespace {

TableSchema TestSchema() {
  return SchemaBuilder("t")
      .AddColumn("id", ValueType::kInt64, /*nullable=*/false)
      .AddColumn("v", ValueType::kInt64)
      .SetPrimaryKey({"id"})
      .Build();
}

Tuple Row(int64_t id, int64_t v) { return Tuple{Value::Int(id), Value::Int(v)}; }

TEST(LockManagerTest, ExclusiveExcludesYounger) {
  LockManager lm;
  LockKey key{&lm, 1};
  ASSERT_TRUE(lm.Acquire(1, key).ok());
  // Wait-die: txn 2 is younger than holder 1 -> dies immediately.
  EXPECT_TRUE(lm.Acquire(2, key).IsTxnConflict());
  lm.ReleaseAll(1, {key});
}

TEST(LockManagerTest, OlderWaitsForRelease) {
  LockManager lm;
  LockKey key{&lm, 1};
  ASSERT_TRUE(lm.Acquire(5, key).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    // Txn 3 is older than holder 5 -> waits.
    EXPECT_TRUE(lm.Acquire(3, key, 5000).ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(5, {key});
  waiter.join();
  EXPECT_TRUE(acquired.load());
  lm.ReleaseAll(3, {key});
}

TEST(LockManagerTest, Reentrant) {
  LockManager lm;
  LockKey key{&lm, 9};
  ASSERT_TRUE(lm.Acquire(1, key).ok());
  ASSERT_TRUE(lm.Acquire(1, key).ok());
  EXPECT_TRUE(lm.Holds(1, key));
  // The re-entrant grant lists the key twice. Once the first entry has
  // released it, another transaction may take the lock; the duplicate
  // entry must not release that transaction's lock.
  lm.ReleaseAll(1, {key});
  EXPECT_FALSE(lm.Holds(1, key));
  ASSERT_TRUE(lm.Acquire(2, key).ok());
  lm.ReleaseAll(1, {key});
  EXPECT_TRUE(lm.Holds(2, key));
  lm.ReleaseAll(2, {key});
  EXPECT_FALSE(lm.Holds(2, key));
}

TEST(LockManagerTest, TimeoutExpires) {
  LockManager lm;
  LockKey key{&lm, 2};
  ASSERT_TRUE(lm.Acquire(10, key).ok());
  // Older txn 5 waits but times out.
  EXPECT_TRUE(lm.Acquire(5, key, 100).code() ==
              StatusCode::kTimedOut);
  lm.ReleaseAll(10, {key});
}

TEST(LockManagerTest, NoLostWakeupsUnderContention) {
  LockManager lm;
  LockKey key{&lm, 3};
  std::atomic<int> in_critical{0};
  std::atomic<int> completions{0};
  std::vector<std::thread> threads;
  // Older transactions (small ids) wait; this must always drain.
  for (uint64_t id = 1; id <= 8; ++id) {
    threads.emplace_back([&, id] {
      Status s = lm.Acquire(id, key, 10000);
      if (!s.ok()) return;
      EXPECT_EQ(in_critical.fetch_add(1), 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      in_critical.fetch_sub(1);
      lm.ReleaseAll(id, {key});
      completions.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  // At least the oldest must get through; most should.
  EXPECT_GE(completions.load(), 1);
}

TEST(TxnManagerTest, CommitMakesChangesDurable) {
  TransactionManager tm;
  Table table(TestSchema());
  auto txn = tm.Begin();
  auto out = tm.Insert(txn.get(), &table, Row(1, 10));
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  Tuple row;
  ASSERT_TRUE(table.Read(out->rid, &row).ok());
  EXPECT_EQ(row[1].AsInt(), 10);
  EXPECT_EQ(tm.num_committed(), 1u);
  // The redo log holds the insert + commit records.
  EXPECT_EQ(tm.redo_log().size(), 2u);
}

TEST(TxnManagerTest, AbortUndoesInsert) {
  TransactionManager tm;
  Table table(TestSchema());
  auto txn = tm.Begin();
  auto out = tm.Insert(txn.get(), &table, Row(1, 10));
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(tm.Abort(txn.get()).ok());
  Tuple row;
  EXPECT_TRUE(table.Read(out->rid, &row).IsNotFound());
  EXPECT_EQ(table.NumLiveRows(), 0u);
  // Aborted work must not reach the redo log.
  EXPECT_EQ(tm.redo_log().size(), 0u);
  // The PK is free again.
  auto txn2 = tm.Begin();
  EXPECT_TRUE(tm.Insert(txn2.get(), &table, Row(1, 20)).ok());
  ASSERT_TRUE(tm.Commit(txn2.get()).ok());
}

TEST(TxnManagerTest, AbortUndoesUpdateAndDelete) {
  TransactionManager tm;
  Table table(TestSchema());
  auto setup = tm.Begin();
  auto a = tm.Insert(setup.get(), &table, Row(1, 10));
  auto b = tm.Insert(setup.get(), &table, Row(2, 20));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(tm.Commit(setup.get()).ok());

  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Update(txn.get(), &table, a->rid, Row(1, 11)).ok());
  ASSERT_TRUE(tm.Delete(txn.get(), &table, b->rid).ok());
  ASSERT_TRUE(tm.Abort(txn.get()).ok());

  Tuple row;
  ASSERT_TRUE(table.Read(a->rid, &row).ok());
  EXPECT_EQ(row[1].AsInt(), 10);
  ASSERT_TRUE(table.Read(b->rid, &row).ok());
  EXPECT_EQ(row[1].AsInt(), 20);
}

TEST(TxnManagerTest, AbortUndoesInReverseOrder) {
  TransactionManager tm;
  Table table(TestSchema());
  auto setup = tm.Begin();
  auto a = tm.Insert(setup.get(), &table, Row(1, 0));
  ASSERT_TRUE(tm.Commit(setup.get()).ok());

  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Update(txn.get(), &table, a->rid, Row(1, 1)).ok());
  ASSERT_TRUE(tm.Update(txn.get(), &table, a->rid, Row(1, 2)).ok());
  ASSERT_TRUE(tm.Abort(txn.get()).ok());
  Tuple row;
  ASSERT_TRUE(table.Read(a->rid, &row).ok());
  EXPECT_EQ(row[1].AsInt(), 0);
}

TEST(TxnManagerTest, WriteConflictTriggersWaitDie) {
  TransactionManager tm;
  Table table(TestSchema());
  auto setup = tm.Begin();
  auto a = tm.Insert(setup.get(), &table, Row(1, 0));
  ASSERT_TRUE(tm.Commit(setup.get()).ok());

  auto older = tm.Begin();
  auto younger = tm.Begin();
  ASSERT_GT(younger->id(), older->id());
  ASSERT_TRUE(tm.Update(older.get(), &table, a->rid, Row(1, 1)).ok());
  // Younger writer dies immediately.
  Tuple row;
  EXPECT_TRUE(
      tm.ReadForUpdate(younger.get(), &table, a->rid, &row).IsTxnConflict());
  ASSERT_TRUE(tm.Abort(younger.get()).ok());
  ASSERT_TRUE(tm.Commit(older.get()).ok());
}

TEST(TxnManagerTest, CommitAndAbortHooksFire) {
  TransactionManager tm;
  int committed = 0, aborted = 0;
  auto t1 = tm.Begin();
  t1->OnCommit([&] { ++committed; });
  t1->OnAbort([&] { ++aborted; });
  ASSERT_TRUE(tm.Commit(t1.get()).ok());
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(aborted, 0);

  auto t2 = tm.Begin();
  t2->OnCommit([&] { ++committed; });
  t2->OnAbort([&] { ++aborted; });
  ASSERT_TRUE(tm.Abort(t2.get()).ok());
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(aborted, 1);
}

TEST(TxnManagerTest, DoubleCommitRejected) {
  TransactionManager tm;
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  EXPECT_FALSE(tm.Commit(txn.get()).ok());
  EXPECT_FALSE(tm.Abort(txn.get()).ok());
}

TEST(TxnManagerTest, ConcurrentTransfersPreserveInvariant) {
  // Classic bank-transfer invariant under wait-die 2PL: total balance is
  // conserved across concurrent read-modify-write transactions.
  TransactionManager tm;
  Table table(TestSchema());
  constexpr int kAccounts = 10;
  constexpr int64_t kInitial = 1000;
  {
    auto setup = tm.Begin();
    for (int i = 0; i < kAccounts; ++i) {
      ASSERT_TRUE(tm.Insert(setup.get(), &table, Row(i, kInitial)).ok());
    }
    ASSERT_TRUE(tm.Commit(setup.get()).ok());
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(static_cast<uint64_t>(w) + 99);
      for (int i = 0; i < 400; ++i) {
        const RowId from = rng.Uniform(kAccounts);
        const RowId to = (from + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
        auto txn = tm.Begin();
        Tuple a, b;
        Status s = tm.ReadForUpdate(txn.get(), &table, from, &a);
        if (s.ok()) s = tm.ReadForUpdate(txn.get(), &table, to, &b);
        if (s.ok()) {
          s = tm.Update(txn.get(), &table, from,
                        Row(a[0].AsInt(), a[1].AsInt() - 1));
        }
        if (s.ok()) {
          s = tm.Update(txn.get(), &table, to,
                        Row(b[0].AsInt(), b[1].AsInt() + 1));
        }
        if (s.ok()) {
          ASSERT_TRUE(tm.Commit(txn.get()).ok());
        } else {
          ASSERT_TRUE(s.IsRetryable()) << s.ToString();
          ASSERT_TRUE(tm.Abort(txn.get()).ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  table.Scan([&](RowId, const Tuple& row) {
    total += row[1].AsInt();
    return true;
  });
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(RedoLogTest, AppendAndReadOrder) {
  RedoLog log;
  RedoLog::RetentionPin pin = log.Pin(0);  // Keep what we read back.
  LogRecord r1;
  r1.op = LogOp::kInsert;
  r1.table = "t";
  r1.rid = 1;
  log.AppendCommitted(7, {r1});
  std::vector<LogRecord> records;
  ASSERT_TRUE(log.ReadFrom(0, SIZE_MAX, &records).ok());
  std::vector<LogOp> ops;
  std::vector<uint64_t> txns;
  for (const LogRecord& r : records) {
    ops.push_back(r.op);
    txns.push_back(r.txn_id);
  }
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0], LogOp::kInsert);
  EXPECT_EQ(ops[1], LogOp::kCommit);
  EXPECT_EQ(txns[0], 7u);
  EXPECT_EQ(txns[1], 7u);
}

LogRecord InsertRecord(RowId rid) {
  LogRecord r;
  r.op = LogOp::kInsert;
  r.table = "t";
  r.rid = rid;
  return r;
}

TEST(RedoLogTest, NoPinRetainsNothing) {
  // An embedded log with no sink, no pin and no lease keeps no records:
  // each committed batch is dropped as soon as it is published, while
  // the end LSN (size) keeps counting.
  RedoLog log;
  constexpr int kCommits = 10000;
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(log.AppendCommitted(1, {InsertRecord(i)}).ok());
  }
  EXPECT_EQ(log.end_lsn(), 2u * kCommits);
  EXPECT_EQ(log.size(), 2u * kCommits);
  EXPECT_EQ(log.base_lsn(), log.end_lsn());
  std::vector<LogRecord> out;
  EXPECT_TRUE(log.ReadFrom(log.end_lsn(), 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(RedoLogTest, PinHoldsExactlyFromPinToEnd) {
  RedoLog log;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.AppendCommitted(1, {InsertRecord(i)}).ok());
  }
  RedoLog::RetentionPin pin = log.Pin(log.end_lsn());
  EXPECT_EQ(pin.lsn(), 10u);
  for (int i = 5; i < 8; ++i) {
    ASSERT_TRUE(log.AppendCommitted(1, {InsertRecord(i)}).ok());
  }
  EXPECT_EQ(log.base_lsn(), 10u);
  EXPECT_EQ(log.end_lsn(), 16u);
  std::vector<LogRecord> out;
  Result<uint64_t> end = log.ReadFrom(10, SIZE_MAX, &out);
  ASSERT_TRUE(end.ok()) << end.status();
  EXPECT_EQ(*end, 16u);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].rid, 5u);
  EXPECT_EQ(out[4].rid, 7u);

  // Below the base: an explicit trimmed status, not an empty read.
  Result<uint64_t> below = log.ReadFrom(9, SIZE_MAX, &out);
  ASSERT_FALSE(below.ok());
  EXPECT_TRUE(below.status().IsTrimmed()) << below.status();
  EXPECT_NE(below.status().message().find("trimmed below LSN 10"),
            std::string::npos)
      << below.status();

  // A pin below the base clamps to it; advancing releases the prefix.
  RedoLog::RetentionPin low = log.Pin(0);
  EXPECT_EQ(low.lsn(), 10u);
  low.Advance(14);
  pin.Advance(12);
  EXPECT_EQ(log.base_lsn(), 12u);
  pin.Release();
  EXPECT_EQ(log.base_lsn(), 14u);
  low.Release();
  EXPECT_EQ(log.base_lsn(), log.end_lsn());
}

TEST(RedoLogTest, LeaseLapsesAfterItsPeriod) {
  RedoLog log;
  const uint64_t holder = log.NewLeaseHolder();
  log.Lease(holder, 0, /*period_ms=*/60000);
  ASSERT_TRUE(log.AppendCommitted(1, {InsertRecord(1)}).ok());
  EXPECT_EQ(log.base_lsn(), 0u);
  // A refresh replaces the holder's LSN and period: a lease that lapses
  // at once no longer retains anything at the next trim.
  log.Lease(holder, 1, /*period_ms=*/0);
  ASSERT_TRUE(log.AppendCommitted(1, {InsertRecord(2)}).ok());
  EXPECT_EQ(log.base_lsn(), log.end_lsn());
}

TEST(RedoLogTest, StartAtContinuesAnLsnSpace) {
  RedoLog log;
  ASSERT_TRUE(log.StartAt(100).ok());
  EXPECT_EQ(log.base_lsn(), 100u);
  RedoLog::RetentionPin pin = log.Pin(100);
  ASSERT_TRUE(log.AppendCommitted(1, {InsertRecord(1)}).ok());
  EXPECT_EQ(log.end_lsn(), 102u);
  std::vector<LogRecord> out;
  ASSERT_TRUE(log.ReadFrom(100, SIZE_MAX, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_FALSE(log.StartAt(5).ok());
}

TEST(RedoLogTest, EmptyCommitSkipsSinkAndCommitRecord) {
  RedoLog log;
  std::atomic<int> sink_calls{0};
  log.SetSink([&](const std::vector<LogRecord>&) {
    sink_calls.fetch_add(1);
    return Status::OK();
  });
  // A read-only transaction has nothing to make durable: no commit
  // record, no sink call (and therefore no fsync for a SELECT).
  CommitTicket ticket;
  ASSERT_TRUE(log.AppendCommitted(9, {}, &ticket).ok());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(sink_calls.load(), 0);
  EXPECT_EQ(ticket.lsn, 0u);
}

TEST(RedoLogTest, SinkFailurePropagatesAndNothingIsPublished) {
  RedoLog log;
  log.SetSink([](const std::vector<LogRecord>&) {
    return Status::Internal("disk full");
  });
  LogRecord r;
  r.op = LogOp::kInsert;
  r.table = "t";
  Status st = log.AppendCommitted(3, {r});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("disk full"), std::string::npos);
  // Failed appends must never become visible to readers / replication.
  EXPECT_EQ(log.size(), 0u);
}

TEST(RedoLogTest, LsnOrderedAcksUnderConcurrentCommitters) {
  // 16 committers race through the group-commit writer; acks must be
  // released strictly in LSN order (ack_seq order == lsn order), every
  // record must be published, and no two commits may share an LSN.
  RedoLog log;
  std::atomic<int> sink_calls{0};
  log.SetSink([&](const std::vector<LogRecord>& batch) {
    sink_calls.fetch_add(1);
    EXPECT_FALSE(batch.empty());
    return Status::OK();
  });
  constexpr int kThreads = 16;
  constexpr int kCommitsPerThread = 25;
  std::vector<CommitTicket> tickets(kThreads * kCommitsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        LogRecord r;
        r.op = LogOp::kInsert;
        r.table = "t";
        r.rid = static_cast<RowId>(t * kCommitsPerThread + i);
        ASSERT_TRUE(log.AppendCommitted(static_cast<uint64_t>(t + 1), {r},
                                        &tickets[t * kCommitsPerThread + i])
                        .ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every commit wrote its record + a commit record.
  EXPECT_EQ(log.size(), static_cast<size_t>(kThreads * kCommitsPerThread * 2));
  // Group commit must have batched at least some commits into shared
  // sink calls (with 16 threads racing one writer this is overwhelmingly
  // likely; equality would mean zero batching ever happened).
  EXPECT_LE(sink_calls.load(), kThreads * kCommitsPerThread);

  std::sort(tickets.begin(), tickets.end(),
            [](const CommitTicket& a, const CommitTicket& b) {
              return a.ack_seq < b.ack_seq;
            });
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_GT(tickets[i].lsn, 0u);
    if (i > 0) {
      // Strict: distinct commits get distinct LSNs, released in order.
      EXPECT_GT(tickets[i].ack_seq, tickets[i - 1].ack_seq);
      EXPECT_GT(tickets[i].lsn, tickets[i - 1].lsn);
    }
  }
}

TEST(RedoLogTest, ReadersDoNotBlockWhileSinkIsSyncing) {
  // Regression for the PR-5 behavior where the sink ran under the log
  // mutex: a slow fsync stalled every ReadFrom/size caller
  // (replication tails, recovery). Here the sink parks mid-"fsync" and
  // readers must still complete — and must NOT see the in-flight records
  // (publish-after-durable).
  RedoLog log;
  RedoLog::RetentionPin pin = log.Pin(0);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool in_sink = false;
  bool release_sink = false;
  log.SetSink([&](const std::vector<LogRecord>&) {
    std::unique_lock lock(gate_mu);
    in_sink = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release_sink; });
    return Status::OK();
  });

  std::thread committer([&] {
    LogRecord r;
    r.op = LogOp::kInsert;
    r.table = "t";
    ASSERT_TRUE(log.AppendCommitted(1, {r}).ok());
  });
  {
    std::unique_lock lock(gate_mu);
    gate_cv.wait(lock, [&] { return in_sink; });
  }
  // The sink is parked mid-sync. Readers must return promptly and see an
  // empty log (the batch is not durable yet, so it is not visible).
  std::vector<LogRecord> out;
  Result<uint64_t> end = log.ReadFrom(0, 100, &out);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(*end, 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(log.size(), 0u);

  {
    std::lock_guard lock(gate_mu);
    release_sink = true;
  }
  gate_cv.notify_all();
  committer.join();
  EXPECT_EQ(log.size(), 2u);
}

TEST(RedoLogTest, WaitForSizeWakesOnAppend) {
  RedoLog log;
  std::thread waiter([&] {
    // Generous timeout; the appender below should wake us long before.
    EXPECT_GE(log.WaitForSize(0, 10000), 1u);
  });
  LogRecord r;
  r.op = LogOp::kInsert;
  r.table = "t";
  ASSERT_TRUE(log.AppendCommitted(1, {r}).ok());
  waiter.join();
  EXPECT_EQ(log.WaitForSize(0, 0), 2u);  // Non-blocking snapshot.
}

TEST(TxnManagerTest, FailedDurableAppendRollsBackInsteadOfAcking) {
  TransactionManager tm;
  tm.redo_log().SetSink([](const std::vector<LogRecord>&) {
    return Status::Internal("injected sink failure");
  });
  Table table(TestSchema());
  auto txn = tm.Begin();
  auto out = tm.Insert(txn.get(), &table, Row(1, 10));
  ASSERT_TRUE(out.ok());
  Status st = tm.Commit(txn.get());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected sink failure"), std::string::npos);
  // The commit never hit disk, so it must have been rolled back exactly
  // like an abort: row gone, nothing in the log, counted as aborted.
  Tuple row;
  EXPECT_TRUE(table.Read(out->rid, &row).IsNotFound());
  EXPECT_EQ(table.NumLiveRows(), 0u);
  EXPECT_EQ(tm.redo_log().size(), 0u);
  EXPECT_EQ(tm.num_committed(), 0u);
  EXPECT_EQ(tm.num_aborted(), 1u);
  // Locks were released: a new transaction can reuse the PK.
  auto txn2 = tm.Begin();
  EXPECT_TRUE(tm.Insert(txn2.get(), &table, Row(1, 20)).ok());
  EXPECT_FALSE(tm.Commit(txn2.get()).ok());  // Sink still failing.
  EXPECT_EQ(tm.num_aborted(), 2u);
}

class FakeTarget : public TrackerRecoveryTarget {
 public:
  void MarkMigratedFromLog(const Tuple& unit_key) override {
    keys.push_back(unit_key);
  }
  std::vector<Tuple> keys;
};

TEST(RecoveryTest, OnlyCommittedMarksApplied) {
  RedoLog log;
  LogRecord mark;
  mark.op = LogOp::kMigrationMark;
  mark.table = "tracker_a";
  mark.after = Tuple{Value::Int(4)};
  log.AppendCommitted(1, {mark});

  FakeTarget target;
  RecoverTrackerState(log, {{"tracker_a", &target}});
  ASSERT_EQ(target.keys.size(), 1u);
  EXPECT_EQ(target.keys[0][0].AsInt(), 4);
}

TEST(RecoveryTest, UnknownTrackerIdsSkipped) {
  RedoLog log;
  LogRecord mark;
  mark.op = LogOp::kMigrationMark;
  mark.table = "gone";
  mark.after = Tuple{Value::Int(1)};
  log.AppendCommitted(1, {mark});
  FakeTarget target;
  RecoverTrackerState(log, {{"other", &target}});
  EXPECT_TRUE(target.keys.empty());
}

TEST(RecoveryTest, RawMarksCountOnlyOnceTheirCommitArrives) {
  // WAL replay and replica apply hand the log records that may split a
  // transaction across calls: marks wait for their commit record, and a
  // transaction that never commits contributes none.
  RedoLog log;
  LogRecord mark;
  mark.op = LogOp::kMigrationMark;
  mark.table = "tr";
  mark.txn_id = 5;
  mark.after = Tuple{Value::Int(1)};
  LogRecord torn = mark;
  torn.txn_id = 6;
  torn.after = Tuple{Value::Int(2)};
  log.AppendRaw({mark, torn});
  FakeTarget target;
  RecoverTrackerState(log, {{"tr", &target}});
  EXPECT_TRUE(target.keys.empty());

  LogRecord commit;
  commit.op = LogOp::kCommit;
  commit.txn_id = 5;
  log.AppendRaw({commit});
  RecoverTrackerState(log, {{"tr", &target}});
  ASSERT_EQ(target.keys.size(), 1u);
  EXPECT_EQ(target.keys[0][0].AsInt(), 1);
  // Nothing retains the row images; the marks list is independent.
  EXPECT_EQ(log.base_lsn(), log.end_lsn());

  // A pruned migration's marks are dropped.
  log.DropMarks("tr");
  FakeTarget after_drop;
  RecoverTrackerState(log, {{"tr", &after_drop}});
  EXPECT_TRUE(after_drop.keys.empty());
}

TEST(RecoveryTest, MigrationMarksRecordedOnlyOnCommit) {
  TransactionManager tm;
  // Aborted transaction: mark is buffered but never logged.
  auto t1 = tm.Begin();
  tm.LogMigrationMark(t1.get(), "tr", Tuple{Value::Int(1)});
  ASSERT_TRUE(tm.Abort(t1.get()).ok());
  auto t2 = tm.Begin();
  tm.LogMigrationMark(t2.get(), "tr", Tuple{Value::Int(2)});
  ASSERT_TRUE(tm.Commit(t2.get()).ok());
  FakeTarget target;
  RecoverTrackerState(tm.redo_log(), {{"tr", &target}});
  ASSERT_EQ(target.keys.size(), 1u);
  EXPECT_EQ(target.keys[0][0].AsInt(), 2);
}

}  // namespace
}  // namespace bullfrog
