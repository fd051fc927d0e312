// MVCC race tests, written for TSan: snapshot readers racing committing
// writers (statement-level sum invariant), racing the background version
// GC at a 1ms sweep interval, racing a live lazy migration's pulls, and
// racing a multistep copier's dual writes. Readers never take row locks,
// so every reader-side Status must be OK — a reader wait-die abort is a
// test failure, which is exactly the property the Zipf bench measures.

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bullfrog/database.h"
#include "common/clock.h"
#include "sql/engine.h"

namespace bullfrog {
namespace {

constexpr int kAccounts = 16;
constexpr int64_t kInitialBalance = 100;
constexpr int64_t kTotal = kAccounts * kInitialBalance;

void SeedAccounts(Database* db) {
  ASSERT_TRUE(db->CreateTable(SchemaBuilder("accounts")
                                  .AddColumn("id", ValueType::kInt64, false)
                                  .AddColumn("balance", ValueType::kInt64)
                                  .SetPrimaryKey({"id"})
                                  .Build())
                  .ok());
  auto s = db->BeginSession({"accounts"});
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_TRUE(db->Insert(&s, "accounts",
                           Tuple{Value::Int(i), Value::Int(kInitialBalance)})
                    .ok());
  }
  ASSERT_TRUE(db->Commit(&s).ok());
}

/// One transfer transaction: move `delta` from account `from` to
/// account `to` under 2PL. Wait-die may kill it; returns whether it
/// committed so callers can retry like a real client.
bool TryTransfer(Database* db, int from, int to, int64_t delta) {
  auto s = db->BeginSession({"accounts"});
  auto debit = db->Update(&s, "accounts", Eq(Col("id"), LitInt(from)),
                          [&](const Tuple& t) {
                            Tuple u = t;
                            u[1] = Value::Int(t[1].AsInt() - delta);
                            return u;
                          });
  if (!debit.ok()) {
    db->Abort(&s);
    return false;
  }
  auto credit = db->Update(&s, "accounts", Eq(Col("id"), LitInt(to)),
                           [&](const Tuple& t) {
                             Tuple u = t;
                             u[1] = Value::Int(t[1].AsInt() + delta);
                             return u;
                           });
  if (!credit.ok()) {
    db->Abort(&s);
    return false;
  }
  return db->Commit(&s).ok();
}

/// Snapshot readers sum every balance `rounds` times; each statement
/// must observe a transactionally consistent total.
void RunReaders(Database* db, int nthreads, int rounds,
                std::atomic<bool>* failed) {
  std::vector<std::thread> readers;
  for (int r = 0; r < nthreads; ++r) {
    readers.emplace_back([db, rounds, failed, r] {
      for (int i = 0; i < rounds; ++i) {
        auto s = db->BeginSession({"accounts"});
        auto rows = db->Select(&s, "accounts", nullptr);
        if (!rows.ok()) {
          ADD_FAILURE() << "reader " << r << " select: " << rows.status();
          failed->store(true);
          db->Abort(&s);
          return;
        }
        int64_t sum = 0;
        for (const auto& [rid, row] : *rows) sum += row[1].AsInt();
        if (sum != kTotal || rows->size() != kAccounts) {
          ADD_FAILURE() << "reader " << r << " saw inconsistent snapshot: "
                        << rows->size() << " rows, sum " << sum;
          failed->store(true);
          db->Abort(&s);
          return;
        }
        if (!db->Commit(&s).ok()) {
          failed->store(true);
          return;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
}

void RunWriters(Database* db, int nthreads, int transfers) {
  std::vector<std::thread> writers;
  for (int w = 0; w < nthreads; ++w) {
    writers.emplace_back([db, transfers, w] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (w + 1);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      for (int i = 0; i < transfers; ++i) {
        const int from = static_cast<int>(next() % kAccounts);
        int to = static_cast<int>(next() % kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        const int64_t delta = static_cast<int64_t>(next() % 10) + 1;
        // Wait-die kills are expected under contention; retry a few
        // times, then move on — the invariant holds either way.
        for (int attempt = 0; attempt < 20; ++attempt) {
          if (TryTransfer(db, from, to, delta)) break;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
}

TEST(MvccRaceTest, SnapshotReadersVsTransferWriters) {
  Database db;
  SeedAccounts(&db);
  std::atomic<bool> failed{false};
  std::thread writer_group([&] { RunWriters(&db, 4, 150); });
  RunReaders(&db, 3, 200, &failed);
  writer_group.join();
  EXPECT_FALSE(failed.load());

  // Quiescent total is exact.
  auto s = db.BeginSession({"accounts"});
  auto rows = db.Select(&s, "accounts", nullptr);
  ASSERT_TRUE(rows.ok());
  int64_t sum = 0;
  for (const auto& [rid, row] : *rows) sum += row[1].AsInt();
  EXPECT_EQ(sum, kTotal);
  ASSERT_TRUE(db.Commit(&s).ok());
}

TEST(MvccRaceTest, SnapshotReadersVsVersionGc) {
  // A 1ms sweeper races the readers' pinned views and the writers'
  // chain growth; the watermark handshake must keep every pinned
  // version alive.
  ::setenv("BF_MVCC_GC_MS", "1", 1);
  Database db;
  ::unsetenv("BF_MVCC_GC_MS");
  SeedAccounts(&db);
  std::atomic<bool> failed{false};
  // One round can finish before the sweeper's first pass on a loaded host;
  // run rounds until a pass completed inside one (at most 50).
  for (int round = 0; round < 50 && !failed.load(); ++round) {
    const uint64_t passes_before = db.version_gc().passes();
    std::thread writer_group([&] { RunWriters(&db, 3, 150); });
    RunReaders(&db, 3, 200, &failed);
    writer_group.join();
    if (db.version_gc().passes() > passes_before) break;
  }
  EXPECT_FALSE(failed.load());
  EXPECT_GE(db.version_gc().passes(), 1u);
}

TEST(MvccRaceTest, SnapshotReadersVsLiveLazyMigration) {
  Database db;
  sql::SqlEngine engine(&db);
  {
    auto r = engine.Execute(
        "CREATE TABLE kv (id INT PRIMARY KEY, score DOUBLE, name TEXT)");
    ASSERT_TRUE(r.ok()) << r.status();
  }
  for (int i = 0; i < 200; ++i) {
    auto r = engine.Execute("INSERT INTO kv VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i) + ".5, 'row" +
                            std::to_string(i) + "')");
    ASSERT_TRUE(r.ok()) << r.status();
  }

  MigrationController::SubmitOptions opts;
  opts.enable_background = true;
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(
                      "CREATE TABLE kv2 PRIMARY KEY (id) AS "
                      "SELECT id, name FROM kv; DROP TABLE kv;",
                      opts)
                  .ok());

  // Readers scan the new schema while background workers and their own
  // lazy pulls migrate granules underneath them. Every scan triggers
  // PrepareRead first, so each must see all 200 rows.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&db, &failed, r] {
      for (int i = 0; i < 40 && !failed.load(); ++i) {
        auto s = db.BeginSession({"kv2"});
        auto rows = db.Select(&s, "kv2", nullptr);
        if (!rows.ok()) {
          ADD_FAILURE() << "reader " << r << ": " << rows.status();
          failed.store(true);
          db.Abort(&s);
          return;
        }
        if (rows->size() != 200u) {
          ADD_FAILURE() << "reader " << r << " saw " << rows->size()
                        << " rows mid-migration";
          failed.store(true);
        }
        db.Commit(&s);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  for (int i = 0; i < 2000 && !db.controller().IsComplete(); ++i) {
    Clock::SleepMillis(1);
  }
  EXPECT_TRUE(db.controller().IsComplete());
}

TEST(MvccRaceTest, SnapshotReadersVsMultiStepCopier) {
  Database db;
  sql::SqlEngine engine(&db);
  {
    auto r = engine.Execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, val INT)");
    ASSERT_TRUE(r.ok()) << r.status();
  }
  int64_t total = 0;
  for (int i = 0; i < 300; ++i) {
    auto r = engine.Execute("INSERT INTO src VALUES (" + std::to_string(i) +
                            ", " + std::to_string(i % 10) + ", " +
                            std::to_string(i) + ")");
    ASSERT_TRUE(r.ok()) << r.status();
    total += i;
  }

  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kMultiStep;
  opts.multistep.batch = 16;
  opts.multistep.pause_us = 500;  // Pace the copier so reads land mid-copy.
  ASSERT_TRUE(engine
                  .SubmitMigrationScript(
                      "CREATE TABLE dst PRIMARY KEY (id) AS "
                      "SELECT id, val FROM src; DROP TABLE src;",
                      opts)
                  .ok());

  // The old schema stays active during the copy: snapshot readers keep
  // summing it and must see a stable total until the cutover drops it.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &failed, total, r] {
      while (!db.controller().IsComplete() && !failed.load()) {
        auto s = db.BeginSession({"src"});
        auto rows = db.Select(&s, "src", nullptr);
        if (!rows.ok()) {
          // The cutover retires src mid-loop; that rejection is the
          // expected end of this reader's run, not a failure.
          db.Abort(&s);
          return;
        }
        int64_t sum = 0;
        for (const auto& [rid, row] : *rows) sum += row[2].AsInt();
        if (sum != total) {
          ADD_FAILURE() << "reader " << r << " saw torn sum " << sum;
          failed.store(true);
        }
        db.Commit(&s);
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  for (int i = 0; i < 5000 && !db.controller().IsComplete(); ++i) {
    Clock::SleepMillis(1);
  }
  ASSERT_TRUE(db.controller().IsComplete());
  auto s = db.BeginSession({"dst"});
  auto rows = db.Select(&s, "dst", nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 300u);
  ASSERT_TRUE(db.Commit(&s).ok());
}

}  // namespace
}  // namespace bullfrog
