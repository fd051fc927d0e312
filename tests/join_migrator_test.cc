#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "common/clock.h"
#include "migration/statement_migrator.h"
#include "query/scan.h"
#include "txn/txn_manager.h"

namespace bullfrog {
namespace {

/// Creates left(id, k, x) and right(rid, k, y), joined on k into
/// joined(id, rid, k, x, y). Key k ranges over `keys` values; each key has
/// `left_per_key` left rows and `right_per_key` right rows (true
/// many-to-many).
void LoadJoinTables(Catalog* catalog, int keys, int left_per_key,
                    int right_per_key) {
  auto left = catalog->CreateTable(SchemaBuilder("left")
                                       .AddColumn("id", ValueType::kInt64,
                                                  false)
                                       .AddColumn("k", ValueType::kInt64)
                                       .AddColumn("x", ValueType::kInt64)
                                       .SetPrimaryKey({"id"})
                                       .Build());
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(
      (*left)->CreateIndex("left_by_k", {"k"}, false, IndexKind::kHash).ok());
  auto right = catalog->CreateTable(SchemaBuilder("right")
                                        .AddColumn("rid", ValueType::kInt64,
                                                   false)
                                        .AddColumn("k", ValueType::kInt64)
                                        .AddColumn("y", ValueType::kInt64)
                                        .SetPrimaryKey({"rid"})
                                        .Build());
  ASSERT_TRUE(right.ok());
  ASSERT_TRUE(
      (*right)->CreateIndex("right_by_k", {"k"}, false, IndexKind::kHash)
          .ok());
  int id = 0;
  for (int k = 0; k < keys; ++k) {
    for (int i = 0; i < left_per_key; ++i) {
      ASSERT_TRUE((*left)
                      ->Insert(Tuple{Value::Int(id++), Value::Int(k),
                                     Value::Int(k * 100 + i)})
                      .ok());
    }
  }
  int rid = 0;
  for (int k = 0; k < keys; ++k) {
    for (int i = 0; i < right_per_key; ++i) {
      ASSERT_TRUE((*right)
                      ->Insert(Tuple{Value::Int(rid++), Value::Int(k),
                                     Value::Int(k * 10 + i)})
                      .ok());
    }
  }
  ASSERT_TRUE(catalog->CreateTable(SchemaBuilder("joined")
                                       .AddColumn("id", ValueType::kInt64,
                                                  false)
                                       .AddColumn("rid", ValueType::kInt64,
                                                  false)
                                       .AddColumn("k", ValueType::kInt64)
                                       .AddColumn("x", ValueType::kInt64)
                                       .AddColumn("y", ValueType::kInt64)
                                       .SetPrimaryKey({"id", "rid"})
                                       .Build())
                  .ok());
}

MigrationStatement JoinStatement(JoinPolicy policy) {
  MigrationStatement stmt;
  stmt.name = "join_lr";
  stmt.category = MigrationCategory::kManyToMany;
  stmt.input_tables = {"left", "right"};
  stmt.output_tables = {"joined"};
  stmt.left_join_column = "k";
  stmt.right_join_column = "k";
  stmt.join_policy = policy;
  stmt.provenance.AddPassThrough("id", "left", "id");
  stmt.provenance.AddPassThrough("x", "left", "x");
  stmt.provenance.AddPassThrough("k", "left", "k");
  stmt.provenance.AddPassThrough("k", "right", "k");
  stmt.provenance.AddPassThrough("rid", "right", "rid");
  stmt.provenance.AddPassThrough("y", "right", "y");
  stmt.join_transform =
      [](const Tuple& l, const Tuple& r) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{
        TargetRow{0, Tuple{l[0], r[0], l[1], l[2], r[2]}}};
  };
  return stmt;
}

/// The distinct (id, rid) pairs in the joined table.
size_t DistinctJoinedPairs(Catalog* catalog) {
  std::set<std::pair<int64_t, int64_t>> pairs;
  catalog->FindTable("joined")->Scan([&](RowId, const Tuple& row) {
    pairs.emplace(row[0].AsInt(), row[1].AsInt());
    return true;
  });
  return pairs.size();
}

class JoinMigratorTest : public ::testing::TestWithParam<JoinPolicy> {
 protected:
  static constexpr int kKeys = 12;
  static constexpr int kLeftPerKey = 8;
  static constexpr int kRightPerKey = 3;

  void SetUp() override {
    LoadJoinTables(&catalog_, kKeys, kLeftPerKey, kRightPerKey);
  }

  Result<std::unique_ptr<StatementMigrator>> Make(JoinPolicy policy,
                                                  LazyConfig config = {}) {
    return MakeStatementMigrator(&catalog_, &txns_, JoinStatement(policy),
                                 config);
  }

  uint64_t CountJoined() {
    return catalog_.FindTable("joined")->NumLiveRows();
  }

  static constexpr uint64_t kExpectedTotal =
      static_cast<uint64_t>(kKeys) * kLeftPerKey * kRightPerKey;

  void DrainBackground(StatementMigrator* m) {
    bool done = false;
    int safety = 100000;
    while (!done && --safety > 0) {
      ASSERT_TRUE(m->MigrateBackgroundChunk(16, &done).ok());
    }
    ASSERT_TRUE(done);
  }

  Catalog catalog_;
  TransactionManager txns_;
};

TEST_P(JoinMigratorTest, PredicateOnLeftSourcedColumnMigratesItsKeyClass) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  // A point query on id=0 (left pk). For the hash policy, the whole
  // join-key class of that row moves; bitmap policies move at least the
  // covering granule's joined pairs. In every case the query's own pairs
  // are present.
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("id"), LitInt(0))).ok());
  Table* joined = catalog_.FindTable("joined");
  auto rows = CollectWhere(*joined, Eq(Col("id"), LitInt(0)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kRightPerKey));
}

TEST_P(JoinMigratorTest, JoinKeyPredicateMigratesFullClass) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("k"), LitInt(5))).ok());
  Table* joined = catalog_.FindTable("joined");
  auto rows = CollectWhere(*joined, Eq(Col("k"), LitInt(5)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(),
            static_cast<size_t>(kLeftPerKey * kRightPerKey));
}

TEST_P(JoinMigratorTest, BackgroundCompletesWithFullJoinResult) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("k"), LitInt(0))).ok());
  DrainBackground(m->get());
  EXPECT_TRUE((*m)->IsComplete());
  EXPECT_EQ(CountJoined(), kExpectedTotal);
}

TEST_P(JoinMigratorTest, ConcurrentRequestsProduceExactJoin) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int w = 0; w < 6; ++w) {
    threads.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        Status s = (*m)->MigrateForPredicate(Eq(Col("k"), LitInt(k)));
        if (!s.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(CountJoined(), kExpectedTotal);
  // Verify the actual pair set, not just the count.
  EXPECT_EQ(DistinctJoinedPairs(&catalog_), kExpectedTotal);
}

TEST_P(JoinMigratorTest, RightSourcedPredicateNarrowsThroughJoinKey) {
  auto m = Make(GetParam());
  ASSERT_TRUE(m.ok());
  // y is right-sourced; rows with y = 70 belong to key 7 only. Whatever
  // the tracking policy, the pairs the request needs (every left row of
  // key 7 joined with the y=70 right row) must be present afterwards.
  ASSERT_TRUE((*m)->MigrateForPredicate(Eq(Col("y"), LitInt(70))).ok());
  Table* joined = catalog_.FindTable("joined");
  auto rows = CollectWhere(*joined, Eq(Col("y"), LitInt(70)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<size_t>(kLeftPerKey));
  // The hash policy migrates exactly the key-7 class and nothing else.
  if (GetParam() == JoinPolicy::kHashJoinKey) {
    auto cls = CollectWhere(*joined, Eq(Col("k"), LitInt(7)));
    ASSERT_TRUE(cls.ok());
    EXPECT_EQ(cls->size(), static_cast<size_t>(kLeftPerKey * kRightPerKey));
    auto others = CollectWhere(*joined, Ne(Col("k"), LitInt(7)));
    ASSERT_TRUE(others.ok());
    EXPECT_TRUE(others->empty());
  }
}

TEST_P(JoinMigratorTest, AbortMidTransactionResetsEveryClaimedUnit) {
  // The first migration transaction covers several units (a class reads
  // 8 left rows, a granule one row, against a 32-row budget). Fail it on
  // its 49th joined pair: past its first units, inside a later one.
  MigrationStatement stmt = JoinStatement(GetParam());
  auto transform = stmt.join_transform;
  bool fail = true;
  int calls = 0;
  std::set<int64_t> failed_classes;  // Join keys the failed txn touched.
  stmt.join_transform = [&](const Tuple& l,
                            const Tuple& r) -> Result<std::vector<TargetRow>> {
    if (fail) {
      failed_classes.insert(l[1].AsInt());
      if (++calls == 49) return Status::Internal("injected transform failure");
    }
    return transform(l, r);
  };
  LazyConfig config;
  config.skip_timeout_ms = 2000;  // A leaked claim times the re-run out.
  auto m = MakeStatementMigrator(&catalog_, &txns_, stmt, config);
  ASSERT_TRUE(m.ok());
  const ExprPtr all = Ge(Col("k"), LitInt(0));
  EXPECT_EQ((*m)->MigrateForPredicate(all).code(), StatusCode::kInternal);

  // The abort rolled back every output row and marked no unit migrated.
  EXPECT_EQ(CountJoined(), 0u);
  EXPECT_EQ((*m)->tracker()->MigratedCount(), 0u);
  EXPECT_EQ((*m)->stats().txn_aborts.load(), 1u);
  if (GetParam() == JoinPolicy::kHashJoinKey) {
    auto* tracker = static_cast<HashTracker*>((*m)->tracker());
    EXPECT_GT(failed_classes.size(), 1u);
    for (int64_t k : failed_classes) {
      EXPECT_EQ(tracker->GetState(Tuple{Value::Int(k)}), GroupState::kAborted)
          << "class " << k;
    }
  }

  // Every claim was reset: a second pass takes each unit over without a
  // SKIP, and every tuple arrives exactly once.
  fail = false;
  ASSERT_TRUE((*m)->MigrateForPredicate(all).ok());
  EXPECT_EQ((*m)->stats().skip_encounters.load(), 0u);
  EXPECT_EQ(CountJoined(), kExpectedTotal);
  EXPECT_EQ(DistinctJoinedPairs(&catalog_), kExpectedTotal);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, JoinMigratorTest,
    ::testing::Values(JoinPolicy::kHashJoinKey,
                      JoinPolicy::kTrackForeignSideOnly,
                      JoinPolicy::kMigrateAllSiblings),
    [](const auto& info) {
      switch (info.param) {
        case JoinPolicy::kHashJoinKey:
          return "HashJoinKey";
        case JoinPolicy::kTrackForeignSideOnly:
          return "TrackForeignSide";
        case JoinPolicy::kMigrateAllSiblings:
          return "MigrateAllSiblings";
      }
      return "Unknown";
    });

// A class of kRowsPerMigrationTxn left rows fills a migration
// transaction's budget, so it commits before the next class is claimed. A
// request blocked inside its second class holds no claim on its first.
TEST(JoinBoundedClaimTest, ClassCommitsBeforeTheNextIsClaimed) {
  Catalog catalog;
  TransactionManager txns;
  const int per_class =
      static_cast<int>(StatementMigrator::kRowsPerMigrationTxn);
  LoadJoinTables(&catalog, /*keys=*/2, per_class, /*right_per_key=*/1);
  MigrationStatement stmt = JoinStatement(JoinPolicy::kHashJoinKey);
  auto transform = stmt.join_transform;
  std::atomic<int64_t> first_class{-1};
  std::atomic<bool> blocked_once{false};
  std::promise<void> blocked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  stmt.join_transform = [&](const Tuple& l,
                            const Tuple& r) -> Result<std::vector<TargetRow>> {
    int64_t first = -1;
    if (!first_class.compare_exchange_strong(first, l[1].AsInt()) &&
        first != l[1].AsInt() && !blocked_once.exchange(true)) {
      blocked.set_value();
      released.wait();
    }
    return transform(l, r);
  };
  LazyConfig config;
  config.skip_timeout_ms = 2000;  // An old-style batch claim times B out.
  auto m = MakeStatementMigrator(&catalog, &txns, stmt, config);
  ASSERT_TRUE(m.ok());

  Status a = Status::OK();
  std::thread request_a(
      [&] { a = (*m)->MigrateForPredicate(Lt(Col("k"), LitInt(2))); });
  const bool reached = blocked.get_future().wait_for(std::chrono::seconds(
                           10)) == std::future_status::ready;
  bool first_migrated = false;
  Status b = Status::OK();
  if (reached) {
    const int64_t k = first_class.load();
    first_migrated = static_cast<HashTracker*>((*m)->tracker())
                         ->IsMigrated(Tuple{Value::Int(k)});
    b = (*m)->MigrateForPredicate(Eq(Col("k"), LitInt(k)));
  }
  release.set_value();
  request_a.join();

  ASSERT_TRUE(reached) << "request A never reached its second class";
  EXPECT_TRUE(first_migrated);
  EXPECT_TRUE(b.ok()) << b.ToString();
  EXPECT_EQ((*m)->stats().skip_encounters.load(), 0u);
  EXPECT_EQ((*m)->stats().skip_wait_loops.load(), 0u);
  EXPECT_TRUE(a.ok()) << a.ToString();
  EXPECT_EQ(catalog.FindTable("joined")->NumLiveRows(),
            static_cast<uint64_t>(2 * per_class));
}

// The background sweep keeps a chunk in one transaction while nobody
// waits on the statement. Once a request SKIP-waits, it commits at the end
// of the unit it is migrating, so the waiter is not held for the chunk.
TEST(JoinBoundedClaimTest, BackgroundChunkCommitsEarlyOnlyForAWaiter) {
  Catalog catalog;
  TransactionManager txns;
  const int per_class =
      static_cast<int>(StatementMigrator::kRowsPerMigrationTxn);
  LoadJoinTables(&catalog, /*keys=*/3, per_class, /*right_per_key=*/1);
  MigrationStatement stmt = JoinStatement(JoinPolicy::kHashJoinKey);
  auto transform = stmt.join_transform;
  std::mutex mu;
  std::vector<int64_t> classes;  // In the order the sweep reaches them.
  std::promise<void> at_second, at_third, go_second, go_third;
  std::shared_future<void> second_released = go_second.get_future().share();
  std::shared_future<void> third_released = go_third.get_future().share();
  stmt.join_transform = [&](const Tuple& l,
                            const Tuple& r) -> Result<std::vector<TargetRow>> {
    size_t reached = 0;  // 2 or 3 on the first row of that class.
    {
      std::lock_guard lock(mu);
      if (std::find(classes.begin(), classes.end(), l[1].AsInt()) ==
          classes.end()) {
        classes.push_back(l[1].AsInt());
        reached = classes.size();
      }
    }
    if (reached == 2) {
      at_second.set_value();
      second_released.wait();
    } else if (reached == 3) {
      at_third.set_value();
      third_released.wait();
    }
    return transform(l, r);
  };
  LazyConfig config;
  config.skip_timeout_ms = 2000;  // A chunk-long claim times B out.
  auto m = MakeStatementMigrator(&catalog, &txns, stmt, config);
  ASSERT_TRUE(m.ok());
  auto* tracker = static_cast<HashTracker*>((*m)->tracker());
  const auto wait_ready = [](std::promise<void>& p) {
    return p.get_future().wait_for(std::chrono::seconds(10)) ==
           std::future_status::ready;
  };

  Status chunk = Status::OK();
  std::thread sweep([&] {
    bool done = false;
    chunk = (*m)->MigrateBackgroundChunk(16, &done).status();
  });
  const bool reached_second = wait_ready(at_second);
  bool first_open = false;
  bool b_waited = false;
  Tuple first;
  Status b = Status::OK();
  std::thread request_b;
  if (reached_second) {
    {
      std::lock_guard lock(mu);
      first = Tuple{Value::Int(classes[0])};
    }
    // Nobody has waited yet: the first class is still in the open chunk.
    first_open = !tracker->IsMigrated(first);
    request_b = std::thread([&] {
      b = (*m)->MigrateForPredicate(Eq(Col("k"), LitInt(first[0].AsInt())));
    });
    for (int i = 0;
         i < 100000 && (*m)->stats().skip_wait_loops.load() == 0; ++i) {
      Clock::SleepMicros(100);
    }
    b_waited = (*m)->stats().skip_wait_loops.load() > 0;
  }
  go_second.set_value();
  const bool reached_third = reached_second && wait_ready(at_third);
  const bool first_committed = reached_third && tracker->IsMigrated(first);
  if (request_b.joinable()) request_b.join();
  go_third.set_value();
  sweep.join();

  ASSERT_TRUE(reached_second) << "the sweep never reached its second class";
  EXPECT_TRUE(first_open);
  EXPECT_TRUE(b_waited);
  ASSERT_TRUE(reached_third) << "the sweep never reached its third class";
  EXPECT_TRUE(first_committed);
  EXPECT_TRUE(b.ok()) << b.ToString();
  EXPECT_TRUE(chunk.ok()) << chunk.ToString();
  EXPECT_EQ(catalog.FindTable("joined")->NumLiveRows(),
            static_cast<uint64_t>(3 * per_class));
}

TEST(JoinMigratorValidationTest, RequiresTwoInputs) {
  Catalog catalog;
  TransactionManager txns;
  MigrationStatement stmt;
  stmt.name = "bad";
  stmt.input_tables = {"only_one"};
  stmt.output_tables = {"out"};
  stmt.join_transform = [](const Tuple&,
                           const Tuple&) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{};
  };
  EXPECT_FALSE(MakeStatementMigrator(&catalog, &txns, stmt, {}).ok());
}

TEST(JoinMigratorValidationTest, MigrateJoinKeyRequiresHashPolicy) {
  Catalog catalog;
  TransactionManager txns;
  // Minimal two tables.
  ASSERT_TRUE(catalog.CreateTable(SchemaBuilder("l")
                                      .AddColumn("k", ValueType::kInt64)
                                      .Build())
                  .ok());
  ASSERT_TRUE(catalog.CreateTable(SchemaBuilder("r")
                                      .AddColumn("k", ValueType::kInt64)
                                      .Build())
                  .ok());
  ASSERT_TRUE(catalog.CreateTable(SchemaBuilder("o")
                                      .AddColumn("k", ValueType::kInt64)
                                      .Build())
                  .ok());
  MigrationStatement stmt;
  stmt.name = "j";
  stmt.input_tables = {"l", "r"};
  stmt.output_tables = {"o"};
  stmt.left_join_column = "k";
  stmt.right_join_column = "k";
  stmt.join_policy = JoinPolicy::kTrackForeignSideOnly;
  stmt.join_transform = [](const Tuple& l,
                           const Tuple&) -> Result<std::vector<TargetRow>> {
    return std::vector<TargetRow>{TargetRow{0, l}};
  };
  auto m = MakeStatementMigrator(&catalog, &txns, stmt, {});
  ASSERT_TRUE(m.ok());
  auto* join = static_cast<JoinMigrator*>(m->get());
  EXPECT_EQ(join->MigrateJoinKey(Value::Int(1)).code(),
            StatusCode::kUnsupported);
}

}  // namespace
}  // namespace bullfrog
