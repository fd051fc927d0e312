#include <algorithm>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "sql/engine.h"

namespace bullfrog::sql {
namespace {

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<SqlEngine>(&db_);
    Exec("CREATE TABLE users (id INT PRIMARY KEY, name TEXT, age INT)");
    Exec("INSERT INTO users VALUES (1, 'ada', 36), (2, 'bob', 41), "
         "(3, 'cyd', 28)");
  }

  SqlEngine::QueryResult Exec(const std::string& sql) {
    auto result = engine_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : SqlEngine::QueryResult{};
  }

  Database db_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(SqlEngineTest, SelectStar) {
  auto r = Exec("SELECT * FROM users");
  EXPECT_EQ(r.columns,
            (std::vector<std::string>{"id", "name", "age"}));
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(SqlEngineTest, SelectWithPredicateAndProjection) {
  auto r = Exec("SELECT name FROM users WHERE age > 30");
  EXPECT_EQ(r.columns, std::vector<std::string>{"name"});
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlEngineTest, SelectExpressionItems) {
  auto r = Exec("SELECT id, age * 2 AS dbl FROM users WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 72);
}

TEST_F(SqlEngineTest, SelectQualifiedColumns) {
  auto r = Exec("SELECT users.name FROM users WHERE users.id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "bob");
}

TEST_F(SqlEngineTest, WholeSetAggregates) {
  auto r = Exec(
      "SELECT COUNT(*) AS n, SUM(age) AS total, AVG(age) AS mean, "
      "MIN(age) AS lo, MAX(age) AS hi FROM users");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 105.0);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 35.0);
  EXPECT_EQ(r.rows[0][3].AsInt(), 28);
  EXPECT_EQ(r.rows[0][4].AsInt(), 41);
}

TEST_F(SqlEngineTest, InsertUpdateDelete) {
  auto ins = Exec("INSERT INTO users (id, name, age) VALUES (4, 'dee', 50)");
  EXPECT_EQ(ins.affected, 1u);
  auto up = Exec("UPDATE users SET age = age + 1 WHERE name = 'dee'");
  EXPECT_EQ(up.affected, 1u);
  auto sel = Exec("SELECT age FROM users WHERE id = 4");
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(sel.rows[0][0].AsInt(), 51);
  auto del = Exec("DELETE FROM users WHERE id = 4");
  EXPECT_EQ(del.affected, 1u);
  EXPECT_EQ(Exec("SELECT * FROM users").rows.size(), 3u);
}

TEST_F(SqlEngineTest, InsertPartialColumnsNullRest) {
  Exec("CREATE TABLE partial (a INT PRIMARY KEY, b TEXT, c INT)");
  Exec("INSERT INTO partial (a) VALUES (1)");
  auto r = Exec("SELECT * FROM partial");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(SqlEngineTest, DuplicatePkRejected) {
  auto r = engine_->Execute("INSERT INTO users VALUES (1, 'dup', 1)");
  EXPECT_TRUE(r.status().IsAlreadyExists());
  // The failed autocommit statement must not leave partial state.
  EXPECT_EQ(Exec("SELECT * FROM users").rows.size(), 3u);
}

TEST_F(SqlEngineTest, MultiRowInsertIsAtomic) {
  auto r = engine_->Execute(
      "INSERT INTO users VALUES (10, 'x', 1), (1, 'dup', 2)");
  EXPECT_FALSE(r.ok());
  // Row 10 was rolled back with the failing statement.
  EXPECT_EQ(Exec("SELECT * FROM users WHERE id = 10").rows.size(), 0u);
}

TEST_F(SqlEngineTest, ExplicitTransactionCommitAndRollback) {
  Exec("BEGIN");
  Exec("INSERT INTO users VALUES (5, 'eve', 30)");
  Exec("COMMIT");
  EXPECT_EQ(Exec("SELECT * FROM users WHERE id = 5").rows.size(), 1u);

  Exec("BEGIN");
  Exec("INSERT INTO users VALUES (6, 'fay', 31)");
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT * FROM users WHERE id = 6").rows.size(), 0u);
}

// Renders rows as "id:name:age" strings, sorted so a comparison does not
// depend on scan order.
std::vector<std::string> Render(const SqlEngine::QueryResult& r) {
  std::vector<std::string> out;
  for (const Tuple& row : r.rows) {
    out.push_back(row[0].ToString() + ":" + row[1].AsString() + ":" +
                  row[2].ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A plain SELECT reads a snapshot of committed rows: another session's
// uncommitted UPDATE, INSERT and DELETE stay invisible, a rollback leaves
// no trace, and a commit makes all three visible together.
TEST_F(SqlEngineTest, OtherSessionSeesOnlyCommittedWrites) {
  SqlEngine other(&db_);
  auto other_sees = [&] {
    auto r = other.Execute("SELECT * FROM users");
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? Render(*r) : std::vector<std::string>{};
  };
  const std::vector<std::string> original = {"1:ada:36", "2:bob:41",
                                             "3:cyd:28"};
  auto write_all = [&] {
    Exec("BEGIN");
    Exec("UPDATE users SET age = 99 WHERE id = 1");
    Exec("INSERT INTO users VALUES (4, 'dee', 50)");
    Exec("DELETE FROM users WHERE id = 3");
  };

  write_all();
  EXPECT_EQ(other_sees(), original);
  Exec("ROLLBACK");
  EXPECT_EQ(other_sees(), original);

  write_all();
  EXPECT_EQ(other_sees(), original);
  Exec("COMMIT");
  EXPECT_EQ(other_sees(),
            (std::vector<std::string>{"1:ada:99", "2:bob:41", "4:dee:50"}));
}

TEST_F(SqlEngineTest, TransactionStateErrors) {
  EXPECT_FALSE(engine_->Execute("COMMIT").ok());
  EXPECT_FALSE(engine_->Execute("ROLLBACK").ok());
  Exec("BEGIN");
  EXPECT_FALSE(engine_->Execute("BEGIN").ok());
  Exec("ROLLBACK");
}

TEST_F(SqlEngineTest, CreateIndexViaSql) {
  auto r = engine_->Execute("CREATE INDEX users_by_name ON users (name)");
  EXPECT_TRUE(r.ok());
  EXPECT_NE(db_.catalog().FindTable("users")->FindIndex("users_by_name"),
            nullptr);
}

TEST_F(SqlEngineTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(engine_->Execute("SELECT * FROM missing").ok());
  EXPECT_FALSE(engine_->Execute("SELECT bogus FROM users").ok());
  EXPECT_FALSE(engine_->Execute("INSERT INTO users VALUES (id, 'x', 1)").ok());
  EXPECT_FALSE(
      engine_->Execute("SELECT nope.name FROM users").ok());
}

/// End-to-end migrations written in the paper's SQL DDL.
class SqlMigrationTest : public SqlEngineTest {
 protected:
  MigrationController::SubmitOptions LazyOpts(bool background = true) {
    MigrationController::SubmitOptions opts;
    opts.strategy = MigrationStrategy::kLazy;
    opts.enable_background = background;
    opts.lazy.background_start_delay_ms = 20;
    opts.lazy.background_pause_us = 0;
    return opts;
  }

  void WaitComplete() {
    Stopwatch sw;
    while (!db_.controller().IsComplete() && sw.ElapsedMillis() < 10000) {
      Clock::SleepMillis(5);
    }
    ASSERT_TRUE(db_.controller().IsComplete());
  }
};

TEST_F(SqlMigrationTest, ProjectionMigration) {
  // Add a derived column + drop a column, in one step.
  Status s = engine_->SubmitMigrationScript(
      "CREATE TABLE users_v2 PRIMARY KEY (id) AS "
      "  SELECT id, age, age / 2 AS half_age FROM users; "
      "DROP TABLE users;",
      LazyOpts());
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Old schema rejected, new queryable immediately.
  EXPECT_FALSE(engine_->Execute("SELECT * FROM users").ok());
  auto r = Exec("SELECT half_age FROM users_v2 WHERE id = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 20.5);
  WaitComplete();
  EXPECT_EQ(Exec("SELECT * FROM users_v2").rows.size(), 3u);
}

TEST_F(SqlMigrationTest, FilteredMigrationDropsNonMatching) {
  Status s = engine_->SubmitMigrationScript(
      "CREATE TABLE adults PRIMARY KEY (id) AS "
      "  SELECT id, name FROM users WHERE age >= 30; "
      "DROP TABLE users;",
      LazyOpts());
  ASSERT_TRUE(s.ok()) << s.ToString();
  WaitComplete();
  EXPECT_EQ(Exec("SELECT * FROM adults").rows.size(), 2u);
}

TEST_F(SqlMigrationTest, AggregateMigration) {
  Exec("CREATE TABLE sales (region TEXT, amount DOUBLE)");
  Exec("INSERT INTO sales VALUES ('east', 10.0), ('east', 5.0), "
       "('west', 2.0)");
  Status s = engine_->SubmitMigrationScript(
      "CREATE TABLE region_totals PRIMARY KEY (region) AS "
      "  SELECT region, SUM(amount) AS total, COUNT(*) AS n "
      "  FROM sales GROUP BY region;",
      LazyOpts(false));
  ASSERT_TRUE(s.ok()) << s.ToString();
  // Lazy: the 'east' group migrates on first touch.
  auto r = Exec("SELECT total, n FROM region_totals WHERE region = 'east'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 15.0);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  // sales stays active (not dropped): additive evolution like §4.2.
  EXPECT_TRUE(engine_->Execute("SELECT * FROM sales").ok());
}

TEST_F(SqlMigrationTest, JoinMigrationFlightExample) {
  // The paper's §2.1 example, almost verbatim.
  Exec("CREATE TABLE flights (flightid CHAR(6) PRIMARY KEY, source CHAR(3),"
       " dest CHAR(3), departure_time TIMESTAMP, arrival_time TIMESTAMP,"
       " capacity INT)");
  Exec("CREATE TABLE flewon (flightid CHAR(6), flightdate INT,"
       " passenger_count INT)");
  Exec("CREATE INDEX flewon_flightid_idx ON flewon (flightid)");
  Exec("INSERT INTO flights VALUES ('AA101', 'JFK', 'LAX', 1, 2, 180),"
       " ('AA102', 'JFK', 'SFO', 3, 4, 150)");
  Exec("INSERT INTO flewon VALUES ('AA101', 9, 170), ('AA101', 10, 20),"
       " ('AA102', 9, 150)");

  Status s = engine_->SubmitMigrationScript(
      "CREATE TABLE flewoninfo PRIMARY KEY (fid, flightdate) AS ("
      "  SELECT f.flightid AS fid, flightdate, passenger_count,"
      "         capacity - passenger_count AS empty_seats,"
      "         departure_time AS expected_departure_time,"
      "         CAST(NULL AS TIMESTAMP) AS actual_departure_time,"
      "         arrival_time AS expected_arrival_time,"
      "         CAST(NULL AS TIMESTAMP) AS actual_arrival_time"
      "  FROM flights f, flewon fi"
      "  WHERE f.flightid = fi.flightid);"
      "DROP TABLE flights; DROP TABLE flewon;",
      LazyOpts(false));
  ASSERT_TRUE(s.ok()) << s.ToString();

  // The paper's client request: only AA101's tuples migrate.
  auto r = Exec(
      "SELECT * FROM flewoninfo WHERE fid = 'AA101' AND flightdate = 9");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][2].AsInt(), 170);   // passenger_count.
  EXPECT_EQ(r.rows[0][3].AsInt(), 10);    // empty_seats = 180 - 170.
  EXPECT_TRUE(r.rows[0][5].is_null());    // actual_departure_time.
  EXPECT_EQ(db_.catalog().FindTable("flewoninfo")->NumLiveRows(), 2u)
      << "only the AA101 join-key class should have migrated";

  // Backwards-incompatible write: zero passengers is now legal.
  Exec("INSERT INTO flewoninfo VALUES ('AA102', 11, 0, 150, 3, NULL, 4, "
       "NULL)");
  auto cargo = Exec(
      "SELECT passenger_count FROM flewoninfo WHERE flightdate = 11");
  ASSERT_EQ(cargo.rows.size(), 1u);
  EXPECT_EQ(cargo.rows[0][0].AsInt(), 0);
}

TEST_F(SqlMigrationTest, CompilerErrors) {
  auto opts = LazyOpts(false);
  // Plain DML is not migration DDL.
  EXPECT_FALSE(engine_->SubmitMigrationScript(
                          "INSERT INTO users VALUES (9, 'x', 1);", opts)
                   .ok());
  // NULL literal without CAST.
  EXPECT_FALSE(engine_->SubmitMigrationScript(
                          "CREATE TABLE u2 PRIMARY KEY (id) AS SELECT id, "
                          "NULL AS mystery FROM users;",
                          opts)
                   .ok());
  // Join without a join condition.
  EXPECT_FALSE(
      engine_->SubmitMigrationScript(
                  "CREATE TABLE x AS SELECT users.id FROM users, users;",
                  opts)
          .ok());
  // Aggregate without GROUP BY.
  EXPECT_FALSE(engine_->SubmitMigrationScript(
                          "CREATE TABLE t AS SELECT SUM(age) AS s FROM "
                          "users;",
                          opts)
                   .ok());
  // Non-group column in an aggregate select.
  EXPECT_FALSE(engine_->SubmitMigrationScript(
                          "CREATE TABLE t AS SELECT name, SUM(age) AS s "
                          "FROM users GROUP BY age;",
                          opts)
                   .ok());
}

// Error paths the network server leans on: every malformed input must
// come back as a clean non-OK Status (never a crash), and the engine
// session must remain usable for the next statement.
TEST_F(SqlEngineTest, MalformedStatementsFailCleanly) {
  const char* bad[] = {
      "",
      "   ",
      "SELEKT * FROM users",
      "SELECT FROM users",
      "SELECT * FROM",
      "INSERT INTO users",
      "INSERT INTO users VALUES (1, 'x'",
      "UPDATE users SET",
      "DELETE users WHERE id = 1",
      "CREATE TABLE (id INT PRIMARY KEY)",
      "SELECT * FROM users WHERE",
      "SELECT * FROM users; SELECT * FROM users",
  };
  for (const char* sql : bad) {
    auto r = engine_->Execute(sql);
    EXPECT_FALSE(r.ok()) << "'" << sql << "' unexpectedly succeeded";
    EXPECT_FALSE(r.status().message().empty()) << sql;
  }
  // Session still fully usable afterwards.
  auto r = Exec("SELECT COUNT(*) AS n FROM users");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
}

TEST_F(SqlEngineTest, UnknownTableAndColumnFailCleanly) {
  EXPECT_TRUE(engine_->Execute("SELECT * FROM ghosts").status().IsNotFound());
  EXPECT_TRUE(
      engine_->Execute("INSERT INTO ghosts VALUES (1)").status().IsNotFound());
  EXPECT_FALSE(engine_->Execute("SELECT haunted FROM users").ok());
  EXPECT_FALSE(
      engine_->Execute("UPDATE users SET haunted = 1 WHERE id = 1").ok());
  Exec("SELECT * FROM users");  // Session survives.
}

TEST_F(SqlEngineTest, DroppedTableQueriesFailCleanly) {
  MigrationController::SubmitOptions opts;
  opts.strategy = MigrationStrategy::kEager;
  ASSERT_TRUE(engine_
                  ->SubmitMigrationScript(
                      "CREATE TABLE users2 PRIMARY KEY (id) AS "
                      "SELECT id, name, age FROM users;\n"
                      "DROP TABLE users;",
                      opts)
                  .ok());
  // The retired table is gone from the logical schema immediately.
  auto r = engine_->Execute("SELECT * FROM users");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(engine_->Execute("INSERT INTO users VALUES (9, 'x', 1)").ok());
  // The new table works on the same session.
  Stopwatch waited;
  while (db_.controller().Progress() < 1.0) {
    ASSERT_LT(waited.ElapsedSeconds(), 30.0);
    Clock::SleepMillis(5);
  }
  auto ok = Exec("SELECT COUNT(*) AS n FROM users2");
  EXPECT_EQ(ok.rows[0][0].AsInt(), 3);
}

TEST_F(SqlEngineTest, OversizedStringValuesRejected) {
  const std::string big(SqlEngine::kMaxStringValueBytes + 1, 'x');
  auto ins = engine_->Execute("INSERT INTO users VALUES (9, '" + big + "', 1)");
  EXPECT_EQ(ins.status().code(), StatusCode::kInvalidArgument)
      << ins.status();
  auto upd =
      engine_->Execute("UPDATE users SET name = '" + big + "' WHERE id = 1");
  EXPECT_EQ(upd.status().code(), StatusCode::kInvalidArgument)
      << upd.status();
  // Nothing was applied and the session still works.
  auto r = Exec("SELECT COUNT(*) AS n FROM users");
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  auto name = Exec("SELECT name FROM users WHERE id = 1");
  EXPECT_EQ(name.rows[0][0].AsString(), "ada");
  // A string exactly at the cap is accepted.
  const std::string fits(SqlEngine::kMaxStringValueBytes, 'y');
  auto ok = engine_->Execute("INSERT INTO users VALUES (9, '" + fits + "', 1)");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

}  // namespace
}  // namespace bullfrog::sql
