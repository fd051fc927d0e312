#include "shard/coordinator.h"

#include <sstream>
#include <thread>

#include "shard/partition.h"
#include "sql/engine.h"
#include "sql/migration_compiler.h"
#include "sql/parser.h"

namespace bullfrog::shard {

Status MigrationCoordinator::Admit() {
  RefreshState();  // A drained kDraining must admit the next migration.
  std::lock_guard lock(mu_);
  if (state_ == State::kSubmitting) {
    return Status::Busy("a coordinated migration submit is in flight");
  }
  // kDraining no longer refuses: each shard's controller runs a migration
  // train, so a new submit over disjoint tables starts concurrently and
  // an overlapping one queues per shard (reported as kQueued). Locally
  // submitted shard migrations train the same way.
  state_ = State::kSubmitting;
  return Status::OK();
}

Status MigrationCoordinator::FanOut(
    const std::function<Status(size_t)>& submit_one) {
  // Fan the submit out to every shard in parallel: each shard performs
  // its own logical switch and starts its own lazy/background machinery.
  // Eager submits block until that shard's copy is done, so the parallel
  // fan-out is also what makes eager sharded migration N-way parallel.
  std::vector<Status> results(shards_.size(), Status::OK());
  {
    std::vector<std::thread> workers;
    workers.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      workers.emplace_back([&, i] { results[i] = submit_one(i); });
    }
    for (auto& w : workers) w.join();
  }

  Status first_error = Status::OK();
  Status first_queued = Status::OK();
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].IsQueued()) {
      // Parked behind an overlapping migration on that shard — accepted,
      // it auto-starts when the predecessor completes.
      if (first_queued.ok()) {
        first_queued = Status::Queued("shard " + std::to_string(i) + ": " +
                                      results[i].message());
      }
      continue;
    }
    if (!results[i].ok() && first_error.ok()) {
      // Keep the shard's code: a racing submit must still read as kBusy.
      first_error = Status(results[i].code(),
                           "shard " + std::to_string(i) +
                               " rejected the migration: " +
                               results[i].message());
    }
  }

  std::lock_guard lock(mu_);
  if (!first_error.ok()) {
    // Shards that accepted keep draining their local migration — the data
    // stays consistent per shard — but the coordinated migration is
    // failed: partial logical switches are surfaced loudly, not hidden.
    state_ = State::kFailed;
    return first_error;
  }
  state_ = State::kDraining;
  // Every shard accepted; kQueued (from the first queued shard) tells the
  // caller the train parked the entry rather than switching immediately.
  return first_queued;
}

Status MigrationCoordinator::Submit(
    const std::string& script,
    const MigrationController::SubmitOptions& options) {
  BF_RETURN_NOT_OK(Admit());

  Status valid = ValidatePartitionPreservation(script);
  // NotFound: an input table does not exist *yet* — the script chains
  // onto a train entry that creates it, so it will queue per shard and
  // validation re-runs inside the deferred compile factory at start time.
  if (!valid.ok() && !valid.IsNotFound()) {
    std::lock_guard lock(mu_);
    state_ = State::kIdle;  // Nothing was submitted anywhere.
    return valid;
  }

  // Each shard re-compiles the script against its own catalog (shard
  // catalogs are identical by construction — every DDL goes through all
  // of them). Compilation is deferred into the factory so an overlapping
  // script can queue before its input tables exist; partition-key
  // preservation is re-proven on the compiled plan when the entry starts
  // (a violation fails the auto-start and lands in the shard's
  // train_error report).
  const std::string sql = script;
  return FanOut([&](size_t i) {
    Database* db = shards_[i];
    auto stmts = sql::ParseSqlScript(sql);
    if (!stmts.ok()) return stmts.status();
    auto footprint = sql::MigrationScriptFootprint(*stmts);
    if (!footprint.ok()) return footprint.status();
    return db->controller().SubmitScript(
        std::move(footprint->name), sql, std::move(footprint->tables),
        [this, db, sql]() -> Result<MigrationPlan> {
          BF_ASSIGN_OR_RETURN(std::vector<sql::Statement> parsed,
                              sql::ParseSqlScript(sql));
          BF_ASSIGN_OR_RETURN(MigrationPlan plan,
                              sql::CompileMigration(parsed, &db->catalog()));
          BF_RETURN_NOT_OK(ValidatePlan(plan));
          plan.source_script = sql;
          return plan;
        },
        options);
  });
}

Status MigrationCoordinator::Submit(
    const std::function<MigrationPlan()>& plan_factory,
    const MigrationController::SubmitOptions& options) {
  BF_RETURN_NOT_OK(Admit());

  Status valid = ValidatePlan(plan_factory());
  if (!valid.ok()) {
    std::lock_guard lock(mu_);
    state_ = State::kIdle;  // Nothing was submitted anywhere.
    return valid;
  }

  return FanOut([&](size_t i) {
    return shards_[i]->SubmitMigration(plan_factory(), options);
  });
}

void MigrationCoordinator::RefreshState() const {
  std::lock_guard lock(mu_);
  if (state_ != State::kDraining) return;
  for (Database* db : shards_) {
    if (!db->controller().IsComplete()) return;
  }
  state_ = State::kComplete;
}

bool MigrationCoordinator::HasActiveMigration() const {
  RefreshState();
  std::lock_guard lock(mu_);
  return state_ == State::kSubmitting || state_ == State::kDraining;
}

bool MigrationCoordinator::IsComplete() const {
  return !HasActiveMigration();
}

double MigrationCoordinator::Progress() const {
  RefreshState();
  {
    std::lock_guard lock(mu_);
    if (state_ == State::kIdle || state_ == State::kComplete) return 1.0;
  }
  double sum = 0.0;
  for (Database* db : shards_) sum += db->controller().Progress();
  return shards_.empty() ? 1.0 : sum / static_cast<double>(shards_.size());
}

uint64_t MigrationCoordinator::TotalUnitsMigrated() const {
  uint64_t total = 0;
  for (Database* db : shards_) {
    for (StatementMigrator* m : db->controller().migrators()) {
      total += m->stats().units_migrated.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::vector<MigrationCoordinator::ShardProgress>
MigrationCoordinator::PerShard() const {
  std::vector<ShardProgress> out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const MigrationController& c = shards_[i]->controller();
    ShardProgress p;
    p.shard = i;
    p.progress = c.Progress();
    p.complete = c.IsComplete();
    p.active_migrations = c.ActiveMigrations();
    p.queued_migrations = c.QueuedMigrations();
    p.complete_s = c.timeline().complete_s;
    for (StatementMigrator* m : c.migrators()) {
      const MigrationStats& s = m->stats();
      p.units_migrated += s.units_migrated.load(std::memory_order_relaxed);
      p.units_lazy += s.units_lazy.load(std::memory_order_relaxed);
      p.units_background += s.units_background.load(std::memory_order_relaxed);
      p.units_forced += s.units_forced.load(std::memory_order_relaxed);
      p.rows_migrated += s.rows_migrated.load(std::memory_order_relaxed);
    }
    out.push_back(p);
  }
  return out;
}

MigrationCoordinator::State MigrationCoordinator::state() const {
  RefreshState();
  std::lock_guard lock(mu_);
  return state_;
}

std::string_view MigrationCoordinator::StateName(State s) {
  switch (s) {
    case State::kIdle: return "idle";
    case State::kSubmitting: return "submitting";
    case State::kDraining: return "draining";
    case State::kComplete: return "complete";
    case State::kFailed: return "failed";
  }
  return "?";
}

std::string MigrationCoordinator::StatusReport() const {
  const State s = state();
  const auto per_shard = PerShard();
  uint64_t total_units = 0;
  for (const auto& p : per_shard) total_units += p.units_migrated;

  std::ostringstream out;
  out << "coordinated migration: state=" << StateName(s)
      << " shards=" << per_shard.size() << " progress=" << Progress()
      << " units_total=" << total_units << "\n";
  for (const auto& p : per_shard) {
    out << "  shard " << p.shard << ": progress=" << p.progress
        << " complete=" << (p.complete ? 1 : 0)
        << " active=" << p.active_migrations
        << " queued=" << p.queued_migrations
        << " units=" << p.units_migrated << " (lazy=" << p.units_lazy
        << " background=" << p.units_background
        << " forced=" << p.units_forced << ") rows=" << p.rows_migrated;
    if (p.complete_s >= 0.0) out << " complete_s=" << p.complete_s;
    out << "\n";
  }
  return out.str();
}

Status MigrationCoordinator::ValidatePartitionPreservation(
    const std::string& script) const {
  if (shards_.size() <= 1) return Status::OK();

  auto stmts = sql::ParseSqlScript(script);
  if (!stmts.ok()) return stmts.status();
  // Shard catalogs are identical; compile once against shard 0 to get the
  // plan's provenance (CompileMigration only reads input schemas).
  auto plan = sql::CompileMigration(*stmts, &shards_[0]->catalog());
  if (!plan.ok()) return plan.status();
  return ValidatePlan(*plan);
}

Status MigrationCoordinator::ValidatePlan(const MigrationPlan& plan) const {
  if (shards_.size() <= 1) return Status::OK();

  // Output-table name -> its first-PK-column (the post-migration routing
  // key), from the plan's new-table schemas.
  auto output_partition_column =
      [&](const std::string& table) -> std::optional<std::string> {
    for (const TableSchema& schema : plan.new_tables) {
      if (schema.name() != table) continue;
      if (schema.primary_key().empty()) return std::nullopt;
      return schema.primary_key()[0];
    }
    return std::nullopt;
  };

  for (const MigrationStatement& stmt : plan.statements) {
    // Every input must itself be partitioned by a key (placement of
    // PK-less tables is whole-row hash — no column identifies the shard,
    // so no output can be proven co-located).
    for (const std::string& input : stmt.input_tables) {
      if (!PartitionKeyOf(shards_[0]->catalog(), input)) {
        return Status::Unsupported(
            "sharded migration: input table '" + input +
            "' has no partition key (primary key required)");
      }
    }
    for (const std::string& output : stmt.output_tables) {
      auto out_col = output_partition_column(output);
      // PK-less outputs are always read by fan-out, so their rows may
      // stay wherever their inputs were — nothing to prove.
      if (!out_col) continue;
      for (const std::string& input : stmt.input_tables) {
        auto in_key = PartitionKeyOf(shards_[0]->catalog(), input);
        auto source = stmt.provenance.SourceIn(*out_col, input);
        if (!source || *source != in_key->column) {
          return Status::Unsupported(
              "sharded migration: output '" + output + "' partition column '" +
              *out_col + "' is not a pass-through of input '" + input +
              "' partition column '" + in_key->column +
              "' — rows would change shards, which a shared-nothing "
              "migration cannot do");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace bullfrog::shard
