#include "migration/statement_migrator.h"

#include <algorithm>
#include <unordered_set>

#include "common/clock.h"
#include "query/scan.h"

namespace bullfrog {

namespace {

/// Deduplicating accumulator for candidate unit keys.
class TupleSet {
 public:
  bool Add(const Tuple& t) { return set_.insert(t).second; }
  std::vector<Tuple> Take() {
    return std::vector<Tuple>(set_.begin(), set_.end());
  }
  bool empty() const { return set_.empty(); }

 private:
  std::unordered_set<Tuple, TupleHasher> set_;
};

// The redo-log key of a unit's migration mark.
Tuple MarkKey(uint64_t g) { return Tuple{Value::Int(static_cast<int64_t>(g))}; }
const Tuple& MarkKey(const Tuple& key) { return key; }

}  // namespace

StatementMigrator::StatementMigrator(Catalog* catalog,
                                     TransactionManager* txns,
                                     MigrationStatement stmt,
                                     LazyConfig config)
    : catalog_(catalog),
      txns_(txns),
      stmt_(std::move(stmt)),
      config_(std::move(config)) {
  // The §4.5 hook costs a catalog lookup per migrated row; a table with no
  // FOREIGN KEY has nothing for it to check. An output table missing here
  // keeps the hook.
  for (const std::string& name : stmt_.output_tables) {
    const Table* t = catalog_ != nullptr ? catalog_->FindTable(name) : nullptr;
    output_has_fk_.push_back(t == nullptr ||
                             !t->schema().foreign_keys().empty());
  }
}

Result<StatementMigrator::TxnTables> StatementMigrator::ResolveTables()
    const {
  TxnTables tables;
  for (size_t i = 0; i < stmt_.input_tables.size(); ++i) {
    BF_ASSIGN_OR_RETURN(Table * t, InputTable(i));
    tables.inputs.push_back(t);
  }
  for (const std::string& name : stmt_.output_tables) {
    BF_ASSIGN_OR_RETURN(Table * t, catalog_->RequireActive(name));
    tables.outputs.push_back(t);
  }
  return tables;
}

Result<Table*> StatementMigrator::InputTable(size_t input_index) const {
  if (input_index >= stmt_.input_tables.size()) {
    return Status::Internal("bad input index in statement '" + stmt_.name +
                            "'");
  }
  return catalog_->RequireReadable(stmt_.input_tables[input_index]);
}

Status StatementMigrator::Emit(Transaction* txn, const TxnTables& tables,
                               const std::vector<TargetRow>& targets) {
  const OnConflict policy =
      config_.duplicate_detection == DuplicateDetection::kOnConflictClause
          ? OnConflict::kDoNothing
          : OnConflict::kError;
  for (const TargetRow& t : targets) {
    if (config_.constraint_hook && output_has_fk_[t.output_index]) {
      BF_RETURN_NOT_OK(
          config_.constraint_hook(stmt_.output_tables[t.output_index], t.row));
    }
    BF_ASSIGN_OR_RETURN(
        InsertOutcome outcome,
        txns_->Insert(txn, tables.outputs[t.output_index], t.row, policy));
    if (!outcome.inserted) {
      stats_.duplicate_inserts_discarded.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }
  stats_.rows_emitted.fetch_add(targets.size(), std::memory_order_relaxed);
  return Status::OK();
}

template <typename Tracker, typename Unit, typename MigrateOne>
Status StatementMigrator::MigrateUnits(Tracker* tracker,
                                       std::vector<Unit> units,
                                       bool wait_for_skipped,
                                       MigrateOne migrate_one) {
  // Fig 9 ablation: no tracker at all — the workload guarantees
  // exactly-once coverage. §3.7 ON CONFLICT mode: no lock bits; the output
  // tables' unique indexes discard duplicates, and the commit still sets
  // the migrate bit so the fast path keeps working.
  if (!config_.maintain_tracker) tracker = nullptr;
  const bool claims = tracker != nullptr && config_.duplicate_detection ==
                                                DuplicateDetection::kTracker;
  const bool forced = tracker != nullptr && !claims;
  TxnTables tables;
  Stopwatch waited;
  int attempts = 0;
  std::vector<Unit> pending = std::move(units);
  std::vector<Unit> skip;
  std::unique_ptr<Transaction> txn;
  std::shared_ptr<std::vector<Unit>> claimed;  // The open txn's units.
  uint64_t rows = 0;  // Source rows the open txn has read.
  uint64_t waits_at_begin = 0;  // skip_wait_loops when the open txn began.
  // Ends the open migration transaction. Its hooks flip the claimed units
  // to migrated on commit (Algorithm 1 line 9) or reset them on abort
  // (§3.5); a retryable failure retries them with the SKIP list.
  auto finish = [&](Status s) -> Status {
    if (s.ok()) {
      s = txns_->Commit(txn.get());
    } else if (txn->state() == TxnState::kActive) {
      (void)txns_->Abort(txn.get());
    }
    txn.reset();
    if (s.ok()) {
      CountUnits(claimed->size(), wait_for_skipped, forced);
      stats_.rows_migrated.fetch_add(rows, std::memory_order_relaxed);
      attempts = 0;  // The retry limit is per migration transaction.
    } else {
      stats_.txn_aborts.fetch_add(1, std::memory_order_relaxed);
      if (!s.IsRetryable() || attempts >= config_.retry_limit) return s;
      ++attempts;
      stats_.txn_retries.fetch_add(1, std::memory_order_relaxed);
      skip.insert(skip.end(), claimed->begin(), claimed->end());
    }
    claimed.reset();
    rows = 0;
    return Status::OK();
  };
  while (!pending.empty()) {
    skip.clear();
    for (Unit& u : pending) {
      if (tracker != nullptr && tracker->IsMigrated(u)) {
        stats_.already_migrated_hits.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (tables.outputs.empty()) {
        BF_ASSIGN_OR_RETURN(tables, ResolveTables());
      }
      const AcquireResult claim =
          claims ? tracker->TryAcquire(u) : AcquireResult::kAcquired;
      if (claim == AcquireResult::kInProgress) {
        stats_.skip_encounters.fetch_add(1, std::memory_order_relaxed);
        skip.push_back(std::move(u));
        continue;
      }
      if (claim == AcquireResult::kAlreadyMigrated) {
        stats_.already_migrated_hits.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (txn == nullptr) {
        txn = txns_->Begin();
        waits_at_begin =
            stats_.skip_wait_loops.load(std::memory_order_relaxed);
        claimed = std::make_shared<std::vector<Unit>>();
        if (tracker != nullptr) {
          txn->OnCommit([tracker, claimed, forced] {
            for (const Unit& c : *claimed) {
              if (forced) {
                tracker->ForceMigrated(c);
              } else {
                tracker->MarkMigrated(c);
              }
            }
          });
        }
        if (claims) {
          txn->OnAbort([tracker, claimed] {
            for (const Unit& c : *claimed) tracker->ResetAborted(c);
          });
        }
      }
      claimed->push_back(u);
      Result<uint64_t> read = migrate_one(txn.get(), tables, u);
      if (read.ok()) {
        if (tracker != nullptr) {
          txns_->LogMigrationMark(txn.get(), tracker->id(), MarkKey(u));
        }
        rows += *read;
        // A request commits every kRowsPerMigrationTxn rows. The background
        // sweep does so only once a request has SKIP-waited on this
        // statement since the transaction began; with nobody waiting (and
        // always in the gated eager sweep) it commits once per chunk.
        if (rows < kRowsPerMigrationTxn ||
            (!wait_for_skipped &&
             stats_.skip_wait_loops.load(std::memory_order_relaxed) ==
                 waits_at_begin)) {
          continue;
        }
      }
      BF_RETURN_NOT_OK(finish(read.status()));
    }
    if (txn != nullptr) BF_RETURN_NOT_OK(finish(Status::OK()));

    // Algorithm 1 line 10: re-check skipped units until their owners
    // migrate them (or abort and we take over). Background mode never
    // waits.
    if (skip.empty() || !wait_for_skipped) break;
    pending.clear();
    for (Unit& u : skip) {
      if (tracker == nullptr || !tracker->IsMigrated(u)) {
        pending.push_back(std::move(u));
      }
    }
    if (pending.empty()) break;
    stats_.skip_wait_loops.fetch_add(1, std::memory_order_relaxed);
    if (config_.wait_on_skip && config_.skip_recheck_us > 0) {
      SkipRecheckSleep();
    }
    if (waited.ElapsedMillis() > config_.skip_timeout_ms) {
      return Status::TimedOut("skipped units not migrated in time in '" +
                              stmt_.name + "'");
    }
  }
  return Status::OK();
}

Status StatementMigrator::MigrateForPredicate(const ExprPtr& new_schema_pred) {
  if (tracer_ != nullptr &&
      !first_pull_traced_.exchange(true, std::memory_order_relaxed)) {
    tracer_->Record(obs::TraceEventKind::kFirstLazyPull, trace_name_,
                    "statement output=" + (stmt_.output_tables.empty()
                                               ? std::string("?")
                                               : stmt_.output_tables[0]));
  }
  // §2.1: convert the filters over the new schema into filters over the
  // old tables. Unpushable conjuncts are dropped — the candidate set stays
  // a superset of what the request needs.
  RewrittenPredicates preds =
      RewritePredicate(new_schema_pred, stmt_.provenance, stmt_.input_tables);
  return MigrateCandidates(preds);
}

// ---------------------------------------------------------------------------
// ProjectionMigrator (1:1 / 1:n, bitmap)
// ---------------------------------------------------------------------------

ProjectionMigrator::ProjectionMigrator(Catalog* catalog,
                                       TransactionManager* txns,
                                       MigrationStatement stmt,
                                       LazyConfig config,
                                       uint64_t input_boundary)
    : StatementMigrator(catalog, txns, std::move(stmt), config) {
  tracker_ = std::make_unique<BitmapTracker>(
      "bitmap:" + stmt_.name, input_boundary, config_.granularity);
}

Status ProjectionMigrator::MigrateCandidates(const RewrittenPredicates& preds) {
  BF_ASSIGN_OR_RETURN(Table * input, InputTable(0));
  const ExprPtr& pred = preds.per_table.at(stmt_.input_tables[0]);

  std::unordered_set<uint64_t> granules;
  const uint64_t limit = tracker_->num_rows();
  auto scan = ScanWhere(*input, pred, [&](RowId rid, const Tuple&) {
    if (rid < limit) granules.insert(tracker_->GranuleOf(rid));
    return true;
  });
  BF_RETURN_NOT_OK(scan.status());
  return MigrateGranules(
      std::vector<uint64_t>(granules.begin(), granules.end()),
      /*wait_for_skipped=*/true);
}

Status ProjectionMigrator::MigrateGranules(std::vector<uint64_t> granules,
                                           bool wait_for_skipped) {
  // Algorithm 1, bitmap flavour (Algorithm 2 inside TryAcquire).
  return MigrateUnits(
      tracker_.get(), std::move(granules), wait_for_skipped,
      [this](Transaction* txn, const TxnTables& tables,
             uint64_t g) -> Result<uint64_t> {
        uint64_t read = 0;
        const RowId end = tracker_->GranuleEnd(g);
        for (RowId rid = tracker_->GranuleBegin(g); rid < end; ++rid) {
          Tuple row;
          if (!tables.inputs[0]->Read(rid, &row).ok()) continue;  // Tombstone.
          BF_ASSIGN_OR_RETURN(std::vector<TargetRow> targets,
                              stmt_.row_transform(row));
          BF_RETURN_NOT_OK(Emit(txn, tables, targets));
          ++read;
        }
        return read;
      });
}

Result<uint64_t> ProjectionMigrator::MigrateBackgroundChunk(uint64_t max_units,
                                                            bool* done) {
  *done = false;
  if (!config_.maintain_tracker) {
    return Status::Unsupported(
        "background migration requires tracking data structures");
  }
  std::vector<uint64_t> batch;
  uint64_t g = sweep_pos_.load(std::memory_order_acquire);
  while (batch.size() < max_units) {
    g = tracker_->NextUnmigrated(g, /*include_locked=*/false);
    if (g >= tracker_->num_granules()) break;
    batch.push_back(g);
    ++g;
  }
  sweep_pos_.store(g, std::memory_order_release);
  if (batch.empty()) {
    if (tracker_->AllMigrated()) {
      *done = true;
    } else {
      // Another pass: leftover units were in progress (or aborted) when we
      // swept past them.
      sweep_pos_.store(0, std::memory_order_release);
    }
    return uint64_t{0};
  }
  const auto n = static_cast<uint64_t>(batch.size());
  BF_RETURN_NOT_OK(
      MigrateGranules(std::move(batch), /*wait_for_skipped=*/false));
  *done = tracker_->AllMigrated();
  return n;
}

bool ProjectionMigrator::IsComplete() const {
  return config_.maintain_tracker && tracker_->AllMigrated();
}

double ProjectionMigrator::Progress() const {
  if (tracker_->num_granules() == 0) return 1.0;
  return static_cast<double>(tracker_->MigratedCount()) /
         static_cast<double>(tracker_->num_granules());
}

// ---------------------------------------------------------------------------
// AggregateMigrator (n:1, hashmap)
// ---------------------------------------------------------------------------

AggregateMigrator::AggregateMigrator(Catalog* catalog,
                                     TransactionManager* txns,
                                     MigrationStatement stmt,
                                     LazyConfig config,
                                     uint64_t input_boundary)
    : StatementMigrator(catalog, txns, std::move(stmt), config),
      input_boundary_(input_boundary) {
  tracker_ = std::make_unique<HashTracker>("hashmap:" + stmt_.name);
  auto input = InputTable(0);
  if (input.ok()) {
    for (const std::string& c : stmt_.group_key_columns) {
      auto idx = (*input)->schema().ColumnIndex(c);
      if (idx) key_indices_.push_back(*idx);
    }
  }
}

Tuple AggregateMigrator::GroupKeyOf(const Tuple& row) const {
  Tuple key;
  key.reserve(key_indices_.size());
  for (size_t i : key_indices_) key.push_back(row[i]);
  return key;
}

Result<std::vector<Tuple>> AggregateMigrator::CollectGroup(
    Table* input, const Tuple& key) const {
  std::vector<Tuple> rows;
  Index* index = input->FindIndexCoveredBy(key_indices_);
  // Only use an index whose key is exactly the group key.
  if (index != nullptr && index->key_columns() == key_indices_) {
    std::vector<RowId> rids;
    index->Lookup(key, &rids);
    input->ReadMany(rids, [&](RowId rid, const Tuple& row) {
      if (rid < input_boundary_) rows.push_back(row);
      return true;
    });
  } else {
    input->ScanRange(0, input_boundary_, [&](RowId, const Tuple& row) {
      if (GroupKeyOf(row) == key) rows.push_back(row);
      return true;
    });
  }
  return rows;
}

Status AggregateMigrator::MigrateCandidates(const RewrittenPredicates& preds) {
  BF_ASSIGN_OR_RETURN(Table * input, InputTable(0));
  const ExprPtr& pred = preds.per_table.at(stmt_.input_tables[0]);
  TupleSet keys;
  auto scan = ScanWhere(*input, pred, [&](RowId rid, const Tuple& row) {
    if (rid < input_boundary_) keys.Add(GroupKeyOf(row));
    return true;
  });
  BF_RETURN_NOT_OK(scan.status());
  if (keys.empty()) return Status::OK();
  return MigrateGroups(keys.Take(), /*wait_for_skipped=*/true);
}

Status AggregateMigrator::MigrateGroups(std::vector<Tuple> keys,
                                        bool wait_for_skipped) {
  // Algorithm 1 with Algorithm 3 inside TryAcquire. The WIP/SKIP
  // short-circuits of Algorithm 3 lines 2-3 are realized by deduplicating
  // the key set up front (same-worker duplicates collapse to one entry).
  return MigrateUnits(
      tracker_.get(), std::move(keys), wait_for_skipped,
      [this](Transaction* txn, const TxnTables& tables,
             const Tuple& key) -> Result<uint64_t> {
        BF_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                            CollectGroup(tables.inputs[0], key));
        BF_ASSIGN_OR_RETURN(std::vector<TargetRow> targets,
                            stmt_.group_transform(key, rows));
        BF_RETURN_NOT_OK(Emit(txn, tables, targets));
        return static_cast<uint64_t>(rows.size());
      });
}

Result<uint64_t> AggregateMigrator::MigrateBackgroundChunk(uint64_t max_units,
                                                           bool* done) {
  *done = sweep_done_.load(std::memory_order_acquire);
  if (*done) return uint64_t{0};
  if (!config_.maintain_tracker) {
    return Status::Unsupported(
        "background migration requires tracking data structures");
  }
  BF_ASSIGN_OR_RETURN(Table * input, InputTable(0));

  // Claim a scan window. Multiple background threads each claim disjoint
  // windows; pass-completion bookkeeping runs under the same claim.
  static constexpr uint64_t kScanWindow = 4096;
  const uint64_t start =
      sweep_pos_.fetch_add(kScanWindow, std::memory_order_acq_rel);
  if (start >= input_boundary_) {
    // A pass is over. If the pass found nothing unmigrated, we are done;
    // otherwise start another pass.
    if (!found_in_pass_.exchange(false, std::memory_order_acq_rel)) {
      // Verify: a full clean scan.
      bool all = true;
      input->ScanRange(0, input_boundary_, [&](RowId, const Tuple& row) {
        if (!tracker_->IsMigrated(GroupKeyOf(row))) {
          all = false;
          return false;
        }
        return true;
      });
      if (all) {
        sweep_done_.store(true, std::memory_order_release);
        *done = true;
        return uint64_t{0};
      }
    }
    sweep_pos_.store(0, std::memory_order_release);
    return uint64_t{0};
  }

  TupleSet keys;
  uint64_t collected = 0;
  const uint64_t end = std::min<uint64_t>(start + kScanWindow, input_boundary_);
  input->ScanRange(start, end, [&](RowId, const Tuple& row) {
    const Tuple key = GroupKeyOf(row);
    if (!tracker_->IsMigrated(key) && keys.Add(key)) ++collected;
    return collected < max_units;
  });
  if (collected == 0) return uint64_t{0};
  found_in_pass_.store(true, std::memory_order_release);
  BF_RETURN_NOT_OK(MigrateGroups(keys.Take(), /*wait_for_skipped=*/false));
  return collected;
}

bool AggregateMigrator::IsComplete() const {
  return sweep_done_.load(std::memory_order_acquire);
}

double AggregateMigrator::Progress() const {
  if (IsComplete()) return 1.0;
  if (input_boundary_ == 0) return 1.0;
  const uint64_t pos = sweep_pos_.load(std::memory_order_acquire);
  return std::min(1.0, static_cast<double>(pos) /
                           static_cast<double>(input_boundary_));
}

// ---------------------------------------------------------------------------
// JoinMigrator (§3.6)
// ---------------------------------------------------------------------------

JoinMigrator::JoinMigrator(Catalog* catalog, TransactionManager* txns,
                           MigrationStatement stmt, LazyConfig config,
                           uint64_t left_boundary, uint64_t right_boundary)
    : StatementMigrator(catalog, txns, std::move(stmt), config),
      left_boundary_(left_boundary),
      right_boundary_(right_boundary) {
  auto left = InputTable(0);
  auto right = InputTable(1);
  if (left.ok()) {
    auto idx = (*left)->schema().ColumnIndex(stmt_.left_join_column);
    if (idx) left_key_index_ = *idx;
  }
  if (right.ok()) {
    auto idx = (*right)->schema().ColumnIndex(stmt_.right_join_column);
    if (idx) right_key_index_ = *idx;
  }
  switch (stmt_.join_policy) {
    case JoinPolicy::kHashJoinKey:
      hash_tracker_ = std::make_unique<HashTracker>("hashmap:" + stmt_.name);
      break;
    case JoinPolicy::kTrackForeignSideOnly:
      bitmap_tracker_ = std::make_unique<BitmapTracker>(
          "bitmap:" + stmt_.name, left_boundary_, config_.granularity);
      break;
    case JoinPolicy::kMigrateAllSiblings:
      bitmap_tracker_ = std::make_unique<BitmapTracker>(
          "bitmap:" + stmt_.name, right_boundary_, config_.granularity);
      break;
  }
}

MigrationTracker* JoinMigrator::tracker() {
  if (hash_tracker_ != nullptr) return hash_tracker_.get();
  return bitmap_tracker_.get();
}

Result<Table*> JoinMigrator::TrackedTable() const {
  return stmt_.join_policy == JoinPolicy::kMigrateAllSiblings ? InputTable(1)
                                                              : InputTable(0);
}

Result<std::vector<Tuple>> JoinMigrator::MatchingRows(Table* table,
                                                      size_t col_index,
                                                      const Value& key,
                                                      uint64_t boundary) const {
  std::vector<Tuple> rows;
  Index* index = table->FindIndexCoveredBy({col_index});
  if (index != nullptr && index->key_columns() ==
                              std::vector<size_t>{col_index}) {
    std::vector<RowId> rids;
    index->Lookup(Tuple{key}, &rids);
    table->ReadMany(rids, [&](RowId rid, const Tuple& row) {
      if (rid < boundary) rows.push_back(row);
      return true;
    });
  } else {
    table->ScanRange(0, boundary, [&](RowId, const Tuple& row) {
      if (row[col_index].Compare(key) == 0) rows.push_back(row);
      return true;
    });
  }
  return rows;
}

Status JoinMigrator::MigrateCandidates(const RewrittenPredicates& preds) {
  BF_ASSIGN_OR_RETURN(Table * left, InputTable(0));
  BF_ASSIGN_OR_RETURN(Table * right, InputTable(1));
  const ExprPtr& left_pred = preds.per_table.at(stmt_.input_tables[0]);
  const ExprPtr& right_pred = preds.per_table.at(stmt_.input_tables[1]);

  if (stmt_.join_policy == JoinPolicy::kHashJoinKey) {
    // A class is relevant only if it has BOTH left rows matching the
    // left-pushed filters and right rows matching the right-pushed ones,
    // so either side's matching classes form a valid superset. Use the
    // left (output-determining) side whenever it has a filter — its
    // candidate sets are much tighter for typical requests (e.g. a
    // quantity filter on the right side alone would select thousands of
    // classes). With no pushable filter at all, every class containing
    // left rows is a candidate (§2.4 worst case).
    TupleSet keys;
    if (left_pred != nullptr || right_pred == nullptr) {
      auto scan_l =
          ScanWhere(*left, left_pred, [&](RowId rid, const Tuple& r) {
            if (rid < left_boundary_) keys.Add(Tuple{r[left_key_index_]});
            return true;
          });
      BF_RETURN_NOT_OK(scan_l.status());
    } else {
      auto scan_r =
          ScanWhere(*right, right_pred, [&](RowId rid, const Tuple& r) {
            if (rid < right_boundary_) keys.Add(Tuple{r[right_key_index_]});
            return true;
          });
      BF_RETURN_NOT_OK(scan_r.status());
    }
    if (keys.empty()) return Status::OK();
    return MigrateKeys(keys.Take(), /*wait_for_skipped=*/true);
  }

  // Bitmap policies: derive candidate granules on the tracked side.
  BF_ASSIGN_OR_RETURN(Table * tracked, TrackedTable());
  const bool track_left =
      stmt_.join_policy == JoinPolicy::kTrackForeignSideOnly;
  const ExprPtr& tracked_pred = track_left ? left_pred : right_pred;
  const ExprPtr& other_pred = track_left ? right_pred : left_pred;
  Table* other = track_left ? right : left;
  const size_t tracked_key = track_left ? left_key_index_ : right_key_index_;
  const size_t other_key = track_left ? right_key_index_ : left_key_index_;
  const uint64_t tracked_boundary =
      track_left ? left_boundary_ : right_boundary_;
  const uint64_t other_boundary =
      track_left ? right_boundary_ : left_boundary_;

  std::unordered_set<uint64_t> granules;
  auto scan = ScanWhere(*tracked, tracked_pred, [&](RowId rid, const Tuple&) {
    if (rid < tracked_boundary) {
      granules.insert(bitmap_tracker_->GranuleOf(rid));
    }
    return true;
  });
  BF_RETURN_NOT_OK(scan.status());

  // A filter pushed only to the untracked side narrows via the join key:
  // find matching untracked rows, then the tracked rows sharing their key.
  if (other_pred != nullptr && tracked_pred == nullptr) {
    granules.clear();
    TupleSet keys;
    auto scan_o = ScanWhere(*other, other_pred, [&](RowId rid, const Tuple& r) {
      if (rid < other_boundary) keys.Add(Tuple{r[other_key]});
      return true;
    });
    BF_RETURN_NOT_OK(scan_o.status());
    for (const Tuple& k : keys.Take()) {
      Index* index = tracked->FindIndexCoveredBy({tracked_key});
      std::vector<RowId> rids;
      if (index != nullptr) {
        index->Lookup(k, &rids);
      } else {
        tracked->ScanRange(0, tracked_boundary,
                           [&](RowId rid, const Tuple& row) {
                             if (row[tracked_key].Compare(k[0]) == 0) {
                               rids.push_back(rid);
                             }
                             return true;
                           });
      }
      for (RowId rid : rids) {
        if (rid < tracked_boundary) {
          granules.insert(bitmap_tracker_->GranuleOf(rid));
        }
      }
    }
  }
  if (granules.empty()) return Status::OK();
  return MigrateGranules(
      std::vector<uint64_t>(granules.begin(), granules.end()),
      /*wait_for_skipped=*/true);
}

Status JoinMigrator::MigrateKeys(std::vector<Tuple> keys,
                                 bool wait_for_skipped) {
  return MigrateUnits(
      hash_tracker_.get(), std::move(keys), wait_for_skipped,
      [this](Transaction* txn, const TxnTables& tables,
             const Tuple& key) -> Result<uint64_t> {
        BF_ASSIGN_OR_RETURN(std::vector<Tuple> lefts,
                            MatchingRows(tables.inputs[0], left_key_index_,
                                         key[0], left_boundary_));
        BF_ASSIGN_OR_RETURN(std::vector<Tuple> rights,
                            MatchingRows(tables.inputs[1], right_key_index_,
                                         key[0], right_boundary_));
        for (const Tuple& l : lefts) {
          for (const Tuple& r : rights) {
            BF_ASSIGN_OR_RETURN(std::vector<TargetRow> targets,
                                stmt_.join_transform(l, r));
            BF_RETURN_NOT_OK(Emit(txn, tables, targets));
          }
        }
        return static_cast<uint64_t>(lefts.size());
      });
}

Status JoinMigrator::MigrateJoinKey(const Value& key) {
  if (stmt_.join_policy != JoinPolicy::kHashJoinKey) {
    return Status::Unsupported("MigrateJoinKey requires kHashJoinKey policy");
  }
  return MigrateKeys({Tuple{key}}, /*wait_for_skipped=*/true);
}

Status JoinMigrator::MigrateGranules(std::vector<uint64_t> granules,
                                     bool wait_for_skipped) {
  const bool track_left =
      stmt_.join_policy == JoinPolicy::kTrackForeignSideOnly;
  const size_t tracked_key = track_left ? left_key_index_ : right_key_index_;
  const size_t other_key = track_left ? right_key_index_ : left_key_index_;
  const uint64_t other_boundary =
      track_left ? right_boundary_ : left_boundary_;
  return MigrateUnits(
      bitmap_tracker_.get(), std::move(granules), wait_for_skipped,
      [&](Transaction* txn, const TxnTables& tables,
          uint64_t g) -> Result<uint64_t> {
        Table* tracked = tables.inputs[track_left ? 0 : 1];
        Table* other = tables.inputs[track_left ? 1 : 0];
        uint64_t read = 0;
        const RowId end = bitmap_tracker_->GranuleEnd(g);
        for (RowId rid = bitmap_tracker_->GranuleBegin(g); rid < end; ++rid) {
          Tuple row;
          if (!tracked->Read(rid, &row).ok()) continue;
          BF_ASSIGN_OR_RETURN(std::vector<Tuple> matches,
                              MatchingRows(other, other_key, row[tracked_key],
                                           other_boundary));
          for (const Tuple& m : matches) {
            BF_ASSIGN_OR_RETURN(
                std::vector<TargetRow> targets,
                stmt_.join_transform(track_left ? row : m,
                                     track_left ? m : row));
            BF_RETURN_NOT_OK(Emit(txn, tables, targets));
          }
          ++read;
        }
        return read;
      });
}

Result<uint64_t> JoinMigrator::MigrateBackgroundChunk(uint64_t max_units,
                                                      bool* done) {
  *done = false;
  if (!config_.maintain_tracker) {
    return Status::Unsupported(
        "background migration requires tracking data structures");
  }

  if (bitmap_tracker_ != nullptr) {
    std::vector<uint64_t> batch;
    uint64_t g = sweep_pos_.load(std::memory_order_acquire);
    while (batch.size() < max_units) {
      g = bitmap_tracker_->NextUnmigrated(g, /*include_locked=*/false);
      if (g >= bitmap_tracker_->num_granules()) break;
      batch.push_back(g);
      ++g;
    }
    sweep_pos_.store(g, std::memory_order_release);
    if (batch.empty()) {
      if (bitmap_tracker_->AllMigrated()) {
        *done = true;
      } else {
        sweep_pos_.store(0, std::memory_order_release);
      }
      return uint64_t{0};
    }
    const auto n = static_cast<uint64_t>(batch.size());
    BF_RETURN_NOT_OK(
        MigrateGranules(std::move(batch), /*wait_for_skipped=*/false));
    *done = bitmap_tracker_->AllMigrated();
    return n;
  }

  // kHashJoinKey: sweep the left (output-determining) table.
  if (sweep_done_.load(std::memory_order_acquire)) {
    *done = true;
    return uint64_t{0};
  }
  BF_ASSIGN_OR_RETURN(Table * left, InputTable(0));
  static constexpr uint64_t kScanWindow = 4096;
  const uint64_t start =
      sweep_pos_.fetch_add(kScanWindow, std::memory_order_acq_rel);
  if (start >= left_boundary_) {
    if (!found_in_pass_.exchange(false, std::memory_order_acq_rel)) {
      bool all = true;
      left->ScanRange(0, left_boundary_, [&](RowId, const Tuple& row) {
        if (!hash_tracker_->IsMigrated(Tuple{row[left_key_index_]})) {
          all = false;
          return false;
        }
        return true;
      });
      if (all) {
        sweep_done_.store(true, std::memory_order_release);
        *done = true;
        return uint64_t{0};
      }
    }
    sweep_pos_.store(0, std::memory_order_release);
    return uint64_t{0};
  }
  TupleSet keys;
  uint64_t collected = 0;
  const uint64_t end = std::min<uint64_t>(start + kScanWindow, left_boundary_);
  left->ScanRange(start, end, [&](RowId, const Tuple& row) {
    const Tuple key{row[left_key_index_]};
    if (!hash_tracker_->IsMigrated(key) && keys.Add(key)) ++collected;
    return collected < max_units;
  });
  if (collected == 0) return uint64_t{0};
  found_in_pass_.store(true, std::memory_order_release);
  BF_RETURN_NOT_OK(MigrateKeys(keys.Take(), /*wait_for_skipped=*/false));
  return collected;
}

bool JoinMigrator::IsComplete() const {
  if (bitmap_tracker_ != nullptr) return bitmap_tracker_->AllMigrated();
  return sweep_done_.load(std::memory_order_acquire);
}

double JoinMigrator::Progress() const {
  if (bitmap_tracker_ != nullptr) {
    if (bitmap_tracker_->num_granules() == 0) return 1.0;
    return static_cast<double>(bitmap_tracker_->MigratedCount()) /
           static_cast<double>(bitmap_tracker_->num_granules());
  }
  if (IsComplete()) return 1.0;
  if (left_boundary_ == 0) return 1.0;
  return std::min(1.0, static_cast<double>(
                           sweep_pos_.load(std::memory_order_acquire)) /
                           static_cast<double>(left_boundary_));
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

Result<std::unique_ptr<StatementMigrator>> MakeStatementMigrator(
    Catalog* catalog, TransactionManager* txns, MigrationStatement stmt,
    const LazyConfig& config, const std::vector<uint64_t>* boundaries) {
  if (stmt.input_tables.empty() || stmt.output_tables.empty()) {
    return Status::InvalidArgument("statement '" + stmt.name +
                                   "' needs input and output tables");
  }
  auto boundary_of = [&](size_t input_index) -> Result<uint64_t> {
    if (boundaries != nullptr) {
      if (input_index >= boundaries->size()) {
        return Status::InvalidArgument("missing boundary for input " +
                                       std::to_string(input_index) +
                                       " of statement '" + stmt.name + "'");
      }
      return (*boundaries)[input_index];
    }
    BF_ASSIGN_OR_RETURN(Table * t,
                        catalog->RequireReadable(stmt.input_tables[input_index]));
    return t->NumAllocatedRows();
  };
  if (stmt.IsJoin()) {
    if (stmt.input_tables.size() != 2) {
      return Status::InvalidArgument("join statement '" + stmt.name +
                                     "' needs exactly two input tables");
    }
    BF_ASSIGN_OR_RETURN(uint64_t lb, boundary_of(0));
    BF_ASSIGN_OR_RETURN(uint64_t rb, boundary_of(1));
    return std::unique_ptr<StatementMigrator>(
        new JoinMigrator(catalog, txns, std::move(stmt), config, lb, rb));
  }
  if (stmt.IsAggregate()) {
    BF_ASSIGN_OR_RETURN(uint64_t b, boundary_of(0));
    return std::unique_ptr<StatementMigrator>(
        new AggregateMigrator(catalog, txns, std::move(stmt), config, b));
  }
  if (stmt.IsProjection()) {
    BF_ASSIGN_OR_RETURN(uint64_t b, boundary_of(0));
    return std::unique_ptr<StatementMigrator>(
        new ProjectionMigrator(catalog, txns, std::move(stmt), config, b));
  }
  return Status::InvalidArgument("statement '" + stmt.name +
                                 "' has no transform");
}

}  // namespace bullfrog
