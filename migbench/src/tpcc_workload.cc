// tpcc-split and tpcc-join: embedded TPC-C, full mix, closed loop, with a
// lazy migration submitted after the base phase of every round.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "tpcc/cols.h"
#include "tpcc/loader.h"
#include "tpcc/migrations.h"
#include "tpcc/schema.h"
#include "tpcc/transactions.h"
#include "tpcc/workload.h"
#include "txn/log_file.h"

namespace migbench {

using bullfrog::Clock;
using bullfrog::Database;
using bullfrog::Status;
using bullfrog::StatusCode;
using bullfrog::Table;
using bullfrog::Tuple;
namespace tpcc = bullfrog::tpcc;
namespace col = bullfrog::tpcc::col;

namespace {

struct TpccSpec {
  bool join = false;
  tpcc::Scale scale;
  double warmup_s = 0.4;
  double base_s = 1.2;
  double after_s = 0.8;
  double nominal_window_s = 0.8;  // Sizes the round count only.
};

TpccSpec SpecFor(const std::string& workload) {
  TpccSpec spec;
  spec.scale.warehouses = 2;
  spec.scale.districts_per_warehouse = 10;
  spec.scale.customers_per_district = 3000;
  spec.scale.items = 2000;
  spec.scale.orders_per_district = 300;
  spec.scale.undelivered_orders_per_district = 90;
  if (workload == "tpcc-join") {
    spec.join = true;
    // As in fig07: one item per (district, order) slot keeps each join
    // class near ten order lines per warehouse.
    spec.scale.items = spec.scale.orders_per_district *
                       spec.scale.districts_per_warehouse;
    spec.nominal_window_s = 1.2;
  }
  return spec;
}

// One background migrator thread; the terminals take the other cores, so
// terminals plus drain never outnumber the CPUs and the window's CPU split
// between foreground and drain does not depend on the scheduler.
constexpr int kBackgroundThreads = 1;

bullfrog::MigrationController::SubmitOptions LazyOptions() {
  bullfrog::MigrationController::SubmitOptions opts;
  opts.strategy = bullfrog::MigrationStrategy::kLazy;
  opts.enable_background = true;
  opts.lazy.background_threads = kBackgroundThreads;
  // Short against the drain, so converge_s measures migration work.
  opts.lazy.background_start_delay_ms = 100;
  return opts;
}

constexpr int kMaxAttempts = 10000;
// Sampled requests' stage data is read from the engine's profile store.
constexpr int64_t kTraceEveryRequest = 1;

bool IsRead(tpcc::TxnType t) {
  return t == tpcc::TxnType::kOrderStatus || t == tpcc::TxnType::kStockLevel;
}

/// Per-terminal outcome of one round.
struct TerminalLog {
  std::vector<OpRecord> ops;
  uint64_t retries = 0;         // Wait-die / conflict re-submits.
  uint64_t schema_retries = 0;  // Raced the schema switch; re-submitted.
  std::string error;            // First non-retryable failure.
};

void Backoff(int attempt, SpanBuffer* spans, uint64_t request) {
  if (attempt == 0) {
    std::this_thread::yield();
    return;
  }
  const int64_t start = NowNs();
  Clock::SleepMicros(
      std::min<int64_t>(2000, int64_t{50} << std::min(attempt - 1, 6)));
  spans->Add("gen.backoff", request, start, NowNs());
}

/// Runs one transaction to completion (re-submitting retryable failures
/// with the same parameters, as OLTP-Bench does). `rollback` marks a
/// NewOrder meant to roll back (spec 2.4.1.4): its ConstraintViolation
/// completes the request. Any other ConstraintViolation is a failure.
template <typename Params, typename Fn>
Status RunWithRetries(const Params& p, Fn&& fn, bool rollback,
                      TerminalLog* log, SpanBuffer* spans, uint64_t request) {
  Status s;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    spans->Open("tpcc.txn", request, NowNs());
    s = fn(p);
    spans->Close(NowNs());
    if (s.ok() || (rollback && s.IsConstraintViolation())) {
      return Status::OK();
    }
    if (s.IsRetryable()) {
      // Wait-die killed this (younger) transaction; a re-submit only
      // succeeds once the older holder finishes, so back off first.
      log->retries += 1;
      Backoff(attempt, spans, request);
      continue;
    }
    if (s.code() == StatusCode::kSchemaMismatch || s.IsNotFound()) {
      // Started against the old schema as the switch happened; the
      // front-end re-submits against the new version.
      log->schema_retries += 1;
      std::this_thread::yield();
      continue;
    }
    return s;
  }
  return s;
}

Status Execute(tpcc::WorkloadGenerator* gen, tpcc::Transactions* txns,
               tpcc::TxnType type, TerminalLog* log, SpanBuffer* spans,
               uint64_t request) {
  switch (type) {
    case tpcc::TxnType::kNewOrder: {
      const auto params = gen->GenNewOrder();
      return RunWithRetries(params,
                            [&](const auto& p) { return txns->NewOrder(p); },
                            params.rollback, log, spans, request);
    }
    case tpcc::TxnType::kPayment:
      return RunWithRetries(gen->GenPayment(),
                            [&](const auto& p) { return txns->Payment(p); },
                            false, log, spans, request);
    case tpcc::TxnType::kDelivery:
      return RunWithRetries(gen->GenDelivery(),
                            [&](const auto& p) { return txns->Delivery(p); },
                            false, log, spans, request);
    case tpcc::TxnType::kOrderStatus:
      return RunWithRetries(
          gen->GenOrderStatus(),
          [&](const auto& p) { return txns->OrderStatus(p); }, false, log,
          spans, request);
    case tpcc::TxnType::kStockLevel:
      return RunWithRetries(
          gen->GenStockLevel(),
          [&](const auto& p) { return txns->StockLevel(p); }, false, log,
          spans, request);
  }
  return Status::Internal("unknown transaction type");
}

/// One terminal: closed loop until `stop`. Tracing (engine request trace
/// bound around the transaction plus benchmark spans) is on while
/// `tracing` is set.
void Terminal(Database* db, tpcc::Transactions* txns,
              tpcc::WorkloadGenerator* gen, int64_t origin_ns,
              const std::atomic<bool>* stop,
              const std::atomic<bool>* tracing, uint32_t tag,
              SpanSink* sink, TerminalLog* log) {
  SpanBuffer spans(tag);
  uint64_t seq = 0;
  while (!stop->load(std::memory_order_acquire)) {
    const tpcc::TxnType type = gen->NextType();
    const bool traced = tracing->load(std::memory_order_acquire);
    spans.set_enabled(traced);
    const uint64_t request = (static_cast<uint64_t>(tag) << 40) | ++seq;
    const int64_t start = NowNs();
    spans.Open("gen.request", request, start);
    Status s;
    if (traced && db->trace_sampler().Sample()) {
      // The benchmark is the request root here (the embedded analog of
      // the server frame), as in the figure benches' fixture.
      auto trace = std::make_shared<bullfrog::obs::TraceContext>(
          bullfrog::obs::TraceSampler::NextTraceId(),
          std::string(tpcc::TxnTypeName(type)));
      {
        bullfrog::obs::TraceBinding bind(trace.get());
        bullfrog::obs::ScopedSpan span("txn", bullfrog::obs::Stage::kExecute);
        s = Execute(gen, txns, type, log, &spans, request);
      }
      trace->Finish();
      db->profiles().Record(std::move(trace));
    } else {
      s = Execute(gen, txns, type, log, &spans, request);
    }
    const int64_t end = NowNs();
    spans.Close(end);
    OpRecord op;
    op.end_s = static_cast<double>(end - origin_ns) * 1e-9;
    op.latency_ms = static_cast<double>(end - start) * 1e-6;
    op.ok = s.ok();
    op.write = !IsRead(type);
    op.neworder = type == tpcc::TxnType::kNewOrder;
    log->ops.push_back(op);
    if (!s.ok() && log->error.empty()) {
      log->error = std::string(tpcc::TxnTypeName(type)) + ": " + s.ToString();
    }
  }
  sink->Absorb(&spans);
}

// --- correctness checks -------------------------------------------------

uint64_t Pack(int64_t a, int64_t b, int64_t c, int64_t d, int64_t e) {
  return (static_cast<uint64_t>(a) << 48) ^ (static_cast<uint64_t>(b) << 40) ^
         (static_cast<uint64_t>(c) << 16) ^ (static_cast<uint64_t>(d) << 8) ^
         static_cast<uint64_t>(e);
}

uint64_t WdKey(int64_t w, int64_t d) { return Pack(w, d, 0, 0, 0); }

/// TPC-C consistency: d_next_o_id - 1 == max(o_id) in every district.
void CheckDistricts(Database* db, RoundOutput* result) {
  std::unordered_map<uint64_t, int64_t> max_o;
  db->catalog().FindTable(tpcc::kOrders)->Scan([&](auto, const Tuple& r) {
    int64_t& m = max_o[WdKey(r[col::ord::kWId].AsInt(),
                             r[col::ord::kDId].AsInt())];
    m = std::max(m, r[col::ord::kId].AsInt());
    return true;
  });
  int bad = 0;
  db->catalog().FindTable(tpcc::kDistrict)->Scan([&](auto, const Tuple& r) {
    const int64_t next = r[col::dist::kNextOId].AsInt();
    if (next - 1 != max_o[WdKey(r[col::dist::kWId].AsInt(),
                                r[col::dist::kId].AsInt())]) {
      ++bad;
    }
    return true;
  });
  if (bad > 0) {
    result->Fail("tpcc: " + std::to_string(bad) +
                 " districts violate d_next_o_id - 1 = max(o_id)");
  }
}

/// Split: each new customer table holds exactly one row per source
/// customer, with no duplicate (w, d, c) key.
void CheckSplit(Database* db, RoundOutput* result) {
  const uint64_t source =
      db->catalog().FindTable(tpcc::kCustomer)->NumLiveRows();
  for (const char* name : {tpcc::kCustomerPrivate, tpcc::kCustomerPublic}) {
    std::unordered_set<uint64_t> keys;
    uint64_t rows = 0;
    db->catalog().FindTable(name)->Scan([&](auto, const Tuple& r) {
      ++rows;
      keys.insert(Pack(r[0].AsInt(), r[1].AsInt(), r[2].AsInt(), 0, 0));
      return true;
    });
    if (rows != source || keys.size() != rows) {
      result->Fail(std::string("split: ") + name + " has " +
                   std::to_string(rows) + " rows, " +
                   std::to_string(keys.size()) + " distinct keys; source has " +
                   std::to_string(source));
    }
  }
}

/// Join: every order line present at the switch appears once per stock
/// warehouse; every order line written after the switch appears once.
void CheckJoin(Database* db, const tpcc::Scale& scale, RoundOutput* result) {
  std::unordered_map<uint64_t, int64_t> boundary;  // Per district max o_id.
  Table* old_lines = db->catalog().FindTable(tpcc::kOrderLine);
  const uint64_t source_lines = old_lines->NumLiveRows();
  old_lines->Scan([&](auto, const Tuple& r) {
    int64_t& b = boundary[WdKey(r[col::ol::kWId].AsInt(),
                                r[col::ol::kDId].AsInt())];
    b = std::max(b, r[col::ol::kOId].AsInt());
    return true;
  });
  uint64_t expected_new = 0;
  db->catalog().FindTable(tpcc::kOrders)->Scan([&](auto, const Tuple& r) {
    const auto it = boundary.find(
        WdKey(r[col::ord::kWId].AsInt(), r[col::ord::kDId].AsInt()));
    if (it != boundary.end() && r[col::ord::kId].AsInt() > it->second) {
      expected_new += static_cast<uint64_t>(r[col::ord::kOlCnt].AsInt());
    }
    return true;
  });
  std::unordered_set<uint64_t> keys;
  uint64_t old_rows = 0, new_rows = 0;
  db->catalog().FindTable(tpcc::kOrderlineStock)->Scan([&](auto,
                                                           const Tuple& r) {
    const int64_t w = r[col::ols::kWId].AsInt();
    const int64_t d = r[col::ols::kDId].AsInt();
    const int64_t o = r[col::ols::kOId].AsInt();
    keys.insert(Pack(w, d, o, r[col::ols::kNumber].AsInt(),
                     r[col::ols::kSWId].AsInt()));
    const auto it = boundary.find(WdKey(w, d));
    if (it != boundary.end() && o <= it->second) {
      ++old_rows;
    } else {
      ++new_rows;
    }
    return true;
  });
  const uint64_t expected_old =
      source_lines * static_cast<uint64_t>(scale.warehouses);
  if (old_rows != expected_old || new_rows != expected_new ||
      keys.size() != old_rows + new_rows) {
    result->Fail("join: orderline_stock has " + std::to_string(old_rows) +
                 " pre-switch rows (expected " + std::to_string(expected_old) +
                 "), " + std::to_string(new_rows) +
                 " post-switch rows (expected " +
                 std::to_string(expected_new) + "), " +
                 std::to_string(keys.size()) + " distinct keys");
  }
}

/// One round: load, run the terminals through base, window and after,
/// check, and record. Runs in its own process (see RunRounds).
void TpccRound(const Args& args, const TpccSpec& spec, int round,
               RoundOutput* out) {
  const int threads = std::max(1, args.threads - kBackgroundThreads);
  const uint64_t round_seed = args.seed * 1000 + static_cast<uint64_t>(round);
  const int64_t setup_start = NowNs();
  auto db = std::make_unique<Database>();
  Status st = tpcc::CreateTpccTables(db.get());
  if (st.ok()) st = tpcc::LoadTpcc(db.get(), spec.scale, round_seed);
  if (!st.ok()) {
    out->Fail("load: " + st.ToString());
    return;
  }
  out->values["setup_s"] = static_cast<double>(NowNs() - setup_start) * 1e-9;
  tpcc::Transactions txns(db.get(), spec.scale);
  if (args.trace) db->trace_sampler().set_every(kTraceEveryRequest);

  std::vector<std::unique_ptr<tpcc::WorkloadGenerator>> gens;
  std::vector<TerminalLog> logs(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    gens.push_back(std::make_unique<tpcc::WorkloadGenerator>(
        spec.scale, round_seed * 64 + static_cast<uint64_t>(t)));
  }
  SpanSink sink;
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  const int64_t origin = NowNs();
  auto clock_s = [origin] {
    return static_cast<double>(NowNs() - origin) * 1e-9;
  };
  std::vector<std::thread> terminals;
  for (int t = 0; t < threads; ++t) {
    terminals.emplace_back(Terminal, db.get(), &txns, gens[t].get(), origin,
                           &stop, &tracing, static_cast<uint32_t>(t + 1),
                           &sink, &logs[static_cast<size_t>(t)]);
  }

  RoundMarks marks;
  SleepSeconds(spec.warmup_s);
  marks.phases.measure = clock_s();
  const CpuTicks ticks_at_measure = ReadCpuTicks();
  if (args.trace) {
    SleepSeconds(spec.base_s / 2);
    marks.split = clock_s();
    tracing.store(true, std::memory_order_release);
    SleepSeconds(spec.base_s / 2);
  } else {
    SleepSeconds(spec.base_s);
  }

  // Submit: the logical switch, then the application's big flip.
  SpanBuffer main_spans(static_cast<uint32_t>(threads + 1));
  main_spans.set_enabled(args.trace);
  const CpuTicks ticks_at_submit = ReadCpuTicks();
  const int64_t submit_ns = NowNs();
  marks.phases.submit = clock_s();
  main_spans.Open("migration.submit", 0, submit_ns);
  st = db->SubmitMigration(
      spec.join ? tpcc::OrderlineStockPlan() : tpcc::CustomerSplitPlan(),
      LazyOptions());
  const int64_t switched_ns = NowNs();
  main_spans.Close(switched_ns);
  txns.set_version(spec.join ? tpcc::SchemaVersion::kOrderlineStock
                             : tpcc::SchemaVersion::kCustomerSplit);
  if (!st.ok()) {
    out->Fail("submit: " + st.ToString());
  } else {
    out->values["switch_ms"] =
        static_cast<double>(switched_ns - submit_ns) * 1e-6;
    (void)WaitForConvergence(db.get(), submit_ns, ticks_at_submit, out);
  }
  marks.phases.complete = clock_s();
  const CpuTicks ticks_at_complete = ReadCpuTicks();
  SleepSeconds(spec.after_s);
  marks.phases.stop = clock_s();
  const CpuTicks ticks_at_stop = ReadCpuTicks();
  marks.steal[0] = StealShare(ticks_at_measure, ticks_at_submit);
  marks.steal[1] = StealShare(ticks_at_submit, ticks_at_complete);
  marks.steal[2] = StealShare(ticks_at_complete, ticks_at_stop);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : terminals) t.join();
  sink.Absorb(&main_spans);

  std::vector<OpRecord> ops;
  uint64_t retries = 0, schema_retries = 0;
  for (TerminalLog& log : logs) {
    ops.insert(ops.end(), log.ops.begin(), log.ops.end());
    retries += log.retries;
    schema_retries += log.schema_retries;
    if (!log.error.empty()) {
      std::fprintf(stderr, "# round %d: failed operation: %s\n", round,
                   log.error.c_str());
    }
  }
  RecordPhases(ops, marks, out);
  out->values["tpcc.retries_per_commit"] =
      static_cast<double>(retries) /
      static_cast<double>(std::max<uint64_t>(1, out->attempted - out->failed));
  out->values["gen.schema_retries"] = static_cast<double>(schema_retries);

  if (out->correct) {
    CheckUnits(db.get(), out);
    CheckDistricts(db.get(), out);
    if (spec.join) {
      CheckJoin(db.get(), spec.scale, out);
    } else {
      CheckSplit(db.get(), out);
    }
  }
  RecordEngine(db.get(), out);
  out->values["migration.switch_ms"] = out->values["switch_ms"];
  if (args.trace && out->correct) {
    // Ladder rungs (wire, SqlEngine, Database) on a table no migration
    // touches (item), after the terminals stopped.
    LadderSpec ls;
    ls.table = tpcc::kItem;
    ls.key_col = "i_id";
    ls.upd_col = "i_im_id";
    ls.key_lo = 1;
    ls.keys = spec.scale.items;
    ls.seed = round_seed;
    ls.threads = threads;
    // The ladder's statements go through group commit to a WAL file with
    // fsync off, as kv-wire's do; the TPC-C load itself has no log sink.
    const std::string wal_path =
        args.out_dir + "/ladder-" + std::to_string(getpid()) + ".wal";
    auto writer = std::make_shared<bullfrog::LogFileWriter>();
    st = writer->Open(wal_path);
    if (!st.ok()) {
      out->Fail("wal open: " + st.ToString());
      return;
    }
    writer->set_sync(false);
    db->txns().redo_log().SwapSink(
        [writer](const std::vector<bullfrog::LogRecord>& batch) {
          return writer->Append(batch);
        });
    RunLadder(db.get(), ls, &sink, out);
    std::remove(wal_path.c_str());
    RecordSpans(args, sink, out);
    // Request time no span covers: the generator's own bookkeeping
    // between attempts (back-off sleeps have their own span).
    const double request_us = TotalUs(*out, "gen.request");
    const double gen_self = SelfUs(*out, "gen.request");
    out->values["gen.self_us"] = gen_self;
    out->values["trace.unattributed_us"] = gen_self;
    out->values["trace.unattributed_share"] =
        request_us > 0 ? gen_self / request_us : 0;
  }
  std::fprintf(stderr,
               "# round %d: setup %.3fs switch %.3fms converge %.3fs "
               "(net of steal %.3fs) ops %zu\n",
               round, out->values["setup_s"], out->values["switch_ms"],
               marks.phases.complete - marks.phases.submit,
               out->values["converge_net_s"], ops.size());
  // The round's process exits next; leave the database to the exit
  // instead of paying its teardown.
  (void)db.release();
}

}  // namespace

RunResult RunTpcc(const Args& args) {
  const TpccSpec spec = SpecFor(args.workload);
  const double round_s =
      spec.warmup_s + spec.base_s + spec.nominal_window_s + spec.after_s;
  const int rounds = std::max(2, static_cast<int>(args.seconds / round_s));
  std::fprintf(stderr,
               "# %s: %d rounds, %d terminals, %d background threads, "
               "warehouses=%d customers=%d "
               "items=%d orders=%d\n",
               args.workload.c_str(), rounds,
               std::max(1, args.threads - kBackgroundThreads),
               kBackgroundThreads, spec.scale.warehouses, spec.scale.customers_per_district,
               spec.scale.items, spec.scale.orders_per_district);
  return RunRounds(args, rounds, [&](int round, RoundOutput* out) {
    TpccRound(args, spec, round, out);
  });
}

}  // namespace migbench
