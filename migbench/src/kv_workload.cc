// kv-wire: an in-process Server on loopback with a WAL file sink (fsync
// off), driven open loop from Client connections with uniform point
// SELECTs and a minority of single-row UPDATEs; a lazy 1:1 migration is
// submitted over the wire in every round.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "server/client.h"
#include "server/server.h"
#include "txn/log_file.h"

namespace migbench {

using bullfrog::Clock;
using bullfrog::Database;
using bullfrog::Status;
using bullfrog::StatusCode;
using bullfrog::Tuple;
using bullfrog::Value;
namespace server = bullfrog::server;

namespace {

struct KvSpec {
  int64_t rows = 50000;
  int update_pct = 20;
  double rate = 2000;  // Offered operations per second (all connections).
  double warmup_s = 0.4;
  double base_s = 1.2;
  double after_s = 0.8;
  double nominal_window_s = 0.5;  // Sizes the round count only.
  // One background thread: the drain stays short against the round
  // while leaving the cores to the foreground.
  int bg_threads = 1;
};

constexpr char kTable[] = "kv";
constexpr char kTableV2[] = "kv_v2";
constexpr int kMaxAttempts = 10000;

int64_t InitialVal(int64_t id) { return (id * 7919) % 1009; }

/// Per-connection outcome of one round.
struct ConnLog {
  std::vector<OpRecord> ops;
  std::vector<double> lateness_ms;  // Send time minus due time, per op.
  std::vector<double> due_ms;       // Completion minus due time, per op.
  double traced_lateness_ms = 0;    // Summed over traced ops.
  uint64_t acked_updates = 0;  // Rows changed by acknowledged UPDATEs.
  uint64_t retries = 0;
  uint64_t schema_retries = 0;
  std::string error;
};

struct Schedule {
  int64_t origin_ns = 0;
  double period_ns = 0;
  std::atomic<uint64_t> next_ticket{0};
  std::atomic<int64_t> stop_ns{std::numeric_limits<int64_t>::max()};
  std::atomic<bool> tracing{false};
  std::atomic<bool> migrated{false};  // Targets kv_v2 once set.
};

/// Sleeps until `due_ns`: a coarse sleep, then a yielding spin over the
/// last 50 us, so a late wake-up does not delay the send.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 50000;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) Clock::SleepMicros((due_ns - now - kSpinNs) / 1000);
  while (NowNs() < due_ns) std::this_thread::yield();
}

void Connection(server::Client* client, const KvSpec& spec, uint64_t seed,
                Schedule* sched, uint32_t tag, SpanSink* sink, ConnLog* log) {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us timer slack.
  SpanBuffer spans(tag);
  for (;;) {
    const uint64_t k = sched->next_ticket.fetch_add(1);
    const int64_t due =
        sched->origin_ns + static_cast<int64_t>(static_cast<double>(k) *
                                                sched->period_ns);
    if (due >= sched->stop_ns.load(std::memory_order_acquire)) break;
    WaitUntil(due);
    const int64_t send = NowNs();
    const bool traced = sched->tracing.load(std::memory_order_acquire);
    spans.set_enabled(traced);
    const KvOp op = KvOpAt(seed, k, spec.rows, spec.update_pct);
    spans.Open("gen.request", k + 1, due);
    bool ok = false;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      const bool post = sched->migrated.load(std::memory_order_acquire);
      const std::string target = post ? kTableV2 : kTable;
      const std::string key = std::to_string(op.key);
      const std::string sql =
          op.write ? "UPDATE " + target + " SET val = val + 1 WHERE id = " + key
                   : "SELECT * FROM " + target + " WHERE id = " + key;
      spans.Open("server.query", k + 1, NowNs());
      auto r = client->Query(
          sql, traced ? bullfrog::obs::TraceSampler::NextTraceId() : 0);
      spans.Close(NowNs());
      if (r.ok()) {
        if (op.write) log->acked_updates += r->affected;
        ok = true;
        break;
      }
      const Status& s = r.status();
      if (!post && (s.code() == StatusCode::kSchemaMismatch || s.IsNotFound())) {
        // The switch happened before this client heard of it; the error
        // proves it, so move to the new table and re-send.
        log->schema_retries += 1;
        sched->migrated.store(true, std::memory_order_release);
        continue;
      }
      if (s.IsRetryable()) {
        log->retries += 1;
        continue;
      }
      if (log->error.empty()) log->error = sql + ": " + s.ToString();
      break;
    }
    const int64_t end = NowNs();
    spans.Close(end);
    OpRecord rec;
    rec.end_s = static_cast<double>(end - sched->origin_ns) * 1e-9;
    rec.latency_ms = static_cast<double>(end - send) * 1e-6;
    rec.ok = ok;
    rec.write = op.write;
    log->ops.push_back(rec);
    const double late_ms = static_cast<double>(send - due) * 1e-6;
    log->lateness_ms.push_back(late_ms);
    log->due_ms.push_back(static_cast<double>(end - due) * 1e-6);
    if (traced) {
      log->traced_lateness_ms += late_ms;
    }
  }
  sink->Absorb(&spans);
}

/// Loads `rows` rows through the engine's bulk path; returns SUM(val).
Status Load(Database* db, int64_t rows, int64_t* sum) {
  std::vector<Tuple> batch;
  *sum = 0;
  for (int64_t id = 0; id < rows; ++id) {
    const int64_t val = InitialVal(id);
    *sum += val;
    batch.push_back(Tuple{Value::Int(id), Value::Int(val),
                          Value::Str("xxxxxxxxxxxxxxxx")});
    if (batch.size() == 4096 || id + 1 == rows) {
      BF_RETURN_NOT_OK(db->BulkInsert(kTable, batch));
      batch.clear();
    }
  }
  return Status::OK();
}

/// The migrated table holds every source key exactly once and its
/// SUM(val) (read over the wire) is the initial sum plus every
/// acknowledged increment.
void CheckTable(Database* db, server::Client* admin, int64_t rows,
                int64_t expected_sum, RoundOutput* result) {
  std::unordered_set<int64_t> keys;
  uint64_t count = 0;
  db->catalog().FindTable(kTableV2)->Scan([&](auto, const Tuple& r) {
    ++count;
    keys.insert(r[0].AsInt());
    return true;
  });
  if (count != static_cast<uint64_t>(rows) || keys.size() != count) {
    result->Fail("kv: kv_v2 has " + std::to_string(count) + " rows, " +
                 std::to_string(keys.size()) + " distinct keys; source has " +
                 std::to_string(rows));
  }
  auto r = admin->Query(std::string("SELECT SUM(val) FROM ") + kTableV2);
  if (!r.ok() || r->rows.size() != 1 || r->rows[0].size() != 1) {
    result->Fail("kv: SUM(val) query failed: " + r.status().ToString());
    return;
  }
  const Value& v = r->rows[0][0];
  const int64_t sum = v.type() == bullfrog::ValueType::kInt64
                          ? v.AsInt()
                          : std::llround(v.AsDouble());
  if (sum != expected_sum) {
    result->Fail("kv: SUM(val) = " + std::to_string(sum) + ", expected " +
                 std::to_string(expected_sum));
  }
}

/// One round: server + WAL sink + load, open-loop load through base,
/// window and after, check, and record. Runs in its own process.
void KvRound(const Args& args, const KvSpec& spec, int round,
             RoundOutput* out) {
  const int conns = args.threads;
  const uint64_t round_seed = args.seed * 1000 + static_cast<uint64_t>(round);
  const std::string wal_path = args.out_dir + "/kv-" +
                               std::to_string(getpid()) + ".wal";
  const int64_t setup_start = NowNs();
  auto db = std::make_unique<Database>();
  auto writer = std::make_shared<bullfrog::LogFileWriter>();
  Status st = writer->Open(wal_path);
  if (!st.ok()) {
    out->Fail("wal open: " + st.ToString());
    return;
  }
  writer->set_sync(false);  // Flush policy: write(2) per batch, no fsync.
  db->txns().redo_log().SetSink(
      [writer](const std::vector<bullfrog::LogRecord>& batch) {
        return writer->Append(batch);
      });
  server::ServerConfig config;
  config.workers = conns + 2;  // Clients + admin, no queueing.
  config.migrate_options.lazy.background_start_delay_ms = 100;
  config.migrate_options.lazy.background_threads = spec.bg_threads;
  server::Server srv(db.get(), config);
  st = srv.Start();
  server::Client admin;
  if (st.ok()) st = admin.Connect("127.0.0.1", srv.port());
  if (st.ok()) {
    st = admin.Query(std::string("CREATE TABLE ") + kTable +
                     " (id INT PRIMARY KEY, val INT, pad TEXT)")
             .status();
  }
  int64_t sum = 0;
  if (st.ok()) st = Load(db.get(), spec.rows, &sum);
  std::vector<std::unique_ptr<server::Client>> clients;
  for (int c = 0; st.ok() && c < conns; ++c) {
    clients.push_back(std::make_unique<server::Client>());
    st = clients.back()->Connect("127.0.0.1", srv.port());
  }
  if (!st.ok()) {
    out->Fail("setup: " + st.ToString());
    std::remove(wal_path.c_str());
    return;
  }
  out->values["setup_s"] = static_cast<double>(NowNs() - setup_start) * 1e-9;
  bullfrog::obs::Histogram* handle_hist = db->metrics().GetHistogram(
      "bullfrog_server_request_seconds", "opcode=\"query\"",
      bullfrog::obs::MetricsRegistry::LatencyBounds());

  SpanSink sink;
  Schedule sched;
  sched.period_ns = 1e9 / spec.rate;
  sched.origin_ns = NowNs() + 2000000;  // First op due in 2 ms.
  auto clock_s = [&sched] {
    return static_cast<double>(NowNs() - sched.origin_ns) * 1e-9;
  };
  std::vector<ConnLog> logs(static_cast<size_t>(conns));
  std::vector<std::thread> workers;
  for (int c = 0; c < conns; ++c) {
    workers.emplace_back(Connection, clients[c].get(), std::cref(spec),
                         round_seed, &sched, static_cast<uint32_t>(c + 1),
                         &sink, &logs[static_cast<size_t>(c)]);
  }

  RoundMarks marks;
  SleepSeconds(spec.warmup_s + 0.002);
  marks.phases.measure = clock_s();
  double handle_sum0 = 0;
  uint64_t handle_count0 = 0;
  if (args.trace) {
    SleepSeconds(spec.base_s / 2);
    marks.split = clock_s();
    handle_sum0 = handle_hist->sum();
    handle_count0 = handle_hist->count();
    sched.tracing.store(true, std::memory_order_release);
    SleepSeconds(spec.base_s / 2);
  } else {
    SleepSeconds(spec.base_s);
  }

  SpanBuffer main_spans(static_cast<uint32_t>(conns + 1));
  main_spans.set_enabled(args.trace);
  const CpuTicks ticks_at_submit = ReadCpuTicks();
  const int64_t submit_ns = NowNs();
  marks.phases.submit = clock_s();
  main_spans.Open("migration.submit", 0, submit_ns);
  st = admin.Migrate(std::string("CREATE TABLE ") + kTableV2 +
                     " PRIMARY KEY (id) AS SELECT id, val, val * 2 AS dbl "
                     "FROM " + kTable + ";\nDROP TABLE " + kTable + ";");
  const int64_t switched_ns = NowNs();
  main_spans.Close(switched_ns);
  sched.migrated.store(true, std::memory_order_release);
  if (!st.ok()) {
    out->Fail("migrate: " + st.ToString());
  } else {
    out->values["switch_ms"] =
        static_cast<double>(switched_ns - submit_ns) * 1e-6;
    (void)WaitForConvergence(db.get(), submit_ns, ticks_at_submit, out);
  }
  marks.phases.complete = clock_s();
  SleepSeconds(spec.after_s);
  marks.phases.stop = clock_s();
  sched.stop_ns.store(NowNs(), std::memory_order_release);
  for (std::thread& t : workers) t.join();
  sink.Absorb(&main_spans);
  const double handle_ns = (handle_hist->sum() - handle_sum0) * 1e9;
  const uint64_t handle_count = handle_hist->count() - handle_count0;

  std::vector<OpRecord> ops;
  uint64_t acked = 0, retries = 0, schema_retries = 0;
  double traced_lateness_ms = 0;
  for (ConnLog& log : logs) {
    ops.insert(ops.end(), log.ops.begin(), log.ops.end());
    std::vector<double>& late = out->samples["lateness"];
    late.insert(late.end(), log.lateness_ms.begin(), log.lateness_ms.end());
    std::vector<double>& from_due = out->samples["due"];
    from_due.insert(from_due.end(), log.due_ms.begin(), log.due_ms.end());
    traced_lateness_ms += log.traced_lateness_ms;
    acked += log.acked_updates;
    retries += log.retries;
    schema_retries += log.schema_retries;
    if (!log.error.empty()) {
      std::fprintf(stderr, "# round %d: failed operation: %s\n", round,
                   log.error.c_str());
    }
  }
  RecordPhases(ops, marks, out);
  out->values["gen.schema_retries"] = static_cast<double>(schema_retries);

  if (out->correct) {
    CheckUnits(db.get(), out);
    CheckTable(db.get(), &admin, spec.rows, sum + static_cast<int64_t>(acked),
               out);
  }
  RecordEngine(db.get(), out);
  out->values["migration.switch_ms"] = out->values["switch_ms"];
  if (args.trace && out->correct) {
    // Ladder: the same op stream replayed below the wire.
    LadderSpec ls;
    ls.table = kTableV2;
    ls.key_col = "id";
    ls.upd_col = "val";
    ls.keys = spec.rows;
    ls.update_pct = spec.update_pct;
    ls.seed = round_seed;
    ls.threads = conns;
    RunLadder(db.get(), ls, &sink, out);
    RecordSpans(args, sink, out);

    // Decomposition of a traced request (means per request):
    //   request = gen self (lateness + retry gaps) + Client::Query calls
    //   Client::Query = wire + server handling (request_seconds)
    //   server handling = parse + execute stages + the server's remainder
    // The unattributed remainder is what no named part covers: the gaps
    // between retries plus the server's remainder.
    auto& v = out->values;
    const double requests = v["span.gen.request.count"];
    const double queries = v["span.server.query.count"];
    const double per_req = requests > 0 ? queries / requests : 1;
    const double request_us = TotalUs(*out, "gen.request");
    const double query_us = TotalUs(*out, "server.query");
    const double handle_us =
        handle_count > 0 ? handle_ns / 1e3 / static_cast<double>(handle_count)
                         : 0;
    const double stage_us =
        v["trace.requests"] > 0
            ? (v["stage.parse_ms"] + v["stage.execute_ms"]) * 1e3 /
                  v["trace.requests"]
            : 0;
    const double lateness_us =
        requests > 0 ? traced_lateness_ms * 1e3 / requests : 0;
    const double gen_self = SelfUs(*out, "gen.request");
    const double unattributed = std::max(0.0, gen_self - lateness_us) +
                                std::max(0.0, handle_us - stage_us) * per_req;
    v["gen.self_us"] = gen_self;
    v["trace.unattributed_us"] = unattributed;
    v["trace.unattributed_share"] =
        request_us > 0 ? unattributed / request_us : 0;
    std::fprintf(stderr,
                 "# round %d request (us): %.2f = lateness %.2f + wire %.2f + "
                 "server %.2f (parse+execute %.2f) + unattributed %.2f; "
                 "retries %llu\n",
                 round, request_us, lateness_us,
                 (query_us - handle_us) * per_req, handle_us * per_req,
                 stage_us * per_req, unattributed,
                 static_cast<unsigned long long>(retries));
  }
  std::fprintf(stderr,
               "# round %d: setup %.3fs switch %.3fms converge %.3fs "
               "(net of steal %.3fs) ops %zu\n",
               round, out->values["setup_s"], out->values["switch_ms"],
               marks.phases.complete - marks.phases.submit,
               out->values["converge_net_s"], ops.size());
  admin.Close();
  clients.clear();
  srv.Stop();
  std::remove(wal_path.c_str());
  // The round's process exits next; leave the database to the exit
  // instead of paying its teardown.
  (void)db.release();
}

}  // namespace

RunResult RunKvWire(const Args& args) {
  const KvSpec spec;
  const double round_s =
      spec.warmup_s + spec.base_s + spec.nominal_window_s + spec.after_s;
  const int rounds = std::max(2, static_cast<int>(args.seconds / round_s));
  std::fprintf(stderr,
               "# kv-wire: %d rounds, %d connections, rows=%lld rate=%.0f/s "
               "updates=%d%%, WAL file sink with fsync off\n",
               rounds, args.threads, static_cast<long long>(spec.rows),
               spec.rate, spec.update_pct);
  return RunRounds(args, rounds, [&](int round, RoundOutput* out) {
    KvRound(args, spec, round, out);
  });
}

}  // namespace migbench
