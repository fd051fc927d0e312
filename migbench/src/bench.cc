#include "bench.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "common/clock.h"
#include "query/expr.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace migbench {

using bullfrog::Clock;
using bullfrog::Database;
using bullfrog::Status;
using bullfrog::obs::Stage;

int64_t NowNs() { return Clock::NowNanos(); }

void SleepSeconds(double s) {
  if (s > 0) Clock::SleepMicros(static_cast<int64_t>(s * 1e6));
}

// --- metric definitions -------------------------------------------------

namespace {

/// A printed metric: the median over rounds of the per-round value
/// `name`, or, when `sample` is set, the q-th percentile of the named
/// latency samples pooled over rounds.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* sample = nullptr;
  double q = 0;
};

// The end-to-end metrics, all printed by the untraced run. BENCHMARK.json
// gates a subset. Phase throughput is gated as the window and after
// phases' share of the same round's base phase, each phase net of the CPU
// time the host stole during it: absolute ops/s follows how much CPU a
// shared host lends the run (the closed loop lost up to 45% while
// neighbours were busy), while the share, taken seconds apart, does not;
// p50_ms carries the absolute speed (closed loop: terminals /
// throughput). Convergence is gated net of steal too (converge_net_s).
// Absolute ops/s, converge_s, the latency tails (p99s), the read median
// and error_rate (0 on a correct run) are printed but not gated.
const MetricDef kEndToEnd[] = {
    {"base_ops_s", "1/s"},
    {"window_ops_s", "1/s"},
    {"after_ops_s", "1/s"},
    {"window_ops_ratio", "ratio"},
    {"after_ops_ratio", "ratio"},
    {"p50_ms", "ms", "all", 0.50},
    {"p99_ms", "ms", "all", 0.99},
    {"window_p99_ms", "ms", "window", 0.99},
    {"read_p50_ms", "ms", "read", 0.50},
    {"read_p99_ms", "ms", "read", 0.99},
    {"write_p50_ms", "ms", "write", 0.50},
    {"write_p99_ms", "ms", "write", 0.99},
    {"converge_s", "s"},
    {"converge_net_s", "s"},
    {"switch_ms", "ms"},
    {"error_rate", "ratio"},
    {"setup_s", "s"},
    {"rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"migration.switch_ms", "ms"},
    {"migration.units_lazy", "count"},
    {"migration.units_background", "count"},
    {"migration.units_forced", "count"},
    {"migration.lazy_share", "ratio"},
    {"migration.rows_per_unit", "ratio"},
    {"migration.retries", "count"},
    {"migration.aborts", "count"},
    {"migration.useful_ratio", "ratio"},
    {"migration.skip_waits", "count"},
    {"migration.pull_ms", "ms"},
    {"migration.pull_wait_ms", "ms"},
    {"migration.bg_chunk_p50_ms", "ms"},
    {"migration.bg_start_progress", "ratio"},
    {"txn.begins", "count"},
    {"txn.commits", "count"},
    {"txn.aborts", "count"},
    {"txn.commit_ratio", "ratio"},
    {"txn.wait_die_kills", "count"},
    {"txn.lock_wait_p99_ms", "ms"},
    {"txn.lock_wait_ms", "ms"},
    {"txn.wal_batch_mean", "count"},
    {"txn.wal_sync_p50_ms", "ms"},
    {"txn.wal_wait_us", "us"},
    {"server.handle_us", "us"},
    {"server.wire_us", "us"},
    {"server.rejected", "count"},
    {"sql.parse_us", "us"},
    {"sql.exec_us", "us"},
    {"db.begin_us", "us"},
    {"db.select_us", "us"},
    {"db.update_us", "us"},
    {"db.commit_us", "us"},
    {"tpcc.neworder_p50_ms", "ms", "neworder", 0.50},
    {"tpcc.neworder_p99_ms", "ms", "neworder", 0.99},
    {"tpcc.retries_per_commit", "ratio"},
    {"mvcc.max_chain", "count"},
    {"mvcc.versions_freed", "count"},
    {"mvcc.gc_passes", "count"},
    {"gen.lateness_p99_ms", "ms", "lateness", 0.99},
    {"gen.due_p50_ms", "ms", "due", 0.50},
    {"gen.due_p99_ms", "ms", "due", 0.99},
    {"gen.schema_retries", "count"},
    {"gen.self_us", "us"},
    {"trace.p50_ms_untraced", "ms", "base_untraced", 0.50},
    {"trace.p50_ms_traced", "ms", "base_traced", 0.50},
    {"trace.base_ops_s_untraced", "1/s"},
    {"trace.base_ops_s_traced", "1/s"},
    {"trace.unattributed_us", "us"},
    {"trace.unattributed_share", "ratio"},
    {"host.steal_share", "ratio"},
};

// --- round transport: child -> parent over a pipe ------------------------

void PutU64(std::string* b, uint64_t v) {
  b->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutStr(std::string* b, const std::string& s) {
  PutU64(b, s.size());
  b->append(s);
}
void PutF64(std::string* b, double v) {
  b->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::string Encode(const RoundOutput& out) {
  std::string b;
  PutU64(&b, out.correct ? 1 : 0);
  PutU64(&b, out.attempted);
  PutU64(&b, out.failed);
  PutU64(&b, out.errors.size());
  for (const std::string& e : out.errors) PutStr(&b, e);
  PutU64(&b, out.values.size());
  for (const auto& [name, v] : out.values) {
    PutStr(&b, name);
    PutF64(&b, v);
  }
  PutU64(&b, out.samples.size());
  for (const auto& [name, v] : out.samples) {
    PutStr(&b, name);
    PutU64(&b, v.size());
    b.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
  }
  return b;
}

/// Bounds-checked reader over Encode()'s bytes.
class Reader {
 public:
  explicit Reader(const std::string& b) : b_(b) {}
  bool ok() const { return ok_; }
  uint64_t U64() {
    uint64_t v = 0;
    Take(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0;
    Take(&v, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint64_t n = U64();
    if (!ok_ || n > b_.size() - pos_) {
      ok_ = false;
      return "";
    }
    std::string s = b_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  void Doubles(std::vector<double>* v) {
    const uint64_t n = U64();
    if (!ok_ || n > (b_.size() - pos_) / sizeof(double)) {
      ok_ = false;
      return;
    }
    v->resize(n);
    Take(v->data(), n * sizeof(double));
  }

 private:
  void Take(void* dst, size_t n) {
    if (!ok_ || n > b_.size() - pos_) {
      ok_ = false;
      return;
    }
    std::memcpy(dst, b_.data() + pos_, n);
    pos_ += n;
  }
  const std::string& b_;
  size_t pos_ = 0;
  bool ok_ = true;
};

bool Decode(const std::string& b, RoundOutput* out) {
  Reader r(b);
  out->correct = r.U64() != 0;
  out->attempted = r.U64();
  out->failed = r.U64();
  for (uint64_t i = 0, n = r.U64(); r.ok() && i < n; ++i) {
    out->errors.push_back(r.Str());
  }
  for (uint64_t i = 0, n = r.U64(); r.ok() && i < n; ++i) {
    std::string name = r.Str();
    out->values[name] = r.F64();
  }
  for (uint64_t i = 0, n = r.U64(); r.ok() && i < n; ++i) {
    std::string name = r.Str();
    r.Doubles(&out->samples[name]);
  }
  return r.ok();
}

bool WriteAll(int fd, const std::string& b) {
  size_t off = 0;
  while (off < b.size()) {
    const ssize_t n = write(fd, b.data() + off, b.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

std::string ReadAll(int fd) {
  std::string b;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    b.append(buf, static_cast<size_t>(n));
  }
  return b;
}

/// Runs one round in a child process and returns what it reported, with
/// the child's peak resident set as the round's rss_mb.
RoundOutput RunChild(int round, const RoundFn& fn) {
  RoundOutput out;
  int fds[2];
  if (pipe(fds) != 0) {
    out.Fail("pipe failed");
    return out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    RoundOutput child;
    fn(round, &child);
    const bool sent = WriteAll(fds[1], Encode(child));
    std::fflush(stderr);
    // Skip the destructors: process exit frees the round's database.
    _exit(sent ? 0 : 3);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    out.Fail("fork failed");
    return out;
  }
  const std::string bytes = ReadAll(fds[0]);
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  wait4(pid, &status, 0, &ru);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !Decode(bytes, &out)) {
    out = RoundOutput();
    out.Fail("round " + std::to_string(round) +
             " did not report (wait status " + std::to_string(status) + ")");
  }
  out.values["rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB.
  return out;
}

std::string SpanPath(const Args& args) {
  return args.out_dir + "/spans-" + args.workload + "-s" +
         std::to_string(args.seed) + ".tsv";
}

}  // namespace

RunResult RunRounds(const Args& args, int rounds, const RoundFn& fn) {
  if (args.trace) {
    if (std::FILE* f = std::fopen(SpanPath(args).c_str(), "w")) {
      std::fputs(SpanSink::kTsvHeader, f);
      std::fclose(f);
    }
  }
  RunResult result;
  std::map<std::string, std::vector<double>> values, samples;
  for (int round = 0; round < rounds && result.correct; ++round) {
    RoundOutput out = RunChild(round, fn);
    result.attempted += out.attempted;
    result.failed += out.failed;
    if (!out.correct) result.correct = false;
    for (std::string& e : out.errors) result.errors.push_back(std::move(e));
    for (const auto& [name, v] : out.values) values[name].push_back(v);
    for (auto& [name, v] : out.samples) {
      std::vector<double>& pooled = samples[name];
      pooled.insert(pooled.end(), v.begin(), v.end());
    }
  }
  if (result.failed > 0) {
    result.correct = false;
    result.errors.push_back(std::to_string(result.failed) +
                            " operations failed after retries");
  }
  values["error_rate"] = {
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 0.0};

  if (args.trace) {
    std::fprintf(stderr, "# spans written to %s; per round (median):\n",
                 SpanPath(args).c_str());
    const std::string suffix = ".self_us";
    for (const auto& [name, v] : values) {
      if (name.rfind("span.", 0) != 0 || name.size() <= suffix.size() + 5 ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        continue;
      }
      const std::string span = name.substr(5, name.size() - 5 - suffix.size());
      std::fprintf(stderr, "#   %-18s count %8.0f  mean %10.3f us  self %10.3f us\n",
                   span.c_str(), Median(values["span." + span + ".count"]),
                   Median(values["span." + span + ".mean_us"]), Median(v));
    }
  }
  auto emit = [&](const MetricDef& d) {
    double v = d.sample != nullptr ? Percentile(samples[d.sample], d.q)
                                   : Median(values[d.name]);
    if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
    result.metrics.push_back({d.name, v, d.unit});
  };
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  return result;
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

// --- per-round recording -------------------------------------------------

void RecordPhases(const std::vector<OpRecord>& ops, const RoundMarks& marks,
                  RoundOutput* out) {
  const PhaseMarks& m = marks.phases;
  uint64_t committed[5] = {};  // Indexed by Phase.
  uint64_t half_ops[2] = {};   // Base phase: untraced, traced half.
  auto& s = out->samples;
  for (const OpRecord& op : ops) {
    out->attempted += 1;
    if (!op.ok) out->failed += 1;
    const Phase phase = PhaseOf(op.end_s, m);
    if (phase == Phase::kWarmup || phase == Phase::kOutside) continue;
    // A failed operation misses every latency limit.
    const double lat =
        op.ok ? op.latency_ms : std::numeric_limits<double>::infinity();
    if (op.ok) committed[static_cast<int>(phase)] += 1;
    s["all"].push_back(lat);
    s[op.write ? "write" : "read"].push_back(lat);
    if (op.neworder) s["neworder"].push_back(lat);
    if (phase == Phase::kWindow) s["window"].push_back(lat);
    if (phase == Phase::kBase && marks.split >= 0) {
      const int half = op.end_s >= marks.split ? 1 : 0;
      s[half == 1 ? "base_traced" : "base_untraced"].push_back(lat);
      if (op.ok) half_ops[half] += 1;
    }
  }
  auto rate = [&](Phase p) {
    const double seconds = PhaseSeconds(p, m);
    return seconds > 0
               ? static_cast<double>(committed[static_cast<int>(p)]) / seconds
               : 0.0;
  };
  auto& v = out->values;
  v["base_ops_s"] = rate(Phase::kBase);
  v["window_ops_s"] = rate(Phase::kWindow);
  v["after_ops_s"] = rate(Phase::kAfter);
  auto net = [&](const char* rate_name, int phase) {
    return v[rate_name] / (1 - marks.steal[phase]);
  };
  const double base_net = net("base_ops_s", 0);
  if (base_net > 0) {
    v["window_ops_ratio"] = net("window_ops_s", 1) / base_net;
    v["after_ops_ratio"] = net("after_ops_s", 2) / base_net;
  }
  if (marks.split >= 0) {
    v["trace.base_ops_s_untraced"] =
        static_cast<double>(half_ops[0]) / (marks.split - m.measure);
    v["trace.base_ops_s_traced"] =
        static_cast<double>(half_ops[1]) / (m.submit - marks.split);
  }
}

namespace {
bullfrog::obs::Histogram* EngineHistogram(Database* db,
                                          const std::string& family,
                                          const std::string& labels = "") {
  // Re-fetching a registered series returns it; the bounds only apply to
  // a family the engine never registered (an empty histogram).
  return db->metrics().GetHistogram(
      family, labels, bullfrog::obs::MetricsRegistry::LatencyBounds());
}
}  // namespace

void RecordEngine(Database* db, RoundOutput* out) {
  auto& v = out->values;
  auto& reg = db->metrics();
  bullfrog::TransactionManager& txns = db->txns();
  const double begins = static_cast<double>(txns.num_started());
  v["txn.begins"] = begins;
  v["txn.commits"] = static_cast<double>(txns.num_committed());
  v["txn.aborts"] = static_cast<double>(txns.num_aborted());
  v["txn.commit_ratio"] = begins > 0 ? v["txn.commits"] / begins : 0;
  v["txn.wait_die_kills"] = static_cast<double>(
      reg.GetCounter("bullfrog_lock_wait_die_kills_total")->value());
  bullfrog::obs::Histogram* lock_wait =
      EngineHistogram(db, "bullfrog_lock_wait_seconds");
  v["txn.lock_wait_p99_ms"] = lock_wait->Quantile(0.99) * 1e3;
  v["txn.lock_wait_ms"] = lock_wait->sum() * 1e3;
  v["migration.bg_chunk_p50_ms"] =
      EngineHistogram(db, "bullfrog_background_chunk_seconds")->Quantile(0.5) *
      1e3;
  v["server.rejected"] = static_cast<double>(
      reg.GetCounter("bullfrog_server_rejected_queue_full_total")->value());

  double units = 0, lazy = 0, background = 0, forced = 0, rows = 0;
  double retries = 0, aborts = 0, skip_waits = 0;
  for (bullfrog::StatementMigrator* m : db->controller().migrators()) {
    const bullfrog::MigrationStats& s = m->stats();
    units += static_cast<double>(s.units_migrated.load());
    lazy += static_cast<double>(s.units_lazy.load());
    background += static_cast<double>(s.units_background.load());
    forced += static_cast<double>(s.units_forced.load());
    rows += static_cast<double>(s.rows_migrated.load());
    retries += static_cast<double>(s.txn_retries.load());
    aborts += static_cast<double>(s.txn_aborts.load());
    skip_waits += static_cast<double>(s.skip_wait_loops.load());
  }
  v["migration.units_lazy"] = lazy;
  v["migration.units_background"] = background;
  v["migration.units_forced"] = forced;
  v["migration.lazy_share"] = units > 0 ? lazy / units : 0;
  v["migration.rows_per_unit"] = units > 0 ? rows / units : 0;
  v["migration.retries"] = retries;
  v["migration.aborts"] = aborts;
  v["migration.useful_ratio"] = units > 0 ? units / (units + retries) : 0;
  v["migration.skip_waits"] = skip_waits;

  v["mvcc.versions_freed"] =
      static_cast<double>(db->version_gc().versions_freed());
  v["mvcc.gc_passes"] = static_cast<double>(db->version_gc().passes());
  v["mvcc.max_chain"] =
      std::max(v["mvcc.max_chain"],
               static_cast<double>(db->version_gc().last_max_chain()));

  // Request-trace stage aggregates over the round's traced requests.
  const bullfrog::obs::ProfileStore& p = db->profiles();
  v["trace.requests"] = static_cast<double>(p.aggregate_requests());
  for (Stage s : {Stage::kParse, Stage::kExecute, Stage::kMigratePull,
                  Stage::kMigrateWait}) {
    v[std::string("stage.") + bullfrog::obs::StageName(s) + "_ms"] =
        static_cast<double>(p.AggregateStageNanos(s)) / 1e6;
  }
  v["migration.pull_ms"] = v["stage.migrate_pull_ms"];
  v["migration.pull_wait_ms"] = v["stage.migrate_wait_ms"];
}

void CheckUnits(Database* db, RoundOutput* out) {
  for (bullfrog::StatementMigrator* m : db->controller().migrators()) {
    const bullfrog::MigrationStats& s = m->stats();
    const uint64_t parts =
        s.units_lazy.load() + s.units_background.load() + s.units_forced.load();
    if (parts != s.units_migrated.load()) {
      out->Fail("migration: lazy + background + forced = " +
                std::to_string(parts) + " but units migrated = " +
                std::to_string(s.units_migrated.load()));
    }
  }
}

CpuTicks ReadCpuTicks() {
  // Plain read(2) into the stack: no stdio buffer is allocated, so the
  // reading leaves the heap the measured code runs on as it was.
  char buf[512];
  const int fd = open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return CpuTicks();
  const ssize_t n = read(fd, buf, sizeof(buf) - 1);
  close(fd);
  if (n <= 0) return CpuTicks();
  buf[n] = '\0';
  return ParseCpuTicks(buf);
}

double WaitForConvergence(Database* db, int64_t submit_ns,
                          const CpuTicks& at_submit, RoundOutput* out) {
  constexpr double kDeadlineS = 60;
  double bg_progress = -1;
  double& max_chain = out->values["mvcc.max_chain"];
  for (;;) {
    const bool complete = db->controller().IsComplete();
    const int64_t now = NowNs();
    if (bg_progress < 0 &&
        db->controller().timeline().background_start_s >= 0) {
      bg_progress = complete ? 1.0 : db->controller().Progress();
    }
    max_chain = std::max(
        max_chain, static_cast<double>(db->version_gc().last_max_chain()));
    if (complete) {
      out->values["migration.bg_start_progress"] =
          bg_progress < 0 ? 1.0 : bg_progress;
      const double converge = static_cast<double>(now - submit_ns) * 1e-9;
      const double steal = StealShare(at_submit, ReadCpuTicks());
      out->values["converge_s"] = converge;
      out->values["converge_net_s"] = converge * (1 - steal);
      out->values["host.steal_share"] = steal;
      return converge;
    }
    if (static_cast<double>(now - submit_ns) * 1e-9 > kDeadlineS) {
      out->Fail("migration did not complete within 60 s");
      return -1;
    }
    Clock::SleepMicros(500);
  }
}

// --- op stream + ladder -----------------------------------------------

namespace {
uint64_t Mix(uint64_t x) {  // SplitMix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

KvOp KvOpAt(uint64_t seed, uint64_t k, int64_t keys, int update_pct) {
  const uint64_t h = Mix(Mix(seed) ^ k);
  KvOp op;
  op.key = static_cast<int64_t>(h % static_cast<uint64_t>(keys));
  op.write = static_cast<int>((h >> 40) % 100) < update_pct;
  return op;
}

namespace {

// An operation that failed with a retryable status (wait-die) is retried
// after a back-off, up to this many times.
constexpr int kMaxLadderAttempts = 1000;

void LadderBackoff(int attempt) {
  Clock::SleepMicros(int64_t{20} << std::min(attempt, 6));
}

struct LadderThread {
  double parse_ns = 0, exec_ns = 0;
  uint64_t sql_ops = 0;
  double begin_ns = 0, select_ns = 0, update_ns = 0, commit_ns = 0;
  uint64_t db_ops = 0, db_selects = 0, db_updates = 0;
  double wire_ns = 0;
  uint64_t wire_ops = 0, wire_writes = 0;
  std::string error;
};

std::string LadderSql(const LadderSpec& spec, const KvOp& op) {
  const std::string key = std::to_string(spec.key_lo + op.key);
  return op.write ? "UPDATE " + spec.table + " SET " + spec.upd_col + " = " +
                        spec.upd_col + " + 1 WHERE " + spec.key_col + " = " +
                        key
                  : "SELECT * FROM " + spec.table + " WHERE " + spec.key_col +
                        " = " + key;
}

void SqlRung(Database* db, const LadderSpec& spec, int t, SpanBuffer* spans,
             LadderThread* out) {
  bullfrog::sql::SqlEngine engine(db);
  for (uint64_t k = static_cast<uint64_t>(t); k < spec.ops;
       k += static_cast<uint64_t>(spec.threads)) {
    const KvOp op = KvOpAt(spec.seed, k, spec.keys, spec.update_pct);
    const std::string sql = LadderSql(spec, op);
    for (int attempt = 0;; ++attempt) {
      spans->Open("ladder.sql_op", k + 1, NowNs());
      const int64_t t0 = NowNs();
      auto parsed = bullfrog::sql::ParseSql(sql);
      const int64_t t1 = NowNs();
      spans->Add("sql.parse", k + 1, t0, t1);
      if (!parsed.ok()) {
        spans->Close(t1);
        out->error = "parse: " + parsed.status().ToString();
        return;
      }
      auto result = engine.ExecuteParsed(*parsed, sql);
      const int64_t t2 = NowNs();
      spans->Add("sql.exec", k + 1, t1, t2);
      spans->Close(t2);
      out->parse_ns += static_cast<double>(t1 - t0);
      out->exec_ns += static_cast<double>(t2 - t1);
      out->sql_ops += 1;
      if (result.ok()) break;
      if (!result.status().IsRetryable() || attempt >= kMaxLadderAttempts) {
        out->error = "sql rung: " + result.status().ToString();
        return;
      }
      LadderBackoff(attempt);
    }
  }
}

void DbRung(Database* db, const LadderSpec& spec, int t, SpanBuffer* spans,
            LadderThread* out) {
  using bullfrog::Tuple;
  using bullfrog::Value;
  const std::vector<std::string> tables = {spec.table};
  const auto& schema = db->catalog().FindTable(spec.table)->schema();
  const size_t upd_idx = schema.ColumnIndex(spec.upd_col).value_or(0);
  auto bump = [upd_idx](const Tuple& row) {
    Tuple next = row;
    next[upd_idx] = Value::Int(row[upd_idx].AsInt() + 1);
    return next;
  };
  for (uint64_t k = static_cast<uint64_t>(t); k < spec.ops;
       k += static_cast<uint64_t>(spec.threads)) {
    const KvOp op = KvOpAt(spec.seed, k, spec.keys, spec.update_pct);
    const auto pred = bullfrog::Eq(bullfrog::Col(spec.key_col),
                                   bullfrog::LitInt(spec.key_lo + op.key));
    for (int attempt = 0;; ++attempt) {
      spans->Open("ladder.db_op", k + 1, NowNs());
      const int64_t t0 = NowNs();
      Database::Session session = db->BeginSession(tables);
      const int64_t t1 = NowNs();
      spans->Add("db.begin", k + 1, t0, t1);
      Status st;
      if (op.write) {
        st = db->Update(&session, spec.table, pred, bump).status();
      } else {
        st = db->Select(&session, spec.table, pred).status();
      }
      const int64_t t2 = NowNs();
      spans->Add(op.write ? "db.update" : "db.select", k + 1, t1, t2);
      if (st.ok()) {
        st = db->Commit(&session);
      } else {
        (void)db->Abort(&session);
      }
      const int64_t t3 = NowNs();
      spans->Add("db.commit", k + 1, t2, t3);
      spans->Close(t3);
      out->begin_ns += static_cast<double>(t1 - t0);
      (op.write ? out->update_ns : out->select_ns) +=
          static_cast<double>(t2 - t1);
      (op.write ? out->db_updates : out->db_selects) += 1;
      out->commit_ns += static_cast<double>(t3 - t2);
      out->db_ops += 1;
      if (st.ok()) break;
      if (!st.IsRetryable() || attempt >= kMaxLadderAttempts) {
        out->error = "db rung: " + st.ToString();
        return;
      }
      LadderBackoff(attempt);
    }
  }
}

/// The wire rung: the same statements through an in-process Server on
/// loopback, each request traced (client-sent trace id) so the server's
/// stage aggregates cover exactly these requests.
void WireRung(uint16_t port, const LadderSpec& spec, int t, SpanBuffer* spans,
              LadderThread* out) {
  bullfrog::server::Client client;
  Status st = client.Connect("127.0.0.1", port);
  if (!st.ok()) {
    out->error = "wire rung: " + st.ToString();
    return;
  }
  for (uint64_t k = static_cast<uint64_t>(t); k < spec.ops;
       k += static_cast<uint64_t>(spec.threads)) {
    const KvOp op = KvOpAt(spec.seed, k, spec.keys, spec.update_pct);
    const std::string sql = LadderSql(spec, op);
    for (int attempt = 0;; ++attempt) {
      const int64_t t0 = NowNs();
      auto result =
          client.Query(sql, bullfrog::obs::TraceSampler::NextTraceId());
      const int64_t t1 = NowNs();
      spans->Add("ladder.wire_op", k + 1, t0, t1);
      out->wire_ns += static_cast<double>(t1 - t0);
      out->wire_ops += 1;
      out->wire_writes += op.write ? 1 : 0;
      if (result.ok()) break;
      if (!result.status().IsRetryable() || attempt >= kMaxLadderAttempts) {
        out->error = "wire rung: " + result.status().ToString();
        return;
      }
      LadderBackoff(attempt);
    }
  }
}

}  // namespace

void RunLadder(Database* db, const LadderSpec& spec, SpanSink* sink,
               RoundOutput* out) {
  const bullfrog::Table* table = db->catalog().FindTable(spec.table);
  if (table == nullptr || !table->schema().ColumnIndex(spec.upd_col)) {
    out->Fail("ladder: no column " + spec.table + "." + spec.upd_col);
    return;
  }
  bullfrog::server::ServerConfig config;
  config.workers = spec.threads;
  bullfrog::server::Server server(db, config);
  Status st = server.Start();
  if (!st.ok()) {
    out->Fail("ladder: server start: " + st.ToString());
    return;
  }
  bullfrog::obs::Histogram* handle = EngineHistogram(
      db, "bullfrog_server_request_seconds", "opcode=\"query\"");
  const bullfrog::obs::ProfileStore& profiles = db->profiles();
  const double handle_sum0 = handle->sum();
  const uint64_t handle_count0 = handle->count();
  const int64_t wal_sync0 = profiles.AggregateStageNanos(Stage::kWalSync);

  std::vector<LadderThread> per(static_cast<size_t>(spec.threads));
  for (int rung = 0; rung < 3; ++rung) {
    std::vector<std::thread> threads;
    for (int t = 0; t < spec.threads; ++t) {
      threads.emplace_back([&, rung, t] {
        SpanBuffer spans(static_cast<uint32_t>(0x100 + rung * 0x40 + t));
        spans.set_enabled(true);
        LadderThread& lt = per[static_cast<size_t>(t)];
        if (rung == 0) {
          WireRung(server.port(), spec, t, &spans, &lt);
        } else if (rung == 1) {
          SqlRung(db, spec, t, &spans, &lt);
        } else {
          DbRung(db, spec, t, &spans, &lt);
        }
        sink->Absorb(&spans);
      });
    }
    for (std::thread& th : threads) th.join();
    if (rung == 0) server.Stop();
  }
  LadderThread sum;
  for (const LadderThread& p : per) {
    if (!p.error.empty()) out->Fail(p.error);
    sum.parse_ns += p.parse_ns;
    sum.exec_ns += p.exec_ns;
    sum.sql_ops += p.sql_ops;
    sum.begin_ns += p.begin_ns;
    sum.select_ns += p.select_ns;
    sum.update_ns += p.update_ns;
    sum.commit_ns += p.commit_ns;
    sum.db_ops += p.db_ops;
    sum.db_selects += p.db_selects;
    sum.db_updates += p.db_updates;
    sum.wire_ns += p.wire_ns;
    sum.wire_ops += p.wire_ops;
    sum.wire_writes += p.wire_writes;
  }
  auto mean_us = [](double ns, uint64_t n) {
    return n > 0 ? ns / 1e3 / static_cast<double>(n) : 0.0;
  };
  auto& v = out->values;
  v["sql.parse_us"] = mean_us(sum.parse_ns, sum.sql_ops);
  v["sql.exec_us"] = mean_us(sum.exec_ns, sum.sql_ops);
  v["db.begin_us"] = mean_us(sum.begin_ns, sum.db_ops);
  v["db.select_us"] = mean_us(sum.select_ns, sum.db_selects);
  v["db.update_us"] = mean_us(sum.update_ns, sum.db_updates);
  v["db.commit_us"] = mean_us(sum.commit_ns, sum.db_ops);
  // Server handling of the wire rung's requests, and the wire: the
  // client-timed round trip minus that handling.
  const uint64_t handled = handle->count() - handle_count0;
  const double handle_us =
      handled > 0 ? (handle->sum() - handle_sum0) * 1e6 / handled : 0;
  v["server.handle_us"] = handle_us;
  v["server.wire_us"] = mean_us(sum.wire_ns, sum.wire_ops) - handle_us;
  v["txn.wal_wait_us"] = mean_us(
      static_cast<double>(profiles.AggregateStageNanos(Stage::kWalSync) -
                          wal_sync0),
      sum.wire_writes);
  // Group commit over the round so far (a TPC-C round logs only the
  // ladder's statements; kv-wire also its own load).
  bullfrog::obs::Histogram* batch =
      EngineHistogram(db, "bullfrog_wal_group_commit_batch_size");
  v["txn.wal_batch_mean"] =
      batch->count() > 0 ? batch->sum() / static_cast<double>(batch->count())
                         : 0;
  v["txn.wal_sync_p50_ms"] =
      EngineHistogram(db, "bullfrog_wal_sync_seconds")->Quantile(0.5) * 1e3;
}

// --- spans ---------------------------------------------------------------

void RecordSpans(const Args& args, const SpanSink& sink, RoundOutput* out) {
  if (!sink.AppendTsv(SpanPath(args))) {
    std::fprintf(stderr, "migbench: could not write %s\n",
                 SpanPath(args).c_str());
  }
  for (const SelfTime& t : ComputeSelfTimes(sink.spans())) {
    const double n = static_cast<double>(t.count);
    out->values["span." + t.name + ".count"] = n;
    out->values["span." + t.name + ".mean_us"] =
        static_cast<double>(t.total_ns) / 1e3 / n;
    out->values["span." + t.name + ".self_us"] =
        static_cast<double>(t.self_ns) / 1e3 / n;
  }
}

double SelfUs(const RoundOutput& out, const std::string& name) {
  auto it = out.values.find("span." + name + ".self_us");
  return it == out.values.end() ? 0.0 : it->second;
}

double TotalUs(const RoundOutput& out, const std::string& name) {
  auto it = out.values.find("span." + name + ".mean_us");
  return it == out.values.end() ? 0.0 : it->second;
}

}  // namespace migbench
