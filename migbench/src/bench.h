#ifndef MIGBENCH_BENCH_H_
#define MIGBENCH_BENCH_H_

// Shared pieces of the migration-window benchmark: run arguments, the
// per-round output and its reduction into the printed metrics, engine
// counter harvesting, and the layer ladder.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bullfrog/database.h"
#include "spans.h"
#include "stats.h"

namespace migbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // Span files, WAL files.
  // Generator threads: min(4, nproc). kv-wire opens this many
  // connections; TPC-C runs one terminal fewer beside its background
  // migrator thread.
  int threads = 4;
};

/// What one round reports. `values` are per-round scalars (a run reports
/// their median over rounds); `samples` are latency samples in ms that a
/// run pools over rounds before taking percentiles.
struct RoundOutput {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;

  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// The reduced run, printed as the last stdout line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  std::string ToJson() const;
};

/// Runs `rounds` rounds of a workload, each in its own forked child
/// process (a fresh address space per round: no round inherits another's
/// allocator state, and tearing a loaded database down costs only the
/// process exit). Children run one at a time; the parent stays
/// single-threaded. Reduces the outputs into the end-to-end metrics
/// (trace off) or the per-layer metrics (trace on); see README.md.
using RoundFn = std::function<void(int round, RoundOutput* out)>;
RunResult RunRounds(const Args& args, int rounds, const RoundFn& fn);

/// One foreground operation, as seen by the generator.
struct OpRecord {
  double end_s = 0;       // Completion on the round clock.
  double latency_ms = 0;  // From first attempt (open loop: due time).
  bool ok = true;         // False: failed after retries.
  bool write = false;     // Modifies data (false: read-only operation).
  bool neworder = false;  // TPC-C NewOrder (the paper's plotted class).
};

/// Round markers: the phase split plus, in the traced run, where tracing
/// turns on: the base phase runs untraced in [measure, split) and traced
/// from `split` to the end of the round.
struct RoundMarks {
  PhaseMarks phases;
  double split = -1;  // < 0: untraced round.
  /// Closed loop only: the steal share (StealShare) of the base, window
  /// and after phases. A closed loop's throughput follows the CPU the
  /// host leaves this machine, which can change from one phase to the
  /// next; the phase ratios compare rates net of it. An open loop's rate
  /// is its schedule, so it leaves these 0.
  double steal[3] = {0, 0, 0};
};

/// Phase throughput (values base/window/after_ops_s and the traced and
/// untraced base halves), the window and after phases' rates as a share
/// of the base phase's, each net of its steal share (window_ops_ratio,
/// after_ops_ratio), and latency samples (all, read, write, window,
/// neworder, base_untraced, base_traced); counts attempted and failed.
void RecordPhases(const std::vector<OpRecord>& ops, const RoundMarks& marks,
                  RoundOutput* out);

/// The round's engine counters as per-layer values: migration (summed
/// over statement migrators), txn, WAL, mvcc, server, and the request
/// trace stage aggregates. Call after the round's load has stopped.
void RecordEngine(bullfrog::Database* db, RoundOutput* out);

/// Fails the round unless every migrator's lazy + background + forced
/// units add up to its units migrated.
void CheckUnits(bullfrog::Database* db, RoundOutput* out);

/// The aggregate CPU ticks of /proc/stat (CpuTicks, stats.h); zero ticks
/// when it cannot be read (then no steal is seen).
CpuTicks ReadCpuTicks();

/// Polls the controller until the migration completes; fails the round
/// if that takes longer than 60 s. Records converge_s (seconds from
/// `submit_ns` to the observed completion), converge_net_s (converge_s
/// less the share the host stole since `at_submit`, read just before
/// the submit) and host.steal_share; returns converge_s (< 0 on
/// timeout). Records the progress at background start and the longest
/// version chain seen.
double WaitForConvergence(bullfrog::Database* db, int64_t submit_ns,
                          const CpuTicks& at_submit, RoundOutput* out);

/// The seeded op stream shared by the kv-wire generator and the ladder:
/// op `k` reads or updates one uniformly drawn key.
struct KvOp {
  int64_t key;
  bool write;
};
KvOp KvOpAt(uint64_t seed, uint64_t k, int64_t keys, int update_pct);

/// Layer ladder: replays the op stream at the SqlEngine rung (tokenize +
/// parse timed apart from ExecuteParsed) and at the Database API rung
/// (BeginSession / Select / Update / Commit timed apart), closed loop on
/// `threads` threads. Keys are `key_col` in [key_lo, key_lo + keys);
/// updates add 1 to `upd_col`. Records sql.* and db.* means (us).
struct LadderSpec {
  std::string table, key_col, upd_col;
  int64_t key_lo = 0;
  int64_t keys = 1;
  int update_pct = 10;
  uint64_t seed = 1;
  int threads = 4;
  uint64_t ops = 8000;  // Per rung, split over the threads.
};
void RunLadder(bullfrog::Database* db, const LadderSpec& spec, SpanSink* sink,
               RoundOutput* out);

/// Appends the round's spans to <out_dir>/spans-<workload>-s<seed>.tsv
/// and records per-name count, mean and self time (span.<name>.*).
void RecordSpans(const Args& args, const SpanSink& sink, RoundOutput* out);
/// Mean self / total time (us) of the round's spans named `name`.
double SelfUs(const RoundOutput& out, const std::string& name);
double TotalUs(const RoundOutput& out, const std::string& name);

/// Nanoseconds on the engine's steady clock.
int64_t NowNs();
void SleepSeconds(double s);

/// Workload entry points.
RunResult RunTpcc(const Args& args);
RunResult RunKvWire(const Args& args);

}  // namespace migbench

#endif  // MIGBENCH_BENCH_H_
