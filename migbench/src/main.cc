// migbench — the migration-window benchmark.
//
//   migbench --workload <tpcc-split|tpcc-join|kv-wire> --seed N
//            --seconds S --trace <0|1>
//
// Runs the workload for about S seconds of measurement (several rounds,
// each with its own freshly loaded database and one lazy migration),
// checks the results, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones
// (README.md lists both). Progress and the run record go to stderr; span
// and WAL files to .bench_out/ under the working directory. Exits 1 when
// a correctness check fails.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: migbench --workload <tpcc-split|tpcc-join|kv-wire> "
               "--seed N --seconds S --trace <0|1>\n");
  return 2;
}

const char* EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : v;
}

}  // namespace

int main(int argc, char** argv) {
  migbench::Args args;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  args.threads = std::min(4, nproc);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0) {
    return Usage();
  }
  mkdir(args.out_dir.c_str(), 0755);

  // Run record: host, build, seed and the engine knobs in force.
  std::fprintf(stderr,
               "# migbench workload=%s seed=%llu seconds=%g trace=%d "
               "nproc=%d threads=%d build=%s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, nproc, args.threads, MIGBENCH_BUILD_TYPE);
  std::fprintf(stderr,
               "# knobs BF_WAL_FSYNC=%s BF_GROUP_COMMIT=%s "
               "BF_GROUP_COMMIT_MAX_BATCH=%s BF_GROUP_COMMIT_MAX_WAIT_US=%s "
               "BF_SNAPSHOT_READS=%s BF_MVCC_GC_MS=%s BF_TRACE_SAMPLE=%s\n",
               EnvOr("BF_WAL_FSYNC", "(default)"),
               EnvOr("BF_GROUP_COMMIT", "(default)"),
               EnvOr("BF_GROUP_COMMIT_MAX_BATCH", "(default)"),
               EnvOr("BF_GROUP_COMMIT_MAX_WAIT_US", "(default)"),
               EnvOr("BF_SNAPSHOT_READS", "(default)"),
               EnvOr("BF_MVCC_GC_MS", "(default)"),
               EnvOr("BF_TRACE_SAMPLE", "(default)"));

  migbench::RunResult result;
  if (args.workload == "tpcc-split" || args.workload == "tpcc-join") {
    result = migbench::RunTpcc(args);
  } else if (args.workload == "kv-wire") {
    result = migbench::RunKvWire(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }

  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
