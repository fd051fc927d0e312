#ifndef MIGBENCH_STATS_H_
#define MIGBENCH_STATS_H_

// The benchmark's arithmetic: percentiles, the base/window/after phase
// split and the host's steal share. Header-only so the self-test (tests/stats_test.cc) checks
// exactly what the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace migbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// q * n samples are <= it (q in [0, 1]). 0 for an empty set.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

/// Median by linear interpolation between the two middle samples (the
/// statistic reported across rounds). 0 for an empty set.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Where an operation falls in a round, by its completion time.
enum class Phase { kWarmup, kBase, kWindow, kAfter, kOutside };

/// One round's markers, in seconds on the round clock:
///   [0, measure)        warm-up (not reported)
///   [measure, submit)   base: before the migration is submitted
///   [submit, complete)  window: the migration is in flight
///   [complete, stop)    after: the migration has converged
struct PhaseMarks {
  double measure = 0;
  double submit = 0;
  double complete = 0;
  double stop = 0;
};

inline Phase PhaseOf(double t, const PhaseMarks& m) {
  if (t < 0 || t >= m.stop) return Phase::kOutside;
  if (t < m.measure) return Phase::kWarmup;
  if (t < m.submit) return Phase::kBase;
  if (t < m.complete) return Phase::kWindow;
  return Phase::kAfter;
}

inline double PhaseSeconds(Phase p, const PhaseMarks& m) {
  switch (p) {
    case Phase::kWarmup:
      return m.measure;
    case Phase::kBase:
      return m.submit - m.measure;
    case Phase::kWindow:
      return m.complete - m.submit;
    case Phase::kAfter:
      return m.stop - m.complete;
    default:
      return 0;
  }
}

/// CPU time this machine's CPUs were busy, and the part of it the host
/// stole, in clock ticks. Steal is time a virtual CPU here was runnable
/// while the host ran something else: on a shared host it stretches every
/// wall time here by a share no code change causes.
struct CpuTicks {
  double busy = 0;  // user + nice + system + irq + softirq + steal.
  double steal = 0;
};

/// Parses the aggregate line of /proc/stat,
///   "cpu  user nice system idle iowait irq softirq steal ...".
/// Zero ticks when the line is not one; zero steal when it has no field.
inline CpuTicks ParseCpuTicks(const char* line) {
  unsigned long long v[8] = {};
  const int n = std::sscanf(line, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  CpuTicks t;
  if (n < 7) return t;
  t.steal = n >= 8 ? static_cast<double>(v[7]) : 0.0;
  t.busy = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]) + t.steal;
  return t;
}

/// Share of the busy time between `a` and `b` that the host stole, in
/// [0, 0.99]; 0 when nothing was busy or no steal was accounted.
inline double StealShare(const CpuTicks& a, const CpuTicks& b) {
  const double busy = b.busy - a.busy;
  const double steal = b.steal - a.steal;
  if (busy <= 0 || steal <= 0) return 0;
  return std::min(steal / busy, 0.99);
}

}  // namespace migbench

#endif  // MIGBENCH_STATS_H_
