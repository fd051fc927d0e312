// Self-test of the benchmark's arithmetic: percentiles, the phase split,
// the steal share and span self time. Build and run with
//   python3 migbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  using migbench::Percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted.
  EXPECT(Near(Percentile(v, 0.50), 50));
  EXPECT(Near(Percentile(v, 0.99), 99));
  EXPECT(Near(Percentile(v, 1.0), 100));
  EXPECT(Near(Percentile(v, 0.0), 1));
  EXPECT(Near(Percentile({7}, 0.99), 7));
  EXPECT(Near(Percentile({}, 0.5), 0));
  // Nearest rank: ceil(0.5 * 3) = 2nd smallest.
  EXPECT(Near(Percentile({3, 1, 2}, 0.5), 2));
  // An infinite (failed) sample lands at the top.
  EXPECT(std::isinf(Percentile({1, 2, INFINITY}, 1.0)));
  EXPECT(Near(migbench::Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(migbench::Median({5, 1, 3}), 3));
}

void TestPhases() {
  using migbench::Phase;
  migbench::PhaseMarks m{1.0, 3.0, 4.5, 6.0};
  EXPECT(migbench::PhaseOf(0.5, m) == Phase::kWarmup);
  EXPECT(migbench::PhaseOf(1.0, m) == Phase::kBase);
  EXPECT(migbench::PhaseOf(2.999, m) == Phase::kBase);
  EXPECT(migbench::PhaseOf(3.0, m) == Phase::kWindow);
  EXPECT(migbench::PhaseOf(4.5, m) == Phase::kAfter);
  EXPECT(migbench::PhaseOf(6.0, m) == Phase::kOutside);
  EXPECT(migbench::PhaseOf(-0.1, m) == Phase::kOutside);
  EXPECT(Near(migbench::PhaseSeconds(Phase::kBase, m), 2.0));
  EXPECT(Near(migbench::PhaseSeconds(Phase::kWindow, m), 1.5));
  EXPECT(Near(migbench::PhaseSeconds(Phase::kAfter, m), 1.5));
}

void TestSelfTime() {
  // Children overlap each other and stick out of the parent.
  EXPECT(migbench::UncoveredNanos(0, 100, {{10, 30}, {20, 40}, {90, 150}}) ==
         100 - 30 - 10);
  EXPECT(migbench::UncoveredNanos(0, 100, {}) == 100);
  EXPECT(migbench::UncoveredNanos(0, 100, {{-5, 200}}) == 0);
  EXPECT(migbench::UncoveredNanos(50, 40, {}) == 0);

  migbench::SpanBuffer buf(1);
  buf.Open("root", 0, 0);  // Disabled: ignored.
  buf.Close(10);
  EXPECT(buf.spans().empty());
  buf.set_enabled(true);
  buf.Open("gen.request", 7, 0);
  buf.Open("server.query", 7, 10);
  buf.Add("sql.parse", 7, 12, 20);
  buf.Close(60);
  buf.Open("server.query", 7, 70);
  buf.Close(90);
  buf.Close(100);
  const auto& spans = buf.spans();
  EXPECT(spans.size() == 4);
  EXPECT(spans[1].parent == spans[0].id);
  EXPECT(spans[2].parent == spans[1].id);
  EXPECT(spans[3].parent == spans[0].id);
  EXPECT(spans[0].request == 7);
  for (const migbench::SelfTime& t : migbench::ComputeSelfTimes(spans)) {
    if (t.name == "gen.request") {
      EXPECT(t.count == 1 && t.total_ns == 100 && t.self_ns == 100 - 50 - 20);
    } else if (t.name == "server.query") {
      EXPECT(t.count == 2 && t.total_ns == 70 && t.self_ns == 70 - 8);
    } else if (t.name == "sql.parse") {
      EXPECT(t.count == 1 && t.self_ns == 8);
    } else {
      EXPECT(false && "unexpected span name");
    }
  }
}

void TestSteal() {
  using migbench::CpuTicks;
  using migbench::ParseCpuTicks;
  using migbench::StealShare;
  // user nice system idle iowait irq softirq steal guest guest_nice
  const CpuTicks a =
      ParseCpuTicks("cpu  600 0 100 900 50 0 40 60 0 0\n");
  EXPECT(Near(a.busy, 600 + 100 + 40 + 60) && Near(a.steal, 60));
  const CpuTicks b =
      ParseCpuTicks("cpu  900 0 150 950 50 0 50 160 0 0\n");
  // Busy +460 ticks (idle and iowait excluded), of which steal +100.
  EXPECT(Near(StealShare(a, b), 100.0 / 460.0));
  EXPECT(Near(StealShare(a, a), 0));
  // No steal field (old kernels), or not a cpu line: no steal seen.
  EXPECT(Near(ParseCpuTicks("cpu  1 2 3 4 5 6 7").steal, 0));
  EXPECT(Near(ParseCpuTicks("intr 12 34").busy, 0));
  EXPECT(Near(StealShare(ParseCpuTicks("bad"), ParseCpuTicks("bad")), 0));
}

}  // namespace

int main() {
  TestPercentile();
  TestPhases();
  TestSteal();
  TestSelfTime();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
