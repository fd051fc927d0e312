#ifndef MIGBENCH_SPANS_H_
#define MIGBENCH_SPANS_H_

// In-memory span recording for the traced run. Spans are recorded by the
// benchmark around its own calls into each engine module (tpcc, server,
// sql, bullfrog, migration); nothing inside the engine is edited. Each
// worker thread owns a SpanBuffer, so recording takes no lock; buffers
// are merged and written out once the run ends.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace migbench {

struct Span {
  const char* name = "";  // Static string (a layer-qualified call name).
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root.
  uint64_t request = 0;  // Request id shared by a request's spans.
  int64_t start_ns = 0;  // Clock::NowNanos() values.
  int64_t end_ns = 0;
};

/// One thread's spans. Open/Close nest: a span opened while another is
/// open on the same buffer becomes its child.
class SpanBuffer {
 public:
  /// `tag` makes span ids unique across buffers (ids are tag << 40 | seq).
  explicit SpanBuffer(uint32_t tag) : tag_(tag) {}

  /// Recording is off by default; a disabled buffer ignores every call.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// disabled).
  uint64_t Open(const char* name, uint64_t request, int64_t start_ns);
  /// Closes the innermost open span.
  void Close(int64_t end_ns);
  /// Records an already-closed interval under the innermost open span.
  void Add(const char* name, uint64_t request, int64_t start_ns,
           int64_t end_ns);

  std::vector<Span>& spans() { return spans_; }

 private:
  uint64_t NextId() { return (static_cast<uint64_t>(tag_) << 40) | ++seq_; }

  uint32_t tag_;
  uint64_t seq_ = 0;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // Indexes into spans_ of open spans.
};

/// Collects finished buffers from every thread of the run.
class SpanSink {
 public:
  void Absorb(SpanBuffer* buffer);
  const std::vector<Span>& spans() const { return spans_; }
  /// Appends one line per span to `path`: id parent request name
  /// start_ns end_ns (tab-separated; start/end relative to the earliest
  /// span of this sink). kTsvHeader names the columns.
  bool AppendTsv(const std::string& path) const;
  static constexpr char kTsvHeader[] =
      "id\tparent\trequest\tname\tstart_ns\tend_ns\n";

 private:
  std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_ while threads run.
};

/// Length of [lo, hi) not covered by the union of `children` (each
/// clipped to [lo, hi)). A span's self time is this over its children.
int64_t UncoveredNanos(int64_t lo, int64_t hi,
                       std::vector<std::pair<int64_t, int64_t>> children);

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part covered by child spans).
struct SelfTime {
  std::string name;
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::vector<SelfTime> ComputeSelfTimes(const std::vector<Span>& spans);

}  // namespace migbench

#endif  // MIGBENCH_SPANS_H_
