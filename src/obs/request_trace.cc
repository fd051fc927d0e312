#include "obs/request_trace.h"

#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "common/env.h"

namespace bullfrog::obs {

namespace {

struct TlsTrace {
  TraceContext* trace = nullptr;
  int depth = 0;
};

thread_local TlsTrace g_tls;

std::string FormatMillis(int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) * 1e-6);
  return buf;
}

std::string FormatTraceId(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// One attribution line, e.g.
// `stages: parse=0.1ms execute=9.8ms migrate_pull=7.2ms(42)`.
// Stages with neither time nor count are omitted.
std::string RenderStages(const TraceContext& t) {
  std::string out = "stages:";
  bool any = false;
  for (int i = 0; i < static_cast<int>(Stage::kNumStages); ++i) {
    Stage s = static_cast<Stage>(i);
    int64_t ns = t.StageNanos(s);
    uint64_t n = t.StageCount(s);
    if (ns == 0 && n == 0) continue;
    any = true;
    out.push_back(' ');
    out.append(StageName(s));
    out.push_back('=');
    out.append(FormatMillis(ns));
    if (n > 1 || (n > 0 && (s == Stage::kMigratePull ||
                            s == Stage::kMigrateWait))) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "(%llu)",
                    static_cast<unsigned long long>(n));
      out.append(buf);
    }
  }
  if (!any) out.append(" (none)");
  return out;
}

}  // namespace

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kParse: return "parse";
    case Stage::kExecute: return "execute";
    case Stage::kLockWait: return "lock_wait";
    case Stage::kMigratePull: return "migrate_pull";
    case Stage::kMigrateWait: return "migrate_wait";
    case Stage::kWalSync: return "wal_sync";
    case Stage::kShardSend: return "shard_send";
    case Stage::kShardWait: return "shard_wait";
    case Stage::kShardMerge: return "shard_merge";
    case Stage::kNumStages: break;
  }
  return "?";
}

TraceContext::TraceContext(uint64_t id, std::string sql)
    : id_(id), sql_(std::move(sql)), start_ns_(Clock::NowNanos()) {}

void TraceContext::AddStage(Stage s, int64_t ns, uint64_t count) {
  int i = static_cast<int>(s);
  if (ns != 0) stage_ns_[i].fetch_add(ns, std::memory_order_relaxed);
  if (count != 0) stage_count_[i].fetch_add(count, std::memory_order_relaxed);
}

int64_t TraceContext::StageNanos(Stage s) const {
  return stage_ns_[static_cast<int>(s)].load(std::memory_order_relaxed);
}

uint64_t TraceContext::StageCount(Stage s) const {
  return stage_count_[static_cast<int>(s)].load(std::memory_order_relaxed);
}

void TraceContext::RecordSpan(const char* name, int64_t start_abs_ns,
                              int64_t dur_ns, std::string detail, int depth) {
  if (depth <= 0) depth = g_tls.depth + 1;
  Span span;
  span.name = name;
  span.detail = std::move(detail);
  span.start_ns = start_abs_ns - start_ns_;
  span.dur_ns = dur_ns;
  span.depth = depth;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void TraceContext::Finish() { FinishAt(Clock::NowNanos()); }

void TraceContext::FinishAt(int64_t end_abs_ns) {
  int64_t expected = -1;
  int64_t total = end_abs_ns - start_ns_;
  total_ns_.compare_exchange_strong(expected, total,
                                    std::memory_order_acq_rel);
}

int64_t TraceContext::total_ns() const {
  int64_t v = total_ns_.load(std::memory_order_acquire);
  return v < 0 ? Clock::NowNanos() - start_ns_ : v;
}

int64_t TraceContext::AccountedNanos() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t sum = 0;
  for (const Span& s : spans_) {
    if (s.depth == 1) sum += s.dur_ns;
  }
  return sum;
}

std::string TraceContext::Render() const {
  std::string out = "trace id=";
  out.append(FormatTraceId(id_));
  char buf[96];
  std::snprintf(buf, sizeof(buf), " total_ns=%lld accounted_ns=%lld",
                static_cast<long long>(total_ns()),
                static_cast<long long>(AccountedNanos()));
  out.append(buf);
  out.append(" sql=\"");
  out.append(sql_);
  out.append("\"\n");
  out.append(RenderStages(*this));
  out.push_back('\n');
  // Sort a copy by start time (stable, so same-start parents precede
  // their children thanks to insertion order).
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     return a.start_ns < b.start_ns;
                   });
  for (const Span& s : spans) {
    out.append(static_cast<size_t>(std::max(s.depth, 1)) * 2, ' ');
    out.append("[+");
    out.append(FormatMillis(std::max<int64_t>(s.start_ns, 0)));
    out.push_back(' ');
    out.append(FormatMillis(s.dur_ns));
    out.append("] ");
    out.append(s.name);
    if (!s.detail.empty()) {
      out.push_back(' ');
      out.append(s.detail);
    }
    out.push_back('\n');
  }
  return out;
}

TraceContext* CurrentTrace() { return g_tls.trace; }
int CurrentTraceDepth() { return g_tls.depth; }

void TraceAddStage(Stage s, int64_t ns, uint64_t count) {
  if (g_tls.trace != nullptr) g_tls.trace->AddStage(s, ns, count);
}

TraceBinding::TraceBinding(TraceContext* trace, int base_depth)
    : saved_trace_(g_tls.trace), saved_depth_(g_tls.depth) {
  g_tls.trace = trace;
  g_tls.depth = base_depth;
}

TraceBinding::~TraceBinding() {
  g_tls.trace = saved_trace_;
  g_tls.depth = saved_depth_;
}

ScopedSpan::ScopedSpan(const char* name, Stage stage)
    : trace_(g_tls.trace), name_(name), stage_(stage) {
  if (trace_ == nullptr) return;
  depth_ = ++g_tls.depth;
  start_abs_ = Clock::NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  int64_t dur = Clock::NowNanos() - start_abs_;
  trace_->RecordSpan(name_, start_abs_, dur, std::move(detail_), depth_);
  if (stage_ != Stage::kNumStages) trace_->AddStage(stage_, dur, 1);
  --g_tls.depth;
}

TraceSampler::TraceSampler() : every_(EnvInt64("BF_TRACE_SAMPLE", 0)) {}

bool TraceSampler::Sample() {
  int64_t every = every_.load(std::memory_order_relaxed);
  if (every <= 0) return false;
  if (every == 1) return true;
  return n_.fetch_add(1, std::memory_order_relaxed) %
             static_cast<uint64_t>(every) ==
         0;
}

uint64_t TraceSampler::NextTraceId() {
  static std::atomic<uint64_t> counter{0};
  // splitmix64 over a clock/counter mix: unique within a process run and
  // unlikely to collide across processes, which is all ids are used for.
  uint64_t x = static_cast<uint64_t>(Clock::NowNanos()) +
               0x9e3779b97f4a7c15ULL *
                   (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

ProfileStore::ProfileStore()
    : ProfileStore(64, static_cast<size_t>(std::max<int64_t>(
                           1, EnvInt64("BF_SLOWLOG_K", 16)))) {}

ProfileStore::ProfileStore(size_t recent_capacity, size_t slow_k)
    : recent_capacity_(std::max<size_t>(recent_capacity, 1)),
      slow_k_(std::max<size_t>(slow_k, 1)) {}

void ProfileStore::Record(std::shared_ptr<const TraceContext> trace) {
  if (trace == nullptr) return;
  agg_requests_.fetch_add(1, std::memory_order_relaxed);
  agg_total_ns_.fetch_add(trace->total_ns(), std::memory_order_relaxed);
  for (int i = 0; i < static_cast<int>(Stage::kNumStages); ++i) {
    Stage s = static_cast<Stage>(i);
    int64_t ns = trace->StageNanos(s);
    uint64_t n = trace->StageCount(s);
    if (ns != 0) agg_stage_ns_[i].fetch_add(ns, std::memory_order_relaxed);
    if (n != 0) agg_stage_count_[i].fetch_add(n, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(trace);
  if (recent_.size() > recent_capacity_) recent_.pop_front();
  // Slowlog: insert in descending-duration order, keep the top K.
  int64_t total = trace->total_ns();
  auto it = std::upper_bound(
      slow_.begin(), slow_.end(), total,
      [](int64_t t, const std::shared_ptr<const TraceContext>& e) {
        return t > e->total_ns();
      });
  slow_.insert(it, std::move(trace));
  if (slow_.size() > slow_k_) slow_.pop_back();
}

std::string ProfileStore::RenderProfile(uint64_t id) const {
  std::shared_ptr<const TraceContext> hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0) {
      if (!recent_.empty()) hit = recent_.back();
    } else {
      for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
        if ((*it)->id() == id) { hit = *it; break; }
      }
      if (hit == nullptr) {
        for (const auto& t : slow_) {
          if (t->id() == id) { hit = t; break; }
        }
      }
    }
  }
  if (hit == nullptr) {
    return id == 0 ? "no traces recorded\n"
                   : "no trace with id " + FormatTraceId(id) + "\n";
  }
  return hit->Render();
}

std::string ProfileStore::RenderSlowlog() const {
  std::vector<std::shared_ptr<const TraceContext>> slow;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slow = slow_;
  }
  if (slow.empty()) return "slowlog empty\n";
  std::string out;
  int rank = 1;
  for (const auto& t : slow) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%d. total=%s id=", rank++,
                  FormatMillis(t->total_ns()).c_str());
    out.append(buf);
    out.append(FormatTraceId(t->id()));
    out.push_back(' ');
    out.append(RenderStages(*t));
    std::string sql = t->sql();
    if (sql.size() > 120) sql = sql.substr(0, 117) + "...";
    if (!sql.empty()) {
      out.append(" | ");
      out.append(sql);
    }
    out.push_back('\n');
  }
  return out;
}

size_t ProfileStore::recent_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recent_.size();
}

int64_t ProfileStore::AggregateStageNanos(Stage s) const {
  return agg_stage_ns_[static_cast<int>(s)].load(std::memory_order_relaxed);
}

uint64_t ProfileStore::AggregateStageCount(Stage s) const {
  return agg_stage_count_[static_cast<int>(s)].load(std::memory_order_relaxed);
}

std::string ProfileStore::RenderAttribution(const std::string& prefix) const {
  const uint64_t requests = aggregate_requests();
  const int64_t total = aggregate_total_ns();
  std::string out = prefix;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "attribution requests=%llu total_ms=%.3f\n",
                static_cast<unsigned long long>(requests),
                static_cast<double>(total) * 1e-6);
  out.append(buf);
  for (int i = 0; i < static_cast<int>(Stage::kNumStages); ++i) {
    Stage s = static_cast<Stage>(i);
    int64_t ns = AggregateStageNanos(s);
    uint64_t n = AggregateStageCount(s);
    if (ns == 0 && n == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "attribution stage=%s total_ms=%.3f count=%llu frac=%.4f\n",
                  StageName(s), static_cast<double>(ns) * 1e-6,
                  static_cast<unsigned long long>(n),
                  total > 0 ? static_cast<double>(ns) /
                                  static_cast<double>(total)
                            : 0.0);
    out.append(prefix);
    out.append(buf);
  }
  return out;
}

}  // namespace bullfrog::obs
