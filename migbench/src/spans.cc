#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <unordered_map>

namespace migbench {

uint64_t SpanBuffer::Open(const char* name, uint64_t request,
                          int64_t start_ns) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.id = NextId();
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = start_ns;
  open_.push_back(spans_.size());
  spans_.push_back(s);
  return s.id;
}

void SpanBuffer::Close(int64_t end_ns) {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].end_ns = end_ns;
  open_.pop_back();
}

void SpanBuffer::Add(const char* name, uint64_t request, int64_t start_ns,
                     int64_t end_ns) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.id = NextId();
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

void SpanSink::Absorb(SpanBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), buffer->spans().begin(), buffer->spans().end());
  buffer->spans().clear();
}

bool SpanSink::AppendTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  for (const Span& s : spans_) {
    std::fprintf(f, "%llx\t%llx\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

int64_t UncoveredNanos(int64_t lo, int64_t hi,
                       std::vector<std::pair<int64_t, int64_t>> children) {
  if (hi <= lo) return 0;
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = lo;  // Everything before cursor is already counted.
  for (auto [a, b] : children) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b <= a) continue;
    covered += b - a;
    cursor = b;
  }
  return (hi - lo) - covered;
}

std::vector<SelfTime> ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    t.count += 1;
    t.total_ns += s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    t.self_ns += it == children.end()
                     ? s.end_ns - s.start_ns
                     : UncoveredNanos(s.start_ns, s.end_ns, it->second);
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

}  // namespace migbench
