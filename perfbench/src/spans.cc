#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int64_t SpanLog::Begin(const char* name, int64_t parent, uint64_t request) {
  int64_t now = NowNs();
  return Add(name, now, now, parent, request);
}

void SpanLog::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int64_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int64_t parent, uint64_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<int64_t> SpanLog::SelfTimesNs() const {
  // Children's intervals per parent, clipped to the parent and merged,
  // so overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = -1;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= cur_end) {
        cur_end = std::max(cur_end, b);
        continue;
      }
      if (open) covered += cur_end - cur_start;
      cur_start = a;
      cur_end = b;
      open = true;
    }
    if (open) covered += cur_end - cur_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SelfTotal> SpanLog::SelfByName() const {
  std::vector<int64_t> self = SelfTimesNs();
  std::map<std::string, SelfTotal> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SelfTotal& t = out[spans_[i].name];
    t.self_ns += self[i];
    ++t.count;
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimesNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu,"
                 "\"self_ns\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
