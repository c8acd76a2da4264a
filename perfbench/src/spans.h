// In-memory spans recorded by the benchmark around its calls into each
// layer, written out when the run ends.
//
// A span has a name, start and end (ns since the log's epoch), the
// index of the span that caused it (-1 for a root) and the id of the
// request it belongs to. A span's self time is its duration minus the
// part of that interval covered by its children, so self times along
// one request's blocking path add up to the request's duration.
//
// A SpanLog is filled by one thread; concurrent recorders keep their
// own slots and Add() them afterwards.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "openloop.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string; layer.call naming
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< index into the log, -1 for a root
  uint64_t request = 0;
};

/// Per-name aggregate of self times.
struct SelfTotal {
  int64_t self_ns = 0;
  size_t count = 0;
  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) / 1e3 /
                                  static_cast<double>(count);
  }
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int64_t NowNs() const;

  /// Opens a span now; close it with End.
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t id);
  /// Appends an already-timed span.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

  /// Self time of every span (same indexing as spans()).
  std::vector<int64_t> SelfTimesNs() const;
  /// Self time summed per span name.
  std::map<std::string, SelfTotal> SelfByName() const;

  /// Writes one JSON object per span per line. False on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Scope guard for one span on the recording thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent,
             uint64_t request)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
