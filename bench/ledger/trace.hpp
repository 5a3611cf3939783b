// trace.hpp — spans kept in memory during a traced run and written as JSON
// lines when it ends (`<workload>.trace.jsonl`).
//
// One line per span: {"id", "name", "start", "end", "parent", "job"}.
// Times are microseconds since the generator started (steady clock);
// "parent" is the id of the enclosing span or null; "job" is the server's
// job id, shared by a job's client spans and its replay spans.  A layer's
// self time is its span minus the part its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

class TraceLog {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::int64_t parent = kNoParent;
    std::uint64_t job = 0;
  };

  explicit TraceLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Record a finished span; returns its id (for children's `parent`).
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::uint64_t job) {
    spans_.push_back(Span{std::move(name), start, end, parent, job});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Set the end of a span opened with start == end.
  void close(std::int64_t id, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  /// Append spans recorded elsewhere, keeping their parent links.
  void absorb(const std::vector<Span>& spans) {
    const auto offset = static_cast<std::int64_t>(spans_.size());
    for (Span s : spans) {
      if (s.parent != kNoParent) s.parent += offset;
      spans_.push_back(std::move(s));
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as one JSON line; false on an I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start\":%.3f,\"end\":%.3f,"
                   "\"parent\":",
                   i, s.name.c_str(), us(s.start), us(s.end));
      if (s.parent == kNoParent) {
        std::fputs("null", f);
      } else {
        std::fprintf(f, "%lld", static_cast<long long>(s.parent));
      }
      std::fprintf(f, ",\"job\":%llu}\n",
                   static_cast<unsigned long long>(s.job));
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace ledger
