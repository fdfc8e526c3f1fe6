// In-memory span recorder for the traced run.
//
// The benchmark wraps its own calls into each layer's public functions in
// spans; nothing inside src/ is instrumented. A span has a name, a start,
// an end and the span that caused it, plus named counts recorded at the
// same boundary. Spans stay in memory and are written out once, at the
// end of the run.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rebert::e2e {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span and returns its id; `parent` is -1 for a root span.
  /// `name` must outlive the tracer (string literals in practice).
  int begin(const char* name, int parent) {
    spans_.push_back({name, parent, Clock::now(), {}, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  void count(int id, const char* key, double value) {
    spans_[static_cast<std::size_t>(id)].counts.emplace_back(key, value);
  }

  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return std::chrono::duration<double>(s.end - s.start).count();
  }

  /// Self time per span name: each span's duration minus the part of it
  /// its children cover (children never overlap: the recorder is serial).
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent >= 0)
        child[static_cast<std::size_t>(spans_[i].parent)] +=
            seconds(static_cast<int>(i));
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[spans_[i].name] += seconds(static_cast<int>(i)) - child[i];
    return self;
  }

  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (name == spans_[i].name) out.push_back(seconds(static_cast<int>(i)));
    return out;
  }

  /// Writes every span as one JSON object per line (times in microseconds
  /// from the tracer's creation). Returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_us\":%.3f,"
                      "\"end_us\":%.3f",
                   i, s.parent, s.name, micros(s.start), micros(s.end));
      for (const auto& [key, value] : s.counts)
        std::fprintf(f, ",\"%s\":%.17g", key, value);
      std::fprintf(f, "}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start, end;
    std::vector<std::pair<const char*, double>> counts;
  };

  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }
  void count(const char* key, double value) { tracer_.count(id_, key, value); }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace rebert::e2e
