#pragma once

// Measurement plumbing shared by every workload: an in-memory span recorder
// (written out as Chrome trace JSON at exit), per-metric sample lists with
// medians, and the attempted/failed operation tally.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

struct SpanRecord {
  std::string name;
  double start_s = 0;
  double end_s = -1;  // < 0 while open
  int64_t parent = -1;
  int64_t request_id = -1;  // shared by the spans of one served request
  int track = 0;            // 0 = main thread, 1.. = load clients
};

/// Records spans around the benchmark's calls into each layer. Disabled,
/// it records nothing (spans still time themselves, see ScopedSpan).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id, or -1 when disabled.
  int64_t Begin(const std::string& name, double start_s, int64_t parent,
                int64_t request_id, int track);
  void End(int64_t id, double end_s);

  /// Writes every closed span as Chrome trace JSON ("X" events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// One timed layer call. Always measures its own duration (the untraced
/// run needs the times too); records a span only when tracing is on.
/// Spans opened on the same thread nest automatically.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request_id = -1,
             int track = 0, int64_t parent = kAutoParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double End();
  int64_t id() const { return id_; }

  static constexpr int64_t kAutoParent = -2;

 private:
  Tracer* tracer_;
  double start_s_;
  double seconds_ = -1;
  int64_t id_ = -1;
  bool pushed_ = false;
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, MiB.
double PeakRssMb();

/// Current value of one of the program's own counters (0 when absent).
uint64_t CounterValue(const std::string& name);

/// Samples per metric and the operation tally of one run.
class Results {
 public:
  void Add(const std::string& metric, double value);
  void AddAll(const std::string& metric, const std::vector<double>& values);
  /// Median of the metric's samples; 0 when it has none.
  double Value(const std::string& metric) const;
  /// Nearest-rank percentile of the metric's samples; 0 when it has none.
  double Quantile(const std::string& metric, double q) const;
  size_t Count(const std::string& metric) const;
  double Sum(const std::string& metric) const;
  /// The metric's samples in the order they were added.
  std::vector<double> Samples(const std::string& metric) const;

  /// Tallies one operation; a failed one is reported on stderr.
  void Op(bool ok, const std::string& what);
  void Ops(uint64_t attempted, uint64_t failed, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench
