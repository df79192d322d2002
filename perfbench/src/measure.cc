#include "src/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/obs/metrics.h"

namespace perfbench {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int64_t Tracer::Begin(const std::string& name, double start_s, int64_t parent,
                      int64_t request_id, int track) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord span;
  span.name = name;
  span.start_s = start_s;
  span.parent = parent;
  span.request_id = request_id;
  span.track = track;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id, double end_s) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = end_s;
}

namespace {

void AppendEscaped(const std::string& text, std::string* out) {
  for (char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end_s < 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    AppendEscaped(span.name, &out);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                  "\"request_id\":%lld}}",
                  span.track, span.start_s * 1e6,
                  (span.end_s - span.start_s) * 1e6, i,
                  static_cast<long long>(span.parent),
                  static_cast<long long>(span.request_id));
    out += buf;
  }
  out += "\n]}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  return std::fclose(file) == 0 && ok;
}

namespace {

// Open spans of this thread, innermost last: the automatic parents.
thread_local std::vector<int64_t> open_spans;

}  // namespace

ScopedSpan::ScopedSpan(Tracer* tracer, const std::string& name,
                       int64_t request_id, int track, int64_t parent)
    : tracer_(tracer), start_s_(NowSeconds()) {
  if (!tracer_->enabled()) return;
  if (parent == kAutoParent) {
    parent = open_spans.empty() ? -1 : open_spans.back();
  }
  id_ = tracer_->Begin(name, start_s_, parent, request_id, track);
  open_spans.push_back(id_);
  pushed_ = true;
}

ScopedSpan::~ScopedSpan() { End(); }

double ScopedSpan::End() {
  if (seconds_ >= 0) return seconds_;
  const double end_s = NowSeconds();
  seconds_ = end_s - start_s_;
  if (pushed_) {
    tracer_->End(id_, end_s);
    // Spans close innermost-first; erase by id so an out-of-order End()
    // cannot pop a sibling.
    auto it = std::find(open_spans.begin(), open_spans.end(), id_);
    if (it != open_spans.end()) open_spans.erase(it);
  }
  return seconds_;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t CounterValue(const std::string& name) {
  return rock::obs::MetricsRegistry::Global().Snap().CounterValue(name);
}

void Results::Add(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[metric].push_back(value);
}

void Results::AddAll(const std::string& metric,
                     const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double>& into = samples_[metric];
  into.insert(into.end(), values.begin(), values.end());
}

double Results::Value(const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(metric);
  return it == samples_.end() ? 0 : Median(it->second);
}

double Results::Quantile(const std::string& metric, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(metric);
  return it == samples_.end() ? 0 : Percentile(it->second, q);
}

size_t Results::Count(const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(metric);
  return it == samples_.end() ? 0 : it->second.size();
}

double Results::Sum(const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(metric);
  if (it == samples_.end()) return 0;
  double sum = 0;
  for (double value : it->second) sum += value;
  return sum;
}

std::vector<double> Results::Samples(const std::string& metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(metric);
  return it == samples_.end() ? std::vector<double>() : it->second;
}

void Results::Op(bool ok, const std::string& what) {
  Ops(1, ok ? 0 : 1, what);
}

void Results::Ops(uint64_t attempted, uint64_t failed,
                  const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

}  // namespace perfbench
