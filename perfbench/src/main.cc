// rock_perfbench: runs one workload of Rock's benchmark and prints its
// metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero when any operation or check failed.
//
//   rock_perfbench --workload batch_serial|batch_parallel|serve_mix
//                  --seed N --seconds S --trace 0|1 [--plan-seed N]
//                  [--trace-out PATH]
//   rock_perfbench --reference sweep|paths [--seed N]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/measure.h"
#include "src/workloads.h"

namespace perfbench {

int RunRounds(const RunOptions& options, int min_rounds, Tracer* tracer,
              Results* results,
              const std::function<void(const Round&)>& body) {
  {
    ScopedSpan span(tracer, "round.warmup");
    body(Round{tracer, results, false, RoundSeed(options.seed, 0)});
  }
  // Stop at the round boundary nearest to --seconds: start another round
  // only while at least half of an average round still fits.
  const double start = NowSeconds();
  int rounds = 0;
  for (;;) {
    const double elapsed = NowSeconds() - start;
    if (rounds >= min_rounds &&
        elapsed + 0.5 * elapsed / rounds >= options.seconds) {
      break;
    }
    ScopedSpan span(tracer, "round");
    ++rounds;
    body(Round{tracer, results, true, RoundSeed(options.seed, rounds)});
  }
  return rounds;
}

namespace {

struct Metric {
  const char* name;
  const char* unit;
  // How the reported value comes from the samples.
  enum Kind { kMedian, kP50, kP95, kRate, kPeakRss } kind;
  // Samples the value is taken from, when named differently.
  const char* source;
};

// End-to-end metrics: what a user of the system sees.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s", Metric::kMedian, nullptr},
    {"detect_s", "s", Metric::kMedian, nullptr},
    {"correct_s", "s", Metric::kMedian, nullptr},
    {"detect_f1", "ratio", Metric::kMedian, nullptr},
    {"repair_f1", "ratio", Metric::kMedian, nullptr},
    {"peak_rss_mb", "MiB", Metric::kPeakRss, nullptr},
    {"serve_rps", "req/s", Metric::kRate, "serve.latency_ms"},
    {"serve_p50_ms", "ms", Metric::kP50, "serve.latency_ms"},
    {"serve_p95_ms", "ms", Metric::kP95, "serve.latency_ms"},
};

// Per-layer metrics, from the traced run. 0 where the workload does not
// exercise the layer.
const std::vector<Metric> kPerLayer = {
    {"workload.generate_s", "s", Metric::kMedian, nullptr},
    {"ml.train_s", "s", Metric::kMedian, nullptr},
    {"discovery.mine_s", "s", Metric::kMedian, nullptr},
    {"discovery.poly_s", "s", Metric::kMedian, nullptr},
    {"rules.load_s", "s", Metric::kMedian, nullptr},
    {"chase.boot_correct_s", "s", Metric::kMedian, nullptr},
    {"serve.start_s", "s", Metric::kMedian, nullptr},
    {"detect.exhaustive_pairs", "count", Metric::kMedian, nullptr},
    {"detect.blocked_pairs", "count", Metric::kMedian, nullptr},
    {"ml.batched_pairs", "count", Metric::kMedian, nullptr},
    {"detect.pairfreq_misses", "count", Metric::kMedian, nullptr},
    {"par.detect_units", "count", Metric::kMedian, nullptr},
    {"par.detect_stolen", "count", Metric::kMedian, nullptr},
    {"par.detect_busy_s", "s", Metric::kMedian, nullptr},
    {"par.detect_wait_s", "s", Metric::kMedian, nullptr},
    {"par.detect_idle_s", "s", Metric::kMedian, nullptr},
    {"par.detect_unit_cpu_s", "s", Metric::kMedian, nullptr},
    {"par.correct_units", "count", Metric::kMedian, nullptr},
    {"par.correct_busy_s", "s", Metric::kMedian, nullptr},
    {"par.correct_wait_s", "s", Metric::kMedian, nullptr},
    {"par.correct_idle_s", "s", Metric::kMedian, nullptr},
    {"par.correct_unit_cpu_s", "s", Metric::kMedian, nullptr},
    {"chase.rounds", "count", Metric::kMedian, nullptr},
    {"chase.applications", "count", Metric::kMedian, nullptr},
    {"obs.prov_nodes", "count", Metric::kMedian, nullptr},
    {"serve.ingest_p50_ms", "ms", Metric::kP50, "serve.ingest_latency_ms"},
    {"serve.detect_p50_ms", "ms", Metric::kP50, "serve.detect_latency_ms"},
    {"serve.detect_p95_ms", "ms", Metric::kP95, "serve.detect_latency_ms"},
    {"serve.explain_p50_ms", "ms", Metric::kP50, "serve.explain_latency_ms"},
    {"serve.ping_us", "us", Metric::kMedian, nullptr},
    {"serve.codec_us", "us", Metric::kMedian, nullptr},
    {"serve.bytes_per_request", "bytes", Metric::kMedian, nullptr},
    {"serve.session_detect_ms", "ms", Metric::kMedian, nullptr},
    {"detect.incremental_ms", "ms", Metric::kMedian, nullptr},
    {"obs.explain_ms", "ms", Metric::kMedian, nullptr},
};

double ValueOf(const Metric& metric, const Results& results) {
  const std::string source = metric.source ? metric.source : metric.name;
  switch (metric.kind) {
    case Metric::kMedian: return results.Value(source);
    case Metric::kP50: return results.Quantile(source, 0.50);
    case Metric::kP95: return results.Quantile(source, 0.95);
    case Metric::kRate: {
      // Measured requests over measured wall time, pooled over rounds.
      const double wall = results.Sum("serve.measure_wall_s");
      return wall > 0 ? static_cast<double>(results.Count(source)) / wall : 0;
    }
    case Metric::kPeakRss: return PeakRssMb();
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: rock_perfbench --workload "
               "batch_serial|batch_parallel|serve_mix --seed N --seconds S "
               "--trace 0|1 [--plan-seed N] [--trace-out PATH]\n"
               "       rock_perfbench --reference sweep|paths [--seed N]\n",
               message);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool trace = false;
  std::string trace_out;
  std::string reference;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--plan-seed") {
      options.plan_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--reference") {
      reference = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!reference.empty()) return RunReference(reference, options.seed);
  if (options.seconds <= 0) Usage("--seconds must be positive");

  std::printf("host: %s, %u hardware threads\n", CpuModel().c_str(),
              std::thread::hardware_concurrency());
  std::printf("compiler: %s, build type: %s\n", __VERSION__,
              PERFBENCH_BUILD_TYPE);
  std::printf("workload: %s, seed %llu, plan seed %llu, %.0f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.plan_seed),
              options.seconds, trace ? 1 : 0);
  std::fflush(stdout);

  Tracer tracer(trace);
  Results results;
  int rounds = 0;
  if (options.workload == "batch_serial") {
    rounds = RunBatch(options, /*parallel=*/false, &tracer, &results);
  } else if (options.workload == "batch_parallel") {
    rounds = RunBatch(options, /*parallel=*/true, &tracer, &results);
  } else if (options.workload == "serve_mix") {
    rounds = RunServeMix(options, &tracer, &results);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  std::printf("measured rounds: %d (+1 warm-up), serve requests measured: "
              "%zu\n",
              rounds, results.Count("serve.latency_ms"));
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    std::printf("%s\n", table == &kEndToEnd ? "end-to-end:" : "per-layer:");
    for (const Metric& metric : *table) {
      const std::vector<double> samples = results.Samples(
          metric.source ? metric.source : metric.name);
      std::printf("  %-26s %14.6f %-6s", metric.name,
                  ValueOf(metric, results), metric.unit);
      if (samples.size() > 1 && metric.kind != Metric::kRate) {
        std::printf("  n=%zu min %.6g max %.6g", samples.size(),
                    *std::min_element(samples.begin(), samples.end()),
                    *std::max_element(samples.begin(), samples.end()));
      }
      std::printf("\n");
    }
  }
  if (trace && !trace_out.empty()) {
    if (tracer.WriteChromeTrace(trace_out)) {
      std::printf("trace: %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", trace_out.c_str());
    }
  }

  const bool correct = results.failed() == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(results.attempted());
  json += ", \"failed\": " + std::to_string(results.failed());
  json += ", \"metrics\": {";
  const std::vector<Metric>& reported = trace ? kPerLayer : kEndToEnd;
  char buf[160];
  for (size_t i = 0; i < reported.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", reported[i].name,
                  ValueOf(reported[i], results), reported[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
