// Reference figures, measured once and outside the workloads:
//   sweep  serial correction time as base rows grow (Logistics and Bank);
//   paths  serial vs parallel detection and correction on the same data:
//          violation counts, dirty cells, chase rounds and applications,
//          cell fixes.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/cleaning.h"
#include "src/core/engine.h"
#include "src/measure.h"
#include "src/workload/generator.h"
#include "src/workloads.h"

namespace perfbench {

namespace core = rock::core;

namespace {

struct App {
  rock::workload::GeneratedData data;
  std::unique_ptr<core::Rock> rock;
  std::vector<rock::rules::Ree> rules;
};

std::unique_ptr<App> MakeApp(const std::string& name, size_t rows,
                             uint64_t seed) {
  auto app = std::make_unique<App>();
  rock::workload::GeneratorOptions options;
  options.rows = rows;
  options.error_rate = 0.08;
  options.seed = seed;
  app->data = rock::workload::MakeAppData(name, options);
  app->rock = std::make_unique<core::Rock>(&app->data.db, &app->data.graph);
  app->rock->TrainModels(TrainingSpec(name));
  app->rock->DiscoverPolynomials();
  auto rules = app->rock->LoadRules(app->data.rule_text);
  if (rules.ok()) app->rules = std::move(rules).value();
  return app;
}

void Sweep(uint64_t seed, const std::vector<size_t>& sizes) {
  std::printf("%-10s %8s %12s %8s %12s\n", "app", "rows", "correct_s",
              "rounds", "applications");
  for (const char* name : {"Logistics", "Bank"}) {
    for (size_t rows : sizes) {
      auto app = MakeApp(name, rows, seed);
      core::CorrectionResult result;
      const double start = NowSeconds();
      app->rock->CorrectErrors(app->rules, app->data.clean_tuples, &result);
      std::printf("%-10s %8zu %12.3f %8d %12zu\n", name, rows,
                  NowSeconds() - start, result.chase.rounds,
                  result.chase.applications);
      std::fflush(stdout);
    }
  }
}

void Paths(uint64_t seed) {
  std::printf("%-10s %-9s %10s %11s %9s %7s %12s %10s\n", "app", "path",
              "detect_s", "violations", "dirty", "rounds", "applications",
              "cell_fixes");
  for (const char* name : {"Logistics", "Bank"}) {
    const size_t rows = std::string(name) == "Bank" ? 600 : 700;
    auto app = MakeApp(name, rows, seed);
    for (bool parallel : {false, true}) {
      rock::par::ScheduleReport schedule;
      double start = NowSeconds();
      const rock::detect::DetectionReport report =
          parallel ? app->rock->DetectErrorsParallel(app->rules, 2, &schedule)
                   : app->rock->DetectErrors(app->rules);
      const double detect_s = NowSeconds() - start;
      core::CorrectionResult result;
      auto engine =
          parallel ? app->rock->CorrectErrorsParallel(
                         app->rules, app->data.clean_tuples, 2, &result)
                   : app->rock->CorrectErrors(app->rules,
                                              app->data.clean_tuples, &result);
      std::printf("%-10s %-9s %10.3f %11zu %9zu %7d %12zu %10zu\n", name,
                  parallel ? "parallel" : "serial", detect_s,
                  report.violations, report.DirtyCells().size(),
                  result.chase.rounds, result.chase.applications,
                  engine->CellFixes().size());
      std::fflush(stdout);
    }
  }
}

}  // namespace

int RunReference(const std::string& which, uint64_t seed) {
  if (which == "sweep") {
    Sweep(seed, {600, 1200, 2400});
  } else if (which == "paths") {
    Paths(seed);
  } else {
    std::fprintf(stderr, "unknown reference %s (sweep|paths)\n",
                 which.c_str());
    return 2;
  }
  return 0;
}

}  // namespace perfbench
