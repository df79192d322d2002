// batch_serial / batch_parallel: the paper's batch flow on Logistics. Set-up
// (generate, train, mine, polynomials, curated rules), then full detection
// passes and a full correction pass, serial or at two HyperCube workers;
// then the cleaned database is served (src/load.h) with 2 x (10 + 50)
// requests.

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "src/cleaning.h"
#include "src/core/engine.h"
#include "src/load.h"
#include "src/workload/generator.h"
#include "src/workloads.h"

namespace perfbench {

namespace core = rock::core;

namespace {

constexpr size_t kRows = 700;
constexpr double kErrorRate = 0.08;
constexpr int kWorkers = 2;
// Detection passes per round: a serial pass is short, so it repeats.
constexpr int kSerialDetectPasses = 8;
constexpr int kParallelDetectPasses = 1;
constexpr int kMinRounds = 3;
// Served requests per client after cleaning. Fewer than serve_mix's 100:
// a Logistics session detect costs about twice a Bank one.
constexpr int kWarmupRequests = 10;
constexpr int kMeasuredRequests = 50;
// Rule mining samples this many valuations (the library default, 200000,
// takes ~16 s here); at 20000 it mines ~75 rules in ~1 s.
constexpr size_t kMinerEvidenceRows = 20000;

struct BatchState {
  rock::workload::GeneratedData data;
  std::unique_ptr<core::Rock> rock;
  std::vector<rock::rules::Ree> rules;
};

std::unique_ptr<BatchState> SetUp(const Round& round) {
  auto state = std::make_unique<BatchState>();
  ScopedSpan setup(round.tracer, "setup");
  {
    ScopedSpan span(round.tracer, "workload.generate");
    rock::workload::GeneratorOptions options;
    options.rows = kRows;
    options.error_rate = kErrorRate;
    options.seed = round.seed;
    state->data = rock::workload::MakeLogisticsData(options);
    round.Sample("workload.generate_s", span.End());
  }
  core::RockOptions rock_options;
  rock_options.miner.max_evidence_rows = kMinerEvidenceRows;
  state->rock = std::make_unique<core::Rock>(
      &state->data.db, &state->data.graph, rock_options);
  {
    ScopedSpan span(round.tracer, "ml.train");
    state->rock->TrainModels(TrainingSpec("Logistics"));
    round.Sample("ml.train_s", span.End());
  }
  {
    ScopedSpan span(round.tracer, "discovery.mine");
    rock::discovery::PredicateSpaceOptions space;
    space.max_constants_per_attr = 2;
    space.ml_bindings = {{"MER", {"recipient"}}};
    const size_t mined = state->rock->DiscoverRules(space).size();
    round.Sample("discovery.mine_s", span.End());
    round.Check(mined > 0, "rule discovery finds rules");
  }
  {
    ScopedSpan span(round.tracer, "discovery.poly");
    state->rock->DiscoverPolynomials();
    round.Sample("discovery.poly_s", span.End());
  }
  {
    ScopedSpan span(round.tracer, "rules.load");
    auto rules = state->rock->LoadRules(state->data.rule_text);
    round.Sample("rules.load_s", span.End());
    round.Check(rules.ok() && !rules->empty(), "curated rules parse");
    if (rules.ok()) state->rules = std::move(rules).value();
  }
  round.Sample("setup_s", setup.End());
  return state;
}

rock::detect::DetectionReport Detect(const Round& round, const BatchState& s,
                                     bool parallel) {
  const PassCounters before = PassCounters::Read();
  rock::par::ScheduleReport schedule;
  ScopedSpan span(round.tracer, parallel ? "core.detect_parallel"
                                         : "core.detect");
  rock::detect::DetectionReport report =
      parallel ? s.rock->DetectErrorsParallel(s.rules, kWorkers, &schedule)
               : s.rock->DetectErrors(s.rules);
  round.Sample("detect_s", span.End());
  SampleDetection(round, report, before);
  if (parallel) {
    SampleSchedule(round, "detect", schedule);
    round.Sample("par.detect_stolen", schedule.stolen_units);
  }
  return report;
}

std::shared_ptr<rock::chase::ChaseEngine> Correct(const Round& round,
                                                  BatchState* s,
                                                  bool parallel) {
  const PassCounters before = PassCounters::Read();
  core::CorrectionResult result;
  rock::par::ScheduleReport schedule;
  ScopedSpan span(round.tracer, parallel ? "core.correct_parallel"
                                         : "core.correct");
  auto engine =
      parallel ? s->rock->CorrectErrorsParallel(s->rules,
                                                s->data.clean_tuples, kWorkers,
                                                &result, &schedule)
               : s->rock->CorrectErrors(s->rules, s->data.clean_tuples,
                                        &result);
  round.Sample("correct_s", span.End());
  SampleCorrection(round, result, before);
  if (parallel) SampleSchedule(round, "correct", schedule);
  return engine;
}

using FixKey = std::tuple<int, int64_t, int, std::string>;

std::vector<FixKey> SortedFixes(const rock::chase::ChaseEngine& engine) {
  std::vector<FixKey> fixes;
  for (const rock::chase::CellFix& fix : engine.CellFixes()) {
    fixes.emplace_back(fix.rel, fix.tid, fix.attr, fix.new_value.ToString());
  }
  std::sort(fixes.begin(), fixes.end());
  return fixes;
}

std::vector<std::vector<std::pair<int, int64_t>>> SortedGroups(
    const rock::chase::ChaseEngine& engine) {
  auto groups = engine.EntityGroups();
  for (auto& group : groups) std::sort(group.begin(), group.end());
  std::sort(groups.begin(), groups.end());
  return groups;
}

// The parallel paths promise the serial path's dirty cells, cell fixes and
// entity groups on the same data; checked in the warm-up round, untimed.
void CheckAgainstSerial(const Round& round, BatchState* s,
                        const rock::detect::DetectionReport& parallel_report,
                        const rock::chase::ChaseEngine& parallel_engine) {
  ScopedSpan span(round.tracer, "check.serial_equals_parallel");
  const rock::detect::DetectionReport serial_report =
      s->rock->DetectErrors(s->rules);
  round.Check(serial_report.DirtyCells() == parallel_report.DirtyCells(),
              "parallel detection flags the serial dirty cells");
  core::CorrectionResult result;
  auto serial_engine =
      s->rock->CorrectErrors(s->rules, s->data.clean_tuples, &result);
  round.Check(SortedFixes(*serial_engine) == SortedFixes(parallel_engine),
              "parallel correction makes the serial cell fixes");
  round.Check(SortedGroups(*serial_engine) == SortedGroups(parallel_engine),
              "parallel correction makes the serial entity groups");
}

}  // namespace

int RunBatch(const RunOptions& options, bool parallel, Tracer* tracer,
             Results* results) {
  std::atomic<int64_t> request_ids{0};
  return RunRounds(
      options, kMinRounds, tracer, results, [&](const Round& round) {
        std::unique_ptr<BatchState> state = SetUp(round);
        rock::detect::DetectionReport report;
        const int passes =
            parallel ? kParallelDetectPasses : kSerialDetectPasses;
        for (int pass = 0; pass < passes; ++pass) {
          report = Detect(round, *state, parallel);
        }
        auto engine = Correct(round, state.get(), parallel);
        CheckQuality(round, state->data, report, *engine);
        if (parallel && !round.measured) {
          CheckAgainstSerial(round, state.get(), report, *engine);
        }
        // Serve the cleaned database (this ingests, so it comes last).
        state->rock->ActivateRules(state->rules);
        auto server = StartServer(round, state->rock.get());
        if (server == nullptr) return;
        ServeLoad load;
        load.warmup_requests = kWarmupRequests;
        load.measure_requests = kMeasuredRequests;
        load.seed = options.plan_seed;
        RunServeLoad(round, state->rock.get(), *engine, server.get(), load,
                     &request_ids);
        server->Stop();
      });
}

}  // namespace perfbench
