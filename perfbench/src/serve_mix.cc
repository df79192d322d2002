// serve_mix: Bank under rockd. Set-up boots the engine (generate, train,
// polynomials, activate the curated rules, boot-time correction, start the
// server); a full detection scores the served database before load; then
// the served phase of src/load.h with 2 x (10 + 100) requests.

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "src/cleaning.h"
#include "src/core/engine.h"
#include "src/load.h"
#include "src/serve/server.h"
#include "src/workload/generator.h"
#include "src/workloads.h"

namespace perfbench {

namespace core = rock::core;
namespace serve = rock::serve;

namespace {

constexpr size_t kRows = 600;
constexpr double kErrorRate = 0.08;
// Requests per client per round; a 25 s run pools 4-6 rounds, so
// serve_p95_ms rests on 800-1200 measured requests.
constexpr int kWarmupRequests = 10;
constexpr int kMeasuredRequests = 100;
// The pre-load detection is short, so it repeats.
constexpr int kDetectPasses = 8;
constexpr int kMinRounds = 3;

struct ServeState {
  rock::workload::GeneratedData data;
  std::unique_ptr<core::Rock> rock;
  std::shared_ptr<rock::chase::ChaseEngine> boot_engine;
  std::unique_ptr<serve::RockServer> server;
};

std::unique_ptr<ServeState> Boot(const Round& round) {
  auto state = std::make_unique<ServeState>();
  ScopedSpan setup(round.tracer, "setup");
  {
    ScopedSpan span(round.tracer, "workload.generate");
    rock::workload::GeneratorOptions options;
    options.rows = kRows;
    options.error_rate = kErrorRate;
    options.seed = round.seed;
    state->data = rock::workload::MakeBankData(options);
    round.Sample("workload.generate_s", span.End());
  }
  state->rock = std::make_unique<core::Rock>(&state->data.db,
                                             &state->data.graph);
  {
    ScopedSpan span(round.tracer, "ml.train");
    state->rock->TrainModels(TrainingSpec("Bank"));
    round.Sample("ml.train_s", span.End());
  }
  {
    ScopedSpan span(round.tracer, "discovery.poly");
    state->rock->DiscoverPolynomials();
    round.Sample("discovery.poly_s", span.End());
  }
  {
    ScopedSpan span(round.tracer, "rules.load");
    const rock::Status activated =
        state->rock->ActivateRules(state->data.rule_text);
    round.Sample("rules.load_s", span.End());
    round.Check(activated.ok() && !state->rock->active_rules().empty(),
                "curated rules activate");
  }
  {
    const PassCounters before = PassCounters::Read();
    core::CorrectionResult result;
    ScopedSpan span(round.tracer, "chase.boot_correct");
    state->boot_engine = state->rock->CorrectErrors(
        state->rock->active_rules(), state->data.clean_tuples, &result);
    const double seconds = span.End();
    round.Sample("chase.boot_correct_s", seconds);
    round.Sample("correct_s", seconds);
    SampleCorrection(round, result, before);
  }
  state->server = StartServer(round, state->rock.get());
  round.Sample("setup_s", setup.End());
  return state;
}

// Full detection of the served database before load, scored with the
// boot-time correction.
void ScoreBoot(const Round& round, const ServeState& s) {
  rock::detect::DetectionReport report;
  for (int pass = 0; pass < kDetectPasses; ++pass) {
    const PassCounters before = PassCounters::Read();
    ScopedSpan span(round.tracer, "core.detect");
    report = s.rock->DetectActive();
    round.Sample("detect_s", span.End());
    SampleDetection(round, report, before);
  }
  CheckQuality(round, s.data, report, *s.boot_engine);
}

}  // namespace

int RunServeMix(const RunOptions& options, Tracer* tracer, Results* results) {
  std::atomic<int64_t> request_ids{0};
  return RunRounds(options, kMinRounds, tracer, results, [&](const Round&
                                                                 round) {
    std::unique_ptr<ServeState> state = Boot(round);
    if (state->server == nullptr) return;
    ScoreBoot(round, *state);

    ServeLoad load;
    load.warmup_requests = kWarmupRequests;
    load.measure_requests = kMeasuredRequests;
    load.seed = options.plan_seed;
    RunServeLoad(round, state->rock.get(), *state->boot_engine,
                 state->server.get(), load, &request_ids);
    state->server->Stop();
  });
}

}  // namespace perfbench
