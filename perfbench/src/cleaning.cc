#include "src/cleaning.h"

#include "src/workload/scoring.h"

namespace perfbench {

rock::core::ModelTrainingSpec TrainingSpec(const std::string& app) {
  rock::core::ModelTrainingSpec spec;
  if (app == "Bank") {
    spec.rank_targets = {{"Customer", "city"}};
    spec.monotone_attrs = {{"Customer", "points"}};
    spec.path_synonyms = {{"area", {"AreaOf"}}};
  } else {
    spec.path_synonyms = {{"area", {"AreaOf"}}, {"city", {"CityOf"}}};
  }
  return spec;
}

PassCounters PassCounters::Read() {
  PassCounters counters;
  counters.ml_batched_pairs = CounterValue("rock_detect_ml_batched_pairs_total");
  counters.pairfreq_misses =
      CounterValue("rock_detect_pairfreq_cache_misses_total");
  counters.prov_nodes = CounterValue("rock_prov_nodes_total");
  return counters;
}

void SampleDetection(const Round& round,
                     const rock::detect::DetectionReport& report,
                     const PassCounters& before) {
  const PassCounters after = PassCounters::Read();
  round.Sample("detect.exhaustive_pairs",
               static_cast<double>(report.exhaustive_pairs_checked));
  round.Sample("detect.blocked_pairs",
               static_cast<double>(report.blocked_pairs_checked));
  round.Sample("ml.batched_pairs", static_cast<double>(
                                       after.ml_batched_pairs -
                                       before.ml_batched_pairs));
  round.Sample("detect.pairfreq_misses",
               static_cast<double>(after.pairfreq_misses -
                                   before.pairfreq_misses));
}

void SampleCorrection(const Round& round,
                      const rock::core::CorrectionResult& result,
                      const PassCounters& before) {
  round.Check(result.chase.converged, "correction reaches a fixpoint");
  round.Sample("chase.rounds", result.chase.rounds);
  round.Sample("chase.applications",
               static_cast<double>(result.chase.applications));
  round.Sample("obs.prov_nodes",
               static_cast<double>(PassCounters::Read().prov_nodes -
                                   before.prov_nodes));
}

void SampleSchedule(const Round& round, const std::string& pass,
                    const rock::par::ScheduleReport& schedule) {
  double units = 0, busy = 0, wait = 0, idle = 0;
  for (size_t w = 0; w < schedule.executed_units.size(); ++w) {
    units += schedule.executed_units[w];
    busy += schedule.busy_seconds[w];
    wait += schedule.wait_seconds[w];
    idle += schedule.idle_seconds[w];
  }
  const std::string prefix = "par." + pass;
  round.Sample(prefix + "_units", units);
  round.Sample(prefix + "_busy_s", busy);
  round.Sample(prefix + "_wait_s", wait);
  round.Sample(prefix + "_idle_s", idle);
  round.Sample(prefix + "_unit_cpu_s", schedule.serial_seconds);
}

void CheckQuality(const Round& round,
                  const rock::workload::GeneratedData& data,
                  const rock::detect::DetectionReport& report,
                  const rock::chase::ChaseEngine& engine) {
  ScopedSpan span(round.tracer, "check.quality");
  const double detect_f1 =
      rock::workload::ScoreDetection(data, report.DirtyTuples()).f1();
  const double repair_f1 =
      rock::workload::ScoreCorrection(data, engine).overall.f1();
  round.Check(detect_f1 >= kDetectF1Floor, "detection F1 floor");
  round.Check(repair_f1 >= kRepairF1Floor, "correction F1 floor");
  round.Sample("detect_f1", detect_f1);
  round.Sample("repair_f1", repair_f1);
}

}  // namespace perfbench
