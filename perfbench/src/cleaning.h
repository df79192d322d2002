#pragma once

// Samples and checks shared by the workloads' cleaning passes.

#include <cstdint>
#include <string>

#include "src/chase/chase.h"
#include "src/core/engine.h"
#include "src/detect/detector.h"
#include "src/par/executor.h"
#include "src/workload/generator.h"
#include "src/workloads.h"

namespace perfbench {

/// The model-training spec of an application ("Bank" or "Logistics").
rock::core::ModelTrainingSpec TrainingSpec(const std::string& app);

/// The program's counters that a cleaning pass moves, read before it runs.
struct PassCounters {
  uint64_t ml_batched_pairs = 0;
  uint64_t pairfreq_misses = 0;
  uint64_t prov_nodes = 0;

  static PassCounters Read();
};

/// detect.exhaustive_pairs, detect.blocked_pairs, ml.batched_pairs and
/// detect.pairfreq_misses of one detection pass.
void SampleDetection(const Round& round,
                     const rock::detect::DetectionReport& report,
                     const PassCounters& before);

/// chase.rounds, chase.applications and obs.prov_nodes of one correction
/// pass; checks that it converged.
void SampleCorrection(const Round& round,
                      const rock::core::CorrectionResult& result,
                      const PassCounters& before);

/// par.<pass>_units, _busy_s, _wait_s, _idle_s (summed over workers) and
/// _unit_cpu_s of one pooled pass.
void SampleSchedule(const Round& round, const std::string& pass,
                    const rock::par::ScheduleReport& schedule);

/// detect_f1 and repair_f1 against the generator's error log, each checked
/// against its floor.
void CheckQuality(const Round& round,
                  const rock::workload::GeneratedData& data,
                  const rock::detect::DetectionReport& report,
                  const rock::chase::ChaseEngine& engine);

}  // namespace perfbench
