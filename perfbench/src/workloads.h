#pragma once

// The benchmark's workloads. Each runs one unmeasured warm-up round and then
// measured rounds until the run's time is spent. Every round builds its
// state afresh, so each pass pays its cold caches, from a data seed of its
// own (RoundSeed), so a run's medians span several generated datasets.

#include <cstdint>
#include <functional>
#include <string>

#include "src/measure.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  /// Data seed of the run (see RoundSeed).
  uint64_t seed = 1;
  /// Seed of the served load plan, the same in every round and run, so that
  /// runs replay one request sequence (serve::BuildLoadPlan's default seed).
  uint64_t plan_seed = 42;
  double seconds = 10;
};

/// What one round sees: where its samples and checks go.
struct Round {
  Tracer* tracer = nullptr;
  Results* results = nullptr;
  bool measured = false;
  /// Data seed of this round.
  uint64_t seed = 0;

  /// Adds a sample of `metric`, unless this is the warm-up round.
  void Sample(const std::string& metric, double value) const {
    if (measured) results->Add(metric, value);
  }
  /// Checks count in every round, the warm-up included.
  void Check(bool ok, const std::string& what) const { results->Op(ok, what); }
};

/// Seed of round `index` (0 = warm-up) of a run with seed `run_seed`.
inline uint64_t RoundSeed(uint64_t run_seed, int index) {
  return run_seed * 1000 + static_cast<uint64_t>(index);
}

/// Runs the warm-up round, then at least `min_rounds` measured rounds,
/// stopping at the round boundary nearest to `seconds` after the first
/// measured round began. Returns the number of measured rounds.
int RunRounds(const RunOptions& options, int min_rounds, Tracer* tracer,
              Results* results, const std::function<void(const Round&)>& body);

/// Logistics batch cleaning: serial (`parallel` false) or HyperCube-parallel
/// detection and correction at two workers.
int RunBatch(const RunOptions& options, bool parallel, Tracer* tracer,
             Results* results);

/// Bank under rockd: boot-time correction, then two closed-loop clients.
int RunServeMix(const RunOptions& options, Tracer* tracer, Results* results);

/// Prints a reference figure ("sweep" or "paths", see reference.cc); these
/// are measured once, by hand, and are not workloads.
int RunReference(const std::string& which, uint64_t seed);

// Minimum acceptable cleaning quality against the generator's error log.
inline constexpr double kDetectF1Floor = 0.90;
inline constexpr double kRepairF1Floor = 0.90;

}  // namespace perfbench
