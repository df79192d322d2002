#pragma once

// The served phase every workload ends with: rockd over the cleaned engine,
// a verification session the benchmark owns, then closed-loop clients.

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/chase/chase.h"
#include "src/core/engine.h"
#include "src/serve/server.h"
#include "src/workloads.h"

namespace perfbench {

/// Starts rockd on `rock` (timed as serve.start_s); nullptr on failure.
std::unique_ptr<rock::serve::RockServer> StartServer(const Round& round,
                                                     rock::core::Rock* rock);

struct ServeLoad {
  int clients = 2;
  int warmup_requests = 20;   // per client
  int measure_requests = 200;  // per client
  uint64_t seed = 1;           // load-plan seed
};

/// Serves `rock`, whose active rules are set and whose last correction is
/// `engine`, through `server`:
///  1. a verification session: ping round trips; one 4-row ingest; its
///     served session detect against the library's incremental detect over
///     the same tids (timed both ways, reports must be equal); the codec of
///     that detect response; explain of fixed cells through library and
///     server (non-empty, equal proofs);
///  2. closed-loop clients running serve::BuildLoadPlan with
///     ingest:detect:explain = 1:8:1, 4-row ingests of copies of relation
///     0's first rows, session-scope detect, and explain of fixed cells.
/// Every response is checked; latencies go to serve.*_latency_ms.
void RunServeLoad(const Round& round, rock::core::Rock* rock,
                  const rock::chase::ChaseEngine& engine,
                  rock::serve::RockServer* server, const ServeLoad& load,
                  std::atomic<int64_t>* request_ids);

}  // namespace perfbench
