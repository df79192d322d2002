#include "src/load.h"

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/obs/provenance.h"
#include "src/serve/client.h"
#include "src/serve/loadgen.h"
#include "src/serve/protocol.h"

namespace perfbench {

namespace serve = rock::serve;

namespace {

constexpr int kIngestRows = 4;
constexpr size_t kPoolTuples = 16;
constexpr size_t kExplainTargets = 8;
constexpr int kPings = 20;
constexpr int kCodecRepeats = 50;

using Targets = std::vector<std::tuple<int32_t, int64_t, int32_t>>;

struct LoadOutcome {
  /// Measured-phase latencies, ms, all verbs and per verb.
  std::vector<double> latency_ms;
  std::map<serve::Verb, std::vector<double>> verb_latency_ms;
  /// From the first measured send to the last measured response.
  double measure_wall_s = 0;
  /// Requests sent (warm-up included) and requests that failed: transport
  /// error, non-OK status, wrong tid count, or an empty proof.
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

serve::Request BuildRequest(const serve::LoadGenOptions& options,
                            const serve::PlannedRequest& planned,
                            serve::Client* client) {
  serve::Request request;
  request.verb = planned.verb;
  request.id = client->NextId();
  switch (planned.verb) {
    case serve::Verb::kIngest:
      request.rel = options.ingest_rel;
      for (int j = 0; j < options.ingest_batch_rows; ++j) {
        request.tuples.push_back(
            options.pool[(planned.pick + static_cast<size_t>(j)) %
                         options.pool.size()]);
      }
      break;
    case serve::Verb::kDetect:
      request.scope = options.detect_scope;
      break;
    case serve::Verb::kExplain: {
      const auto& target = options.explain_targets[planned.pick];
      request.explain_rel = std::get<0>(target);
      request.explain_tid = std::get<1>(target);
      request.explain_attr = std::get<2>(target);
      break;
    }
    default:
      break;
  }
  return request;
}

struct ClientOutcome {
  std::vector<std::pair<serve::Verb, double>> measured_ms;
  double first_measured_s = -1;
  double last_measured_s = -1;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Closed loop: one connection and thread per plan of serve::BuildLoadPlan,
// each sending its next request when the previous response has arrived.
// Requests are built as serve::RunLoad builds them; unlike RunLoad, every
// response is checked and each latency is attributed to its planned verb.
LoadOutcome DriveLoad(const serve::LoadGenOptions& options, Tracer* tracer,
                      std::atomic<int64_t>* request_ids) {
  const std::vector<std::vector<serve::PlannedRequest>> plans =
      serve::BuildLoadPlan(options);
  const std::string empty_proof = rock::obs::ProofTree().ToText();
  ScopedSpan load_span(tracer, "serve.load");
  const int64_t parent = load_span.id();

  // Every connection is up before the first request, as in RunLoad.
  std::vector<std::unique_ptr<serve::Client>> clients;
  LoadOutcome outcome;
  for (size_t c = 0; c < plans.size(); ++c) {
    auto client =
        serve::Client::Connect(options.port, options.recv_timeout_seconds);
    if (!client.ok()) {
      // A missing connection fails its whole plan.
      outcome.attempted += plans[c].size();
      outcome.failed += plans[c].size();
      clients.push_back(nullptr);
      continue;
    }
    clients.push_back(std::move(client).value());
  }

  std::vector<ClientOutcome> per_client(plans.size());
  auto run_client = [&](size_t c) {
    ClientOutcome& out = per_client[c];
    const int track = static_cast<int>(c) + 1;
    const size_t warmup = static_cast<size_t>(options.warmup_requests);
    for (size_t i = 0; i < plans[c].size(); ++i) {
      const serve::PlannedRequest& planned = plans[c][i];
      const int64_t request_id = request_ids->fetch_add(1);
      ScopedSpan request_span(tracer, "serve.request", request_id, track,
                              parent);
      serve::Request request = BuildRequest(options, planned, clients[c].get());
      const double sent_s = NowSeconds();
      ScopedSpan call_span(
          tracer, std::string("serve.client.") + serve::VerbName(planned.verb),
          request_id, track);
      rock::Result<serve::Response> response = clients[c]->RoundTrip(request);
      const double seconds = call_span.End();
      ++out.attempted;
      if (!response.ok()) {
        // The connection is unusable: the rest of the plan fails too.
        out.failed += plans[c].size() - i;
        out.attempted += plans[c].size() - i - 1;
        return;
      }
      ScopedSpan check_span(tracer, "serve.check", request_id, track);
      bool ok = response->code == rock::StatusCode::kOk;
      if (planned.verb == serve::Verb::kIngest) {
        ok = ok && response->tids.size() == request.tuples.size();
      } else if (planned.verb == serve::Verb::kExplain) {
        ok = ok && !response->explain_text.empty() &&
             response->explain_text != empty_proof;
      }
      if (!ok) ++out.failed;
      if (i < warmup) continue;
      if (out.first_measured_s < 0) out.first_measured_s = sent_s;
      out.last_measured_s = NowSeconds();
      out.measured_ms.emplace_back(planned.verb, seconds * 1e3);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < plans.size(); ++c) {
    if (clients[c] != nullptr) threads.emplace_back(run_client, c);
  }
  for (std::thread& thread : threads) thread.join();

  double first = -1, last = -1;
  for (const ClientOutcome& out : per_client) {
    outcome.attempted += out.attempted;
    outcome.failed += out.failed;
    for (const auto& [verb, ms] : out.measured_ms) {
      outcome.latency_ms.push_back(ms);
      outcome.verb_latency_ms[verb].push_back(ms);
    }
    if (out.first_measured_s >= 0) {
      first = first < 0 ? out.first_measured_s
                        : std::min(first, out.first_measured_s);
      last = std::max(last, out.last_measured_s);
    }
  }
  outcome.measure_wall_s = first < 0 ? 0 : last - first;
  return outcome;
}

// Tallies the load's requests and adds its samples: serve.latency_ms,
// serve.<verb>_latency_ms and serve.measure_wall_s.
void RecordLoad(const Round& round, const LoadOutcome& outcome) {
  round.results->Ops(outcome.attempted, outcome.failed, "served requests");
  if (!round.measured) return;
  round.results->AddAll("serve.latency_ms", outcome.latency_ms);
  for (const auto& [verb, ms] : outcome.verb_latency_ms) {
    round.results->AddAll(
        std::string("serve.") + serve::VerbName(verb) + "_latency_ms", ms);
  }
  round.results->Add("serve.measure_wall_s", outcome.measure_wall_s);
}

std::unique_ptr<serve::Client> OpenSession(const Round& round, int port) {
  auto client = serve::Client::Connect(port);
  round.Check(client.ok(), "connect verification session");
  return client.ok() ? std::move(client).value() : nullptr;
}

// Median ping round trip, as serve.ping_us.
void ProbePing(const Round& round, serve::Client* client, int count) {
  std::vector<double> micros;
  bool ok = client != nullptr;
  for (int i = 0; ok && i < count; ++i) {
    ScopedSpan span(round.tracer, "serve.ping");
    ok = client->Ping().ok();
    micros.push_back(span.End() * 1e6);
  }
  round.Check(ok, "ping");
  round.Sample("serve.ping_us", Median(micros));
}

// Explains every target through the library (timed, as obs.explain_ms) and
// through the session; each must give the same non-empty proof.
void ProbeExplain(const Round& round, const rock::core::Rock& rock,
                  serve::Client* client, const Targets& targets) {
  const std::string empty_proof = rock::obs::ProofTree().ToText();
  std::vector<double> library_ms;
  for (const auto& [rel, tid, attr] : targets) {
    ScopedSpan span(round.tracer, "obs.explain");
    rock::obs::ProofTree tree = rock.Explain(rel, tid, attr);
    library_ms.push_back(span.End() * 1e3);
    bool served_ok = false;
    if (client != nullptr) {
      auto served = client->Explain(rel, tid, attr);
      served_ok = served.ok() && served->text != empty_proof &&
                  served->text == tree.ToText();
    }
    round.Check(!tree.empty() && served_ok, "explain of a fixed cell");
  }
  round.Sample("obs.explain_ms", Median(library_ms));
}

// Up to `limit` cells the engine fixed: the targets of explain requests.
Targets FixedCells(const rock::chase::ChaseEngine& engine, size_t limit) {
  Targets cells;
  for (const rock::chase::CellFix& fix : engine.CellFixes()) {
    if (cells.size() >= limit) break;
    cells.emplace_back(fix.rel, fix.tid, fix.attr);
  }
  return cells;
}

// The served-detect budget, from outside: on its own session the benchmark
// ingests one batch, then times the served session detect, the library's
// incremental detect over the same tids, and the codec of that response.
// Served minus library minus codec minus ping is server-side dispatch;
// under load, what a detect takes beyond that is lock wait and queueing.
void VerifySession(const Round& round, rock::core::Rock* rock, int port,
                   const std::vector<rock::Tuple>& pool,
                   const Targets& targets) {
  auto session = OpenSession(round, port);
  if (session == nullptr) return;
  ProbePing(round, session.get(), kPings);

  std::vector<rock::Tuple> batch(pool.begin(), pool.begin() + kIngestRows);
  auto tids = session->Ingest(0, batch);
  round.Check(tids.ok() && tids->size() == batch.size(),
              "verification ingest");
  if (!tids.ok()) return;
  std::vector<std::pair<int, int64_t>> delta;
  for (int64_t tid : *tids) delta.emplace_back(0, tid);

  rock::Result<serve::WireDetectionReport> served =
      rock::Status::Internal("not sent");
  {
    ScopedSpan span(round.tracer, "serve.session_detect");
    served = session->Detect(serve::DetectScope::kSession);
    round.Sample("serve.session_detect_ms", span.End() * 1e3);
  }
  rock::detect::DetectionReport library;
  {
    ScopedSpan span(round.tracer, "core.detect_incremental");
    library = rock->DetectActiveIncremental(delta);
    round.Sample("detect.incremental_ms", span.End() * 1e3);
  }
  round.Check(served.ok() && serve::WireReportEquals(*served, library),
              "served session detect equals the library report");

  serve::Response response;
  response.verb = serve::Verb::kDetect;
  response.id = 1;
  response.report = serve::ToWire(library);
  std::vector<double> codec_us;
  bool decoded_ok = true;
  for (int i = 0; i < kCodecRepeats; ++i) {
    ScopedSpan span(round.tracer, "serve.codec");
    const std::string bytes = serve::EncodeResponse(response);
    serve::Response decoded;
    decoded_ok = decoded_ok && serve::DecodeResponse(bytes, &decoded).ok() &&
                 serve::WireReportEquals(decoded.report, library);
    codec_us.push_back(span.End() * 1e6);
  }
  round.Check(decoded_ok, "detect response survives the codec");
  round.Sample("serve.codec_us", Median(codec_us));
  ProbeExplain(round, *rock, session.get(), targets);
}

}  // namespace

std::unique_ptr<serve::RockServer> StartServer(const Round& round,
                                               rock::core::Rock* rock) {
  ScopedSpan span(round.tracer, "serve.start");
  auto started = serve::RockServer::Start(rock, {});
  round.Sample("serve.start_s", span.End());
  round.Check(started.ok(), "rockd starts");
  return started.ok() ? std::move(started).value() : nullptr;
}

void RunServeLoad(const Round& round, rock::core::Rock* rock,
                  const rock::chase::ChaseEngine& engine,
                  serve::RockServer* server, const ServeLoad& plan,
                  std::atomic<int64_t>* request_ids) {
  // Ingest bodies: copies of relation 0's first rows with fresh ids.
  std::vector<rock::Tuple> pool;
  const rock::Relation& relation = rock->db()->relation(0);
  for (size_t t = 0; t < relation.size() && pool.size() < kPoolTuples; ++t) {
    rock::Tuple sample = relation.tuple(t);
    sample.tid = -1;
    sample.eid = -1;
    pool.push_back(std::move(sample));
  }
  const Targets targets = FixedCells(engine, kExplainTargets);
  round.Check(pool.size() >= kIngestRows && !targets.empty(),
              "ingest pool and explain targets");
  if (pool.size() < kIngestRows || targets.empty()) return;
  VerifySession(round, rock, server->port(), pool, targets);

  serve::LoadGenOptions load;
  load.port = server->port();
  load.clients = plan.clients;
  load.warmup_requests = plan.warmup_requests;
  load.measure_requests = plan.measure_requests;
  load.seed = plan.seed;
  load.ingest_weight = 1;
  load.detect_weight = 8;
  load.explain_weight = 1;
  load.ingest_batch_rows = kIngestRows;
  load.ingest_rel = 0;
  load.pool = pool;
  load.detect_scope = serve::DetectScope::kSession;
  load.explain_targets = targets;
  const uint64_t bytes_before =
      CounterValue("rock_serve_bytes_received_total") +
      CounterValue("rock_serve_bytes_sent_total");
  const LoadOutcome outcome = DriveLoad(load, round.tracer, request_ids);
  const uint64_t bytes = CounterValue("rock_serve_bytes_received_total") +
                         CounterValue("rock_serve_bytes_sent_total") -
                         bytes_before;
  RecordLoad(round, outcome);
  if (outcome.attempted > 0) {
    round.Sample("serve.bytes_per_request",
                 static_cast<double>(bytes) /
                     static_cast<double>(outcome.attempted));
  }
}

}  // namespace perfbench
