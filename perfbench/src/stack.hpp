// The full stack one workload drives (cassalite cluster, sparklite engine,
// view catalog, batch and streaming ingestors over a buslite topic, and the
// analytics server), the seeded scenarios it is loaded from, and the
// timed/traced call helpers shared by the workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "buslite/broker.hpp"
#include "cassalite/cluster.hpp"
#include "common/telemetry.hpp"
#include "model/ingest.hpp"
#include "model/streaming_ingest.hpp"
#include "model/views/views.hpp"
#include "oracle.hpp"
#include "server/server.hpp"
#include "sparklite/engine.hpp"
#include "titanlog/generator.hpp"

namespace perfbench {

namespace hc = hpcla;

constexpr const char* kTopic = "titan.events";
/// The OST every scenario's Lustre storm names, and its word-count token.
constexpr int kStormOst = 0x42;
constexpr const char* kStormToken = "ost0042";

struct Stack {
  Stack(std::size_t workers, hc::cassalite::StorageOptions storage = {});

  hc::cassalite::Cluster cluster;
  hc::sparklite::Engine engine;
  hc::model::views::ViewCatalog views;
  hc::model::BatchIngestor batch;
  hc::buslite::Broker broker;
  hc::model::EventPublisher publisher;
  hc::model::StreamingIngestor stream;
  hc::server::AnalyticsServer server;
};

/// History scenario: `hours` hours from kT0 of background noise, an MCE
/// hotspot in one cabinet (hour 1), a Lustre storm naming kStormOst
/// (hour 2), the HWERR -> LustreError causal pair and a job mix.
hc::titanlog::ScenarioConfig history_scenario(std::uint64_t seed, int hours);
/// The hotspot cabinet of history_scenario.
hc::topo::Coord hotspot_cabinet();
/// Start of the storm of history_scenario and its length in seconds.
constexpr std::int64_t kStormStart = kT0 + 2 * kHour + 600;
constexpr std::int64_t kStormSeconds = 300;

/// Dense live stream for [begin, end): a Lustre storm, a hot blade that
/// repeats MCEs within the same second (so coalescing has work), and
/// background noise, about 160 messages per second at density 1. Events
/// only, no jobs.
hc::titanlog::GeneratedLogs live_stream(std::uint64_t seed,
                                        std::int64_t begin, std::int64_t end,
                                        double density);

/// Raw log lines of `logs` bucketed by hour (index 0 = first hour).
std::vector<std::vector<hc::titanlog::LogLine>> lines_by_hour(
    const hc::titanlog::GeneratedLogs& logs, std::int64_t begin, int hours);

/// Counter movement of the telemetry registry between start() and stop().
struct RegistryDelta {
  hc::telemetry::RegistrySnapshot before;
  hc::telemetry::RegistrySnapshot after;
  void start() { before = hc::telemetry::registry().snapshot(); }
  void stop() { after = hc::telemetry::registry().snapshot(); }
  [[nodiscard]] double counter(const std::string& name) const;
};

/// In traced runs, adds the registry counters' movement over this scope's
/// lifetime to `spans`. Wrap only the calls a workload times, so probes
/// that run afterwards do not count.
class CountedCall {
 public:
  explicit CountedCall(Spans& spans);
  ~CountedCall();
  CountedCall(const CountedCall&) = delete;
  CountedCall& operator=(const CountedCall&) = delete;

 private:
  Spans& spans_;
  RegistryDelta delta_;
};

/// One server request sent the way the workload sends it. Untraced runs
/// call handle_text and time it as one call; traced runs split it into
/// Json::parse, AnalyticsServer::handle and Json::dump spans.
struct Answer {
  std::string text;        ///< the response as served
  double us = 0;           ///< timed request latency
  std::int64_t span = 0;   ///< request span id (traced runs)

  /// The parsed response (null when it is not JSON).
  [[nodiscard]] Json json() const;
  /// The serialized "result" member and what follows it, for comparing two
  /// answers to the same request byte for byte (the envelope before it
  /// carries a per-request trace id and the cache state).
  [[nodiscard]] std::string_view result_text() const;
  /// The cache state the server reported ("hit", "view", "miss"), or ""
  /// for an op the result cache does not hold.
  [[nodiscard]] std::string_view cache_state() const;
};
Answer send(Stack& stack, Spans& spans, const std::string& request);

/// One streamed slice, sent the way both live workloads send it.
struct SliceStep {
  hc::model::StreamingReport report;
  /// From publishing the slice's first message until process_available
  /// returns with the slice written (its freshness).
  double us = 0;
  /// The slice as stored: one record per (type, node, second).
  std::vector<EventRecord> stored;
};
/// Publishes every event of `slice` with EventPublisher and drains them
/// with one StreamingIngestor::process_available, timed as one call.
/// Checks that the drain wrote exactly the slice's distinct (type, node,
/// second) keys. Traced runs record publish and process µs per message.
SliceStep stream_slice(Stack& stack, Spans& spans,
                       const std::vector<EventRecord>& slice, Outcome& out);
/// Traced runs: drains `consumer`, a consumer of another group on the
/// live topic, and records its poll µs per message.
void probe_poll(hc::buslite::Consumer& consumer, Spans& spans);

/// Per-layer probes on one request (traced runs only): the analytic named
/// by the request's op called directly with the request's own parameters,
/// the sparklite scan, the coordinator parallel_read and the per-node
/// storage scan of the same partitions, each as a span under `parent`.
void probe_context_layers(Stack& stack, Spans& spans, std::int64_t parent,
                          const Json& request, const Ctx& ctx);

/// Fills every per-layer metric this benchmark defines that the workload
/// left unset with 0, and the ones derived from spans and the registry.
void finish_layers(Outcome& out, const Spans& spans, double timed_wall_s,
                   double timed_cpu_s,
                   std::uint64_t complex_queries);

}  // namespace perfbench
