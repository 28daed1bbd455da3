#include "stack.hpp"

#include <algorithm>

#include "analytics/app_profile.hpp"
#include "analytics/assoc.hpp"
#include "analytics/composite.hpp"
#include "analytics/distribution.hpp"
#include "analytics/heatmap.hpp"
#include "analytics/prediction.hpp"
#include "analytics/queries.hpp"
#include "analytics/reliability.hpp"
#include "analytics/text.hpp"
#include "analytics/timeseries.hpp"
#include "analytics/transfer_entropy.hpp"
#include "model/tables.hpp"

namespace perfbench {

using hc::titanlog::EventType;

Stack::Stack(std::size_t workers, hc::cassalite::StorageOptions storage)
    : cluster([&] {
        hc::cassalite::ClusterOptions o;
        o.node_count = 4;
        o.replication_factor = 3;
        o.storage = storage;
        return o;
      }()),
      engine([&] {
        hc::sparklite::EngineOptions o;
        o.workers = workers;
        return o;
      }()),
      batch(cluster, engine),
      publisher(broker, kTopic),
      stream(cluster, engine, broker,
             [this] {
               HPCLA_CHECK(broker.create_topic(kTopic).is_ok());
               return std::string(kTopic);
             }()),
      server(cluster, engine) {
  HPCLA_CHECK(hc::model::create_data_model(cluster).is_ok());
  HPCLA_CHECK(hc::model::load_eventtypes(cluster).is_ok());
  batch.set_view_catalog(&views);
  stream.set_view_catalog(&views);
  server.set_view_catalog(&views);
}

hc::topo::Coord hotspot_cabinet() { return hc::topo::Coord{4, 2, -1, -1, -1}; }

hc::titanlog::ScenarioConfig history_scenario(std::uint64_t seed, int hours) {
  hc::titanlog::ScenarioConfig cfg;
  cfg.seed = 0x7174A000u + seed;
  cfg.window = hc::TimeRange{kT0, kT0 + hours * kHour};
  cfg.background_scale = 10.0;
  hc::titanlog::HotspotSpec hot;
  hot.type = EventType::kMachineCheck;
  hot.location = hotspot_cabinet();
  hot.window = hc::TimeRange{kT0 + kHour, kT0 + 2 * kHour};
  hot.rate_per_node_hour = 20.0;
  cfg.hotspots.push_back(hot);
  hc::titanlog::LustreStormSpec storm;
  storm.start = kStormStart;
  storm.duration_seconds = kStormSeconds;
  storm.ost_index = kStormOst;
  storm.messages_per_second = 60.0;
  cfg.storms.push_back(storm);
  cfg.causal_pairs.push_back(hc::titanlog::CausalPairSpec{});
  cfg.jobs = hc::titanlog::JobMixSpec{
      .users = 20, .apps = 12, .jobs_per_hour = 60, .max_size_log2 = 8};
  return cfg;
}

hc::titanlog::GeneratedLogs live_stream(std::uint64_t seed, std::int64_t begin,
                                        std::int64_t end, double density) {
  hc::titanlog::ScenarioConfig cfg;
  cfg.seed = 0x5747E000u + seed * 7919u + static_cast<std::uint64_t>(begin);
  cfg.window = hc::TimeRange{begin, end};
  cfg.background_scale = 40.0 * density;
  hc::titanlog::HotspotSpec hot;
  hot.type = EventType::kMachineCheck;
  hot.location = hc::topo::Coord{7, 3, 1, 2, -1};  // one blade, four nodes
  hot.window = cfg.window;
  hot.rate_per_node_hour = 30000.0 * density;
  hot.node_skew = 1.0;
  cfg.hotspots.push_back(hot);
  hc::titanlog::LustreStormSpec storm;
  storm.start = begin;
  storm.duration_seconds = end - begin;
  storm.ost_index = kStormOst;
  storm.messages_per_second = 120.0 * density;
  cfg.storms.push_back(storm);
  return hc::titanlog::Generator(cfg).generate();
}

std::vector<std::vector<hc::titanlog::LogLine>> lines_by_hour(
    const hc::titanlog::GeneratedLogs& logs, std::int64_t begin, int hours) {
  std::vector<std::vector<hc::titanlog::LogLine>> out(
      static_cast<std::size_t>(hours));
  for (auto& line : hc::titanlog::render_all(logs)) {
    const std::int64_t h = (line.ts - begin) / kHour;
    out[static_cast<std::size_t>(std::clamp<std::int64_t>(h, 0, hours - 1))]
        .push_back(std::move(line));
  }
  return out;
}

double RegistryDelta::counter(const std::string& name) const {
  const auto a = after.counters.find(name);
  const auto b = before.counters.find(name);
  const double va = a == after.counters.end() ? 0.0 : double(a->second);
  const double vb = b == before.counters.end() ? 0.0 : double(b->second);
  return va - vb;
}

namespace {

/// Registry counters attributed to the calls a workload times; traced runs
/// accumulate their movement around each such call only, so the per-layer
/// probes that follow a call do not count.
const std::vector<std::string>& watched_counters() {
  static const std::vector<std::string> names = {
      "server.cache.hits",
      "server.cache.misses",
      "server.cache.invalidations",
      "server.queries.view_served",
      "sparklite.stages",
      "sparklite.tasks",
      "sparklite.shuffle.records",
      "sparklite.shuffle.map_us",
      "sparklite.shuffle.reduce_us",
      "sparklite.spill.bytes",
      "cassalite.read.ok",
      "cassalite.write.ok",
      "cassalite.read.repairs",
      "cassalite.read.digest_mismatches",
      "cassalite.storage.reads",
      "cassalite.storage.writes",
      "cassalite.storage.sstables_read",
      "cassalite.storage.bloom_rejections",
      "cassalite.storage.memtable_flushes",
      "cassalite.storage.compactions",
      "cassalite.storage.compaction_stall_us",
  };
  return names;
}

}  // namespace

CountedCall::CountedCall(Spans& spans) : spans_(spans) {
  if (spans_.enabled()) delta_.start();
}

CountedCall::~CountedCall() {
  if (!spans_.enabled()) return;
  delta_.stop();
  for (const auto& name : watched_counters()) {
    spans_.add_counter(name, delta_.counter(name));
  }
}

Json Answer::json() const {
  auto parsed = Json::parse(text);
  return parsed.is_ok() ? std::move(parsed).value() : Json();
}

std::string_view Answer::result_text() const {
  const std::size_t at = text.find("\"result\":");
  return at == std::string::npos ? std::string_view(text)
                                 : std::string_view(text).substr(at);
}

std::string_view Answer::cache_state() const {
  const std::string_view envelope = std::string_view(text).substr(
      0, text.size() - result_text().size());
  constexpr std::string_view kKey = "\"cache\":\"";
  const std::size_t at = envelope.find(kKey);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + kKey.size();
  return envelope.substr(begin, envelope.find('"', begin) - begin);
}

Answer send(Stack& stack, Spans& spans, const std::string& request) {
  Answer a;
  if (!spans.enabled()) {
    const double t0 = now_s();
    a.text = stack.server.handle_text(request);
    a.us = (now_s() - t0) * 1e6;
    return a;
  }
  Spans::Scope root(spans, "request");
  a.span = root.id();
  {
    CountedCall counted(spans);
    const double t0 = now_s();
    hc::Result<Json> request_json = [&] {
      Spans::Scope s(spans, "server.parse");
      return Json::parse(request);
    }();
    if (request_json.is_ok()) {
      const Json response = [&] {
        Spans::Scope s(spans, "server.handle");
        return stack.server.handle(request_json.value());
      }();
      Spans::Scope s(spans, "server.dump");
      a.text = response.dump();
    }
    a.us = (now_s() - t0) * 1e6;
  }
  spans.value("server.response_bytes", static_cast<double>(a.text.size()));
  return a;
}

SliceStep stream_slice(Stack& stack, Spans& spans,
                       const std::vector<EventRecord>& slice, Outcome& out) {
  SliceStep step;
  {
    CountedCall counted(spans);
    Spans::Scope s(spans, "model.stream_slice");
    const double t0 = now_s();
    for (const auto& e : slice) {
      if (!stack.publisher.publish(e).is_ok()) out.wrong("publish failed");
    }
    const double t1 = now_s();
    step.report = stack.stream.process_available();
    const double t2 = now_s();
    step.us = (t2 - t0) * 1e6;
    if (!slice.empty()) {
      const auto n = static_cast<double>(slice.size());
      spans.value("buslite.publish_us_per_msg", (t1 - t0) * 1e6 / n);
      spans.value("model.stream_process_us_per_msg", (t2 - t1) * 1e6 / n);
    }
  }
  step.stored = coalesce(slice);
  const auto& r = step.report;
  if (r.messages_in != slice.size() || r.decode_failures != 0 ||
      r.write_failures != 0 || r.events_written != step.stored.size()) {
    out.wrong("slice of " + std::to_string(slice.size()) + " messages wrote " +
              std::to_string(r.events_written) + " events, expected the " +
              std::to_string(step.stored.size()) +
              " distinct (type, node, second) keys published");
  }
  return step;
}

void probe_poll(hc::buslite::Consumer& consumer, Spans& spans) {
  if (!spans.enabled()) return;
  const double t0 = now_s();
  std::size_t polled = 0;
  for (auto batch = consumer.poll(4096); !batch.empty();
       batch = consumer.poll(4096)) {
    polled += batch.size();
  }
  if (polled > 0) {
    spans.value("buslite.poll_us_per_msg",
                (now_s() - t0) * 1e6 / static_cast<double>(polled));
  }
}

void probe_context_layers(Stack& stack, Spans& spans, std::int64_t parent,
                          const Json& request, const Ctx& c) {
  if (!spans.enabled()) return;
  namespace an = hc::analytics;
  auto parsed = an::Context::from_json(c.to_json());
  if (!parsed.is_ok()) return;
  const an::Context ctx = parsed.value();
  auto& engine = stack.engine;
  const auto& cluster = stack.cluster;
  // The request's own parameters, with the server's defaults.
  const std::string op = request.get_string("op").value_or("");
  const auto type_of = [&request](const char* field) {
    const auto id = request.get_string(field);
    if (!id.is_ok()) return EventType::kMachineCheck;
    const auto type = hc::titanlog::event_type_from_id(id.value());
    return type.is_ok() ? type.value() : EventType::kMachineCheck;
  };
  const std::int64_t bin = request.get_int("bin_seconds").value_or(60);
  {
    Spans::Scope s(spans, "analytics." + op, parent);
    if (op == "heatmap") {
      (void)an::build_heatmap(engine, cluster, ctx);
    } else if (op == "hourly") {
      (void)an::hourly_distribution(engine, cluster, ctx);
    } else if (op == "distribution") {
      const auto group = an::group_by_from_string(
          request.get_string("group_by").value_or("type"));
      if (group.is_ok()) {
        (void)an::distribution(engine, cluster, ctx, group.value());
      }
    } else if (op == "timeseries") {
      (void)an::event_series(engine, cluster, ctx, type_of("type"), bin);
    } else if (op == "word_count") {
      (void)an::word_count(
          engine, cluster, ctx,
          static_cast<std::size_t>(request.get_int("top_k").value_or(20)));
    } else if (op == "storm_signature") {
      (void)an::storm_signature(
          engine, cluster, ctx, request.get_int("bucket_seconds").value_or(60),
          static_cast<std::size_t>(request.get_int("top_k").value_or(10)));
    } else if (op == "cross_correlation" || op == "transfer_entropy") {
      const auto a =
          an::event_series(engine, cluster, ctx, type_of("type_a"), bin);
      const auto b =
          an::event_series(engine, cluster, ctx, type_of("type_b"), bin);
      if (op == "cross_correlation") {
        (void)an::cross_correlation(
            a, b,
            static_cast<std::size_t>(request.get_int("max_lag").value_or(10)));
      } else {
        (void)an::transfer_entropy_pair(
            a, b, static_cast<int>(request.get_int("levels").value_or(2)));
      }
    } else if (op == "reliability") {
      (void)an::reliability_report(engine, cluster, ctx);
    } else if (op == "app_impact") {
      (void)an::app_impact(engine, cluster, ctx);
    } else if (op == "composite_events") {
      (void)an::detect_composites(engine, cluster, ctx,
                                  an::default_composite_rules());
    } else if (op == "association_rules") {
      (void)an::mine_association_rules(engine, cluster, ctx,
                                       an::AssocConfig{});
    } else if (op == "app_profiles") {
      (void)an::build_app_profiles(engine, cluster, ctx);
    } else if (op == "predict_failures") {
      (void)an::evaluate_predictor(engine, cluster, ctx,
                                   an::PredictorConfig{});
    }
  }
  {
    Spans::Scope s(spans, "sparklite.scan", parent);
    spans.value("sparklite.scan_rows",
                static_cast<double>(
                    an::event_dataset(engine, cluster, ctx).collect().size()));
  }
  const an::ScanPlan plan = an::plan_event_scan(ctx);
  const std::string table(plan == an::ScanPlan::kByTime
                              ? hc::model::kEventByTime
                              : hc::model::kEventByLocation);
  const auto keys = an::event_partition_keys(ctx, plan);
  {
    Spans::Scope s(spans, "cassalite.parallel_read", parent);
    (void)cluster.parallel_read(engine.pool(), table, keys);
  }
  {
    // The engine path's scan: each key read on its primary replica.
    std::map<hc::cassalite::NodeIndex, std::vector<std::string>> by_node;
    for (const auto& key : keys) {
      by_node[cluster.ring().primary(key)].push_back(key);
    }
    Spans::Scope s(spans, "storage.scan", parent);
    for (const auto& [node, node_keys] : by_node) {
      cluster.engine(node).scan_partitions(
          table, node_keys, {},
          [](const std::string&, std::vector<hc::cassalite::Row>) {});
    }
  }
}

namespace {

/// Every per-layer metric the benchmark defines, with its unit. Names
/// follow the src/ modules; BENCHMARK.json lists the same set.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"server.parse_us", "us"},
      {"server.handle_us", "us"},
      {"server.dump_us", "us"},
      {"server.response_bytes", "bytes"},
      {"server.cache_hits", "count"},
      {"server.cache_misses", "count"},
      {"server.cache_lookups", "count"},
      {"server.cache_hit_ratio", "ratio"},
      {"server.view_served", "count"},
      {"server.cache_invalidations", "count"},
      {"views.apply_us_per_event", "us"},
      {"views.heatmap_counts_us", "us"},
      {"views.hourly_counts_us", "us"},
      {"analytics.heatmap_us", "us"},
      {"analytics.hourly_us", "us"},
      {"analytics.distribution_us", "us"},
      {"analytics.timeseries_us", "us"},
      {"analytics.word_count_us", "us"},
      {"analytics.storm_signature_us", "us"},
      {"analytics.cross_correlation_us", "us"},
      {"analytics.transfer_entropy_us", "us"},
      {"analytics.reliability_us", "us"},
      {"analytics.app_impact_us", "us"},
      {"analytics.composite_events_us", "us"},
      {"analytics.association_rules_us", "us"},
      {"analytics.app_profiles_us", "us"},
      {"analytics.predict_failures_us", "us"},
      {"sparklite.scan_us", "us"},
      {"sparklite.stages_per_query", "count"},
      {"sparklite.tasks_per_query", "count"},
      {"sparklite.shuffle_records_per_query", "count"},
      {"sparklite.shuffle_map_us", "us"},
      {"sparklite.shuffle_reduce_us", "us"},
      {"sparklite.spill_bytes", "bytes"},
      {"proc.cpu_per_wall", "ratio"},
      {"cassalite.parallel_read_us", "us"},
      {"cassalite.select_us", "us"},
      {"cassalite.reads_ok", "count"},
      {"cassalite.writes_ok", "count"},
      {"cassalite.read_repairs", "count"},
      {"cassalite.digest_mismatches", "count"},
      {"storage.scan_us", "us"},
      {"storage.sstables_read_per_read", "ratio"},
      {"storage.bloom_rejections", "count"},
      {"storage.memtable_flushes", "count"},
      {"storage.compactions", "count"},
      {"storage.compaction_stall_us", "us"},
      {"storage.writes_per_event", "ratio"},
      {"titanlog.parse_us_per_line", "us"},
      {"titanlog.generate_s", "s"},
      {"model.upload_us_per_event", "us"},
      {"model.write_event_us", "us"},
      {"model.stream_process_us_per_msg", "us"},
      {"model.stream_batches", "count"},
      {"model.coalesce_ratio", "ratio"},
      {"buslite.publish_us_per_msg", "us"},
      {"buslite.poll_us_per_msg", "us"},
  };
  return m;
}

}  // namespace

void finish_layers(Outcome& out, const Spans& spans, double timed_wall_s,
                   double timed_cpu_s, std::uint64_t complex_queries) {
  auto set = [&out](const std::string& name, double v) {
    if (out.per_layer.count(name) == 0) out.per_layer[name].value = v;
  };
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  for (const char* name : {"server.parse", "server.handle", "server.dump",
                           "views.heatmap_counts", "views.hourly_counts",
                           "sparklite.scan", "cassalite.parallel_read",
                           "cassalite.select", "storage.scan"}) {
    set(std::string(name) + "_us", spans.durations(name).median());
  }
  for (const auto& [name, unit] : layer_metrics()) {
    if (name.rfind("analytics.", 0) == 0) {
      set(name, spans.durations(name.substr(0, name.size() - 3)).median());
    }
  }
  for (const char* name :
       {"server.response_bytes", "views.apply_us_per_event",
        "titanlog.parse_us_per_line", "model.upload_us_per_event",
        "model.write_event_us", "model.stream_process_us_per_msg",
        "buslite.publish_us_per_msg", "buslite.poll_us_per_msg"}) {
    set(name, spans.values(name).median());
  }
  const double hits = spans.counter("server.cache.hits");
  const double misses = spans.counter("server.cache.misses");
  set("server.cache_hits", hits);
  set("server.cache_misses", misses);
  set("server.cache_lookups", hits + misses);
  set("server.cache_hit_ratio", per(hits, hits + misses));
  set("server.view_served", spans.counter("server.queries.view_served"));
  set("server.cache_invalidations", spans.counter("server.cache.invalidations"));
  const auto q = static_cast<double>(complex_queries);
  set("sparklite.stages_per_query", per(spans.counter("sparklite.stages"), q));
  set("sparklite.tasks_per_query", per(spans.counter("sparklite.tasks"), q));
  set("sparklite.shuffle_records_per_query",
      per(spans.counter("sparklite.shuffle.records"), q));
  set("sparklite.shuffle_map_us",
      per(spans.counter("sparklite.shuffle.map_us"), q));
  set("sparklite.shuffle_reduce_us",
      per(spans.counter("sparklite.shuffle.reduce_us"), q));
  set("sparklite.spill_bytes", spans.counter("sparklite.spill.bytes"));
  set("proc.cpu_per_wall", per(timed_cpu_s, timed_wall_s));
  set("cassalite.reads_ok", spans.counter("cassalite.read.ok"));
  set("cassalite.writes_ok", spans.counter("cassalite.write.ok"));
  set("cassalite.read_repairs", spans.counter("cassalite.read.repairs"));
  set("cassalite.digest_mismatches",
      spans.counter("cassalite.read.digest_mismatches"));
  set("storage.sstables_read_per_read",
      per(spans.counter("cassalite.storage.sstables_read"),
          spans.counter("cassalite.storage.reads")));
  set("storage.bloom_rejections",
      spans.counter("cassalite.storage.bloom_rejections"));
  set("storage.memtable_flushes",
      spans.counter("cassalite.storage.memtable_flushes"));
  set("storage.compactions", spans.counter("cassalite.storage.compactions"));
  set("storage.compaction_stall_us",
      spans.counter("cassalite.storage.compaction_stall_us"));
  for (const auto& [name, unit] : layer_metrics()) {
    set(name, 0.0);
    out.per_layer[name].unit = unit;
  }
}

}  // namespace perfbench
