// `dashboard`: live monitoring. A fixed set of panels over hour-aligned
// windows ending at the live hour is refreshed by several viewers after
// each streaming slice lands new events in that hour. Most answers come
// from the result cache or the view tiles; each slice invalidates the
// live-hour entries, so the first viewer after a slice is view-served and
// the others hit the cache.
#include "checks.hpp"
#include "model/keys.hpp"
#include "stack.hpp"

namespace perfbench {

namespace {

using hc::titanlog::EventType;

constexpr int kHistoryHours = 5;
constexpr int kViewers = 3;
constexpr std::int64_t kSliceSeconds = 2;
/// About 16 live messages per second of event time: each slice lands new
/// events in the live hour, while the stored data, and with it the memory
/// a run needs, grows little with the number of slices a run gets done.
constexpr double kLiveDensity = 0.1;
/// Slices between two engine-path comparisons of every panel; each costs
/// about half a second of engine work outside the timed calls.
constexpr std::int64_t kEngineCheckEvery = 16;
/// Slices between two per-layer probes of traced runs.
constexpr std::int64_t kProbeEvery = 4;
/// Live events are generated a minute of event time at a time.
constexpr std::int64_t kChunkSeconds = 60;
constexpr std::int64_t kLiveBegin = kT0 + kHistoryHours * kHour;

struct Panel {
  const char* name;
  const char* op;
  std::vector<EventType> types;
  Json extra = Json::object();
};

/// Index of the hourly-counts panel in panels().
constexpr std::size_t kHourlyPanel = 3;

std::vector<Panel> panels() {
  std::vector<Panel> p;
  p.push_back({"heatmap_all", "heatmap", {}});
  p.push_back({"heatmap_mce", "heatmap", {EventType::kMachineCheck}});
  p.push_back({"heatmap_lustre", "heatmap", {EventType::kLustreError}});
  p.push_back({"hourly", "hourly", {}});  // kHourlyPanel
  p.push_back({"type_distribution", "distribution", {}});
  p.back().extra["group_by"] = "type";
  p.push_back({"mce_series", "timeseries", {}});
  p.back().extra["type"] = "MCE";
  p.back().extra["bin_seconds"] = 3600;
  p.push_back({"burst", "burst", {}});
  p.back().extra["group_by"] = "type";
  p.push_back({"synopsis", "synopsis", {}});
  return p;
}

/// The panel's window: the five hours before the live hour and the live
/// hour itself, hour-aligned.
Ctx panel_ctx(const Panel& p, std::int64_t live_hour_begin) {
  Ctx c;
  c.begin = live_hour_begin - kHistoryHours * kHour;
  c.end = live_hour_begin + kHour;
  c.types = p.types;
  return c;
}

std::string panel_request(const Panel& p, const Ctx& c) {
  Json body = Json::object();
  body["op"] = p.op;
  if (std::string(p.op) == "synopsis") {
    body["window"]["begin"] = c.begin;
    body["window"]["end"] = c.end;
  } else {
    body["context"] = c.to_json();
  }
  for (const auto& [k, v] : p.extra.as_object()) body[k] = v;
  return body.dump();
}

/// Oracle check of one panel's result.
std::string check_panel(const Oracle& o, const Panel& p, const Ctx& c,
                        const Json& result) {
  const std::string op = p.op;
  if (op == "heatmap") return check_heatmap(o, c, result);
  if (op == "hourly") return check_hourly(o, c, result);
  if (op == "distribution") return check_distribution(o, c, Group::kType, result);
  if (op == "timeseries") {
    return check_timeseries(o, c, EventType::kMachineCheck, 3600, result);
  }
  if (op == "synopsis") return check_synopsis(o, c.begin, c.end, result);
  return check_burst_counts(o, c, result);
}

}  // namespace

void run_dashboard(const Args& args, double process_start, Outcome& out) {
  Spans spans(args.trace);
  const double g0 = now_s();
  const auto logs = hc::titanlog::Generator(
                        history_scenario(args.seed, kHistoryHours))
                        .generate();
  const auto hours = lines_by_hour(logs, kT0, kHistoryHours);
  std::vector<std::vector<EventRecord>> chunks;
  const auto live_chunk = [&](std::size_t i) {
    const std::int64_t b = kLiveBegin + static_cast<std::int64_t>(i) * kChunkSeconds;
    return live_stream(args.seed, b, b + kChunkSeconds, kLiveDensity).events;
  };
  constexpr std::size_t kPreparedChunks = 12;
  for (std::size_t i = 0; i < kPreparedChunks; ++i) chunks.push_back(live_chunk(i));
  const double generate_s = now_s() - g0;

  Stack stack(args.workers);
  for (const auto& lines : hours) {
    const auto report = stack.batch.ingest_lines(lines);
    if (report.parse.unmatched + report.parse.malformed +
            report.write_failures != 0) {
      out.wrong("history load: unmatched, malformed or failed writes");
    }
  }
  // The engine-path reference: same cluster and engine, no view catalog.
  hc::server::AnalyticsServer reference(stack.cluster, stack.engine);
  hc::buslite::Consumer probe_consumer(stack.broker, "perfbench-probe", kTopic);
  Oracle oracle;
  oracle.add_events(logs.events);
  oracle.add_jobs(logs.jobs);
  const auto panel_set = panels();
  out.end_to_end["setup_s"] = {now_s() - process_start, "s"};

  Samples all_us, simple_us, complex_us, hit_us, other_us, freshness_us;
  double request_s = 0, hit_s = 0, other_s = 0, stream_s = 0;
  std::uint64_t messages = 0, reference_requests = 0;
  RegistryDelta registry;
  registry.start();
  const double cpu0 = process_cpu_s();
  const double wall0 = now_s();
  std::int64_t round = 0;
  for (; request_s < args.seconds; ++round) {
    // One slice of live events: publish, drain, time to written.
    const std::int64_t slice_begin = kLiveBegin + round * kSliceSeconds;
    const auto chunk_index =
        static_cast<std::size_t>((slice_begin - kLiveBegin) / kChunkSeconds);
    while (chunks.size() <= chunk_index) chunks.push_back(live_chunk(chunks.size()));
    std::vector<EventRecord> slice;
    for (const auto& e : chunks[chunk_index]) {
      if (e.ts >= slice_begin && e.ts < slice_begin + kSliceSeconds) {
        slice.push_back(e);
      }
    }
    const SliceStep step = stream_slice(stack, spans, slice, out);
    stream_s += step.us / 1e6;
    freshness_us.add(step.us);
    messages += slice.size();
    oracle.add_events(step.stored);

    // Every viewer refreshes every panel.
    const std::int64_t live_hour = slice_begin / kHour * kHour;
    // Later viewers must get the first viewer's bytes; only the first
    // viewer's answers are parsed and checked further.
    std::vector<Json> first(panel_set.size());
    std::vector<std::string> first_body(panel_set.size());
    for (int viewer = 0; viewer < kViewers; ++viewer) {
      for (std::size_t p = 0; p < panel_set.size(); ++p) {
        const Panel& panel = panel_set[p];
        const std::string request = panel_request(panel, panel_ctx(panel, live_hour));
        const Answer a = send(stack, spans, request);
        request_s += a.us / 1e6;
        ++out.attempted;
        all_us.add(a.us);
        const bool simple = std::string(panel.op) == "synopsis";
        (simple ? simple_us : complex_us).add(a.us);
        const bool hit = a.cache_state() == "hit";
        (hit ? hit_us : other_us).add(a.us);
        (hit ? hit_s : other_s) += a.us / 1e6;
        if (viewer == 0) {
          const Json response = a.json();
          if (auto e = check_envelope(response, simple ? "simple" : "complex");
              !e.empty()) {
            out.wrong(std::string(panel.name) + ": " + e);
          }
          first[p] = response["result"];
          first_body[p] = a.result_text();
        } else if (a.result_text() != first_body[p]) {
          out.wrong(std::string(panel.name) + " viewer " +
                    std::to_string(viewer) +
                    ": answer differs from the first viewer's");
        }
      }
    }

    // The live hour holds exactly the events streamed into it so far.
    Ctx live;
    live.begin = live_hour;
    live.end = live_hour + kHour;
    if (auto e = check_live_hour(first[kHourlyPanel], live_hour / kHour,
                                 oracle.total(live));
        !e.empty()) {
      out.wrong("after slice " + std::to_string(round) + ": " + e);
    }
    // Every panel is checked against the oracle after every slice. Every
    // kEngineCheckEvery slices, and after the last, every panel is also
    // compared with the engine path of a second server with no view
    // catalog: byte for byte, except burst, whose view path merges GK
    // sketches, so only its labels and event counts must agree.
    const bool engine_check =
        round % kEngineCheckEvery == 0 || request_s >= args.seconds;
    for (std::size_t p = 0; p < panel_set.size(); ++p) {
      const Panel& panel = panel_set[p];
      const Ctx c = panel_ctx(panel, live_hour);
      std::string problem = check_panel(oracle, panel, c, first[p]);
      if (problem.empty() && engine_check) {
        const Json engine =
            reference.handle(*Json::parse(panel_request(panel, c)))["result"];
        ++reference_requests;
        problem = std::string(panel.op) == "burst"
                      ? check_burst(first[p], engine)
                      : check_same(first[p], engine);
      }
      if (!problem.empty()) {
        out.wrong(std::string(panel.name) + " after slice " +
                  std::to_string(round) + ": " + problem);
      }
    }

    // Traced runs probe the layers every kProbeEvery slices, one panel in
    // rotation.
    if (spans.enabled() && round % kProbeEvery == 0) {
      const Panel& panel =
          panel_set[static_cast<std::size_t>(round / kProbeEvery) %
                    panel_set.size()];
      if (std::string(panel.op) != "synopsis" &&
          std::string(panel.op) != "burst") {
        const Ctx c = panel_ctx(panel, live_hour);
        probe_context_layers(stack, spans, 0,
                             *Json::parse(panel_request(panel, c)), c);
      }
      const Ctx c = panel_ctx(panel_set[0], live_hour);
      const hc::model::views::ViewQuery q{hc::TimeRange{c.begin, c.end}, {},
                                          std::nullopt};
      {
        Spans::Scope s(spans, "views.heatmap_counts");
        (void)stack.views.heatmap_counts(q);
      }
      {
        Spans::Scope s(spans, "views.hourly_counts");
        (void)stack.views.hourly_counts(q);
      }
      {
        hc::cassalite::ReadQuery rq;
        rq.table = "eventsynopsis";
        rq.partition_key = hc::model::synopsis_key(live_hour / kHour);
        Spans::Scope s(spans, "cassalite.select");
        (void)stack.cluster.select(rq);
      }
      if (!slice.empty()) {
        hc::model::views::ViewCatalog fresh;
        const double t0 = now_s();
        for (const auto& e : slice) fresh.apply(e);
        spans.value("views.apply_us_per_event",
                    (now_s() - t0) * 1e6 / static_cast<double>(slice.size()));
      }
      probe_poll(probe_consumer, spans);
    }
  }
  const double wall_s = now_s() - wall0;
  const double cpu_s = process_cpu_s() - cpu0;
  registry.stop();
  const double counted = registry.counter("server.queries.simple") +
                         registry.counter("server.queries.complex") +
                         registry.counter("server.queries.errors");
  if (counted != static_cast<double>(out.attempted + reference_requests)) {
    out.wrong("server counted " + std::to_string(counted) + " queries, sent " +
              std::to_string(out.attempted) + " plus " +
              std::to_string(reference_requests) + " reference requests");
  }

  out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  rate_metric(out, "ops_per_s", static_cast<double>(all_us.size()), request_s);
  // Answers the server reports as result-cache hits, and all others (view
  // tiles, engine misses and synopsis reads).
  rate_metric(out, "fast_ops_per_s", static_cast<double>(hit_us.size()), hit_s);
  rate_metric(out, "slow_ops_per_s", static_cast<double>(other_us.size()),
              other_s);
  reference_figure(out, "latency_p50_us", all_us.median(), all_us.size());
  reference_figure(out, "latency_p90_us", all_us.quantile(0.9), all_us.size());
  reference_figure(out, "queries_per_s",
                   static_cast<double>(all_us.size()) / request_s, all_us.size());
  reference_figure(out, "simple_p50_us", simple_us.median(), simple_us.size());
  reference_figure(out, "complex_p50_us", complex_us.median(),
                   complex_us.size());
  reference_figure(out, "complex_p90_us", complex_us.quantile(0.9),
                   complex_us.size());
  reference_figure(out, "stream_msgs_per_s",
                   static_cast<double>(messages) / stream_s,
                   freshness_us.size());
  reference_figure(out, "freshness_p50_us", freshness_us.median(),
                   freshness_us.size());
  reference_figure(out, "rounds", static_cast<double>(round),
                   static_cast<std::size_t>(round));
  if (spans.enabled()) {
    const auto& totals = stack.stream.totals();
    out.per_layer["titanlog.generate_s"].value = generate_s;
    out.per_layer["model.stream_batches"].value =
        static_cast<double>(totals.batches);
    out.per_layer["model.coalesce_ratio"].value = totals.coalesce_ratio();
    finish_layers(out, spans, wall_s, cpu_s, complex_us.size());
    spans.write(args.out_dir + "/trace-dashboard-" +
                std::to_string(args.seed) + ".json");
  }
}

}  // namespace perfbench
