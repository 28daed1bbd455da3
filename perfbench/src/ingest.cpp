// `ingest`: the whole write path and no query. Each round loads one hour
// of raw console/netwatch/job lines through BatchIngestor::ingest_lines,
// then publishes a stretch of live events on the bus slice by slice and
// drains each slice with StreamingIngestor::process_available.
#include <cmath>

#include "checks.hpp"
#include "stack.hpp"

namespace perfbench {

namespace {

using hc::titanlog::EventType;

/// Memtable flush threshold of the ingest cluster: small enough that every
/// run flushes many memtables and compacts inside the timed phase.
constexpr std::size_t kMemtableFlushBytes = 1u << 20;
constexpr int kSlicesPerRound = 20;
constexpr std::int64_t kSliceSeconds = 4;
/// Streamed events live in hours far after the batch hours.
constexpr std::int64_t kStreamBegin = kT0 + 1000 * kHour;
/// Rounds whose inputs set-up makes, per second of --seconds: one round
/// takes about 0.7 s of timed calls on the reference box, so a run uses
/// about half of them and a program twice as fast still finds its inputs
/// made.
constexpr double kRoundsPerSecond = 3.0;

/// Batch hour `k`: background noise, an MCE hotspot in a cabinet that moves
/// each hour, a one-minute Lustre storm and the job mix. Job ids are
/// renumbered per hour so hours never share an apid.
hc::titanlog::GeneratedLogs batch_hour(std::uint64_t seed, std::int64_t k) {
  hc::titanlog::ScenarioConfig cfg;
  cfg.seed = 0x1A6E5700u + seed * 1000003u + static_cast<std::uint64_t>(k);
  const std::int64_t begin = kT0 + k * kHour;
  cfg.window = hc::TimeRange{begin, begin + kHour};
  cfg.background_scale = 10.0;
  hc::titanlog::HotspotSpec hot;
  hot.type = EventType::kMachineCheck;
  hot.location = hc::topo::Coord{static_cast<int>(k % 25),
                                 static_cast<int>((k / 25) % 8), -1, -1, -1};
  hot.window = cfg.window;
  hot.rate_per_node_hour = 20.0;
  cfg.hotspots.push_back(hot);
  hc::titanlog::LustreStormSpec storm;
  storm.start = begin + 1200;
  storm.duration_seconds = 60;
  storm.ost_index = kStormOst;
  storm.messages_per_second = 60.0;
  cfg.storms.push_back(storm);
  cfg.causal_pairs.push_back(hc::titanlog::CausalPairSpec{});
  cfg.jobs = hc::titanlog::JobMixSpec{
      .users = 20, .apps = 12, .jobs_per_hour = 60, .max_size_log2 = 8};
  auto logs = hc::titanlog::Generator(cfg).generate();
  for (auto& job : logs.jobs) job.apid += k * 1000000;
  return logs;
}

struct Round {
  hc::titanlog::GeneratedLogs batch;
  std::vector<hc::titanlog::LogLine> lines;
  std::vector<std::vector<EventRecord>> slices;
};

std::int64_t slices_begin(std::int64_t k) {
  return kStreamBegin + k * kSlicesPerRound * kSliceSeconds;
}

Round make_round(std::uint64_t seed, std::int64_t k) {
  Round r;
  r.batch = batch_hour(seed, k);
  r.lines = hc::titanlog::render_all(r.batch);
  const std::int64_t begin = slices_begin(k);
  auto live = live_stream(seed, begin, begin + kSlicesPerRound * kSliceSeconds, 1.0);
  r.slices.resize(kSlicesPerRound);
  for (auto& e : live.events) {
    r.slices[static_cast<std::size_t>((e.ts - begin) / kSliceSeconds)]
        .push_back(std::move(e));
  }
  return r;
}

/// Rows of every partition of `table`, read through the coordinator.
std::uint64_t count_rows(Stack& stack, const std::string& table) {
  const auto keys = stack.cluster.all_partition_keys(table);
  std::uint64_t rows = 0;
  for (const auto& r :
       stack.cluster.parallel_read(stack.engine.pool(), table, keys)) {
    if (r.is_ok()) rows += r->rows.size();
  }
  return rows;
}

/// Traced-run probes of one round's inputs, each into fresh state so the
/// main cluster is untouched.
void probe_round(Stack& stack, Spans& spans, const Round& r) {
  std::vector<EventRecord> events;
  std::vector<JobRecord> jobs;
  {
    hc::titanlog::ParseStats stats;
    const double t0 = now_s();
    hc::titanlog::LogParser().parse_batch(r.lines, events, jobs, stats);
    spans.value("titanlog.parse_us_per_line",
                (now_s() - t0) * 1e6 / static_cast<double>(r.lines.size()));
  }
  {
    hc::cassalite::ClusterOptions o;
    o.node_count = 4;
    o.replication_factor = 3;
    o.storage.memtable_flush_bytes = kMemtableFlushBytes;
    hc::cassalite::Cluster fresh(o);
    HPCLA_CHECK(hc::model::create_data_model(fresh).is_ok());
    hc::model::BatchIngestor upload(fresh, stack.engine);
    const double t0 = now_s();
    (void)upload.ingest_records(events, jobs);
    spans.value("model.upload_us_per_event",
                (now_s() - t0) * 1e6 / static_cast<double>(events.size()));
    hc::model::IngestReport report;
    for (std::size_t i = 0; i < events.size() && i < 200; ++i) {
      EventRecord e = events[i];
      e.ts += 100 * kHour;  // a fresh partition, not an overwrite
      const double w0 = now_s();
      (void)upload.write_event(e, report);
      spans.value("model.write_event_us", (now_s() - w0) * 1e6);
    }
  }
  for (const auto& slice : r.slices) {
    hc::model::views::ViewCatalog views;
    const double t0 = now_s();
    for (const auto& e : slice) views.apply(e);
    spans.value("views.apply_us_per_event",
                (now_s() - t0) * 1e6 / static_cast<double>(slice.size()));
  }
}

/// Totals of the timed calls across rounds.
struct Timed {
  Samples freshness_us;
  double batch_s = 0;
  double stream_s = 0;
  std::uint64_t lines = 0;
  std::uint64_t messages = 0;
  std::uint64_t events_written = 0;
};

/// One round into a fresh stack: the hour's lines, then every slice. Each
/// round starts from an empty cluster, so memory stays bounded by one round
/// and every round does the same work.
void ingest_round(const Args& args, Spans& spans, const Round& r,
                  std::int64_t k, Timed& t, Outcome& out) {
  hc::cassalite::StorageOptions storage;
  storage.memtable_flush_bytes = kMemtableFlushBytes;
  Stack stack(args.workers, storage);
  hc::buslite::Consumer probe_consumer(stack.broker, "perfbench-probe", kTopic);
  Oracle oracle;

  hc::model::IngestReport report;
  {
    CountedCall counted(spans);
    Spans::Scope s(spans, "model.ingest_lines");
    const double t0 = now_s();
    report = stack.batch.ingest_lines(r.lines);
    t.batch_s += now_s() - t0;
  }
  t.lines += r.lines.size();
  out.attempted += r.lines.size();
  if (report.parse.events != r.batch.events.size() ||
      report.parse.jobs != r.batch.jobs.size() ||
      report.parse.unmatched != 0 || report.parse.malformed != 0) {
    out.wrong("hour " + std::to_string(k) + " parsed other counts than "
              "generated, or left unmatched/malformed lines");
  }
  if (report.write_failures != 0) out.wrong("batch write failures");
  t.events_written += report.event_rows;
  oracle.add_events(r.batch.events);
  oracle.add_jobs(r.batch.jobs);

  for (const auto& slice : r.slices) {
    SliceStep step = stream_slice(stack, spans, slice, out);
    t.stream_s += step.us / 1e6;
    t.freshness_us.add(step.us);
    t.messages += slice.size();
    out.attempted += slice.size();
    t.events_written += step.report.events_written;
    oracle.add_events(step.stored);
    probe_poll(probe_consumer, spans);
  }

  // The round's stored state against the oracle.
  const std::uint64_t by_time = count_rows(stack, "event_by_time");
  const std::uint64_t by_location = count_rows(stack, "event_by_location");
  if (by_time != oracle.stored_events() || by_location != by_time) {
    out.wrong("event_by_time holds " + std::to_string(by_time) +
              " and event_by_location " + std::to_string(by_location) +
              " events, expected " + std::to_string(oracle.stored_events()));
  }
  const std::int64_t hour_begin = kT0 + k * kHour;
  const std::int64_t stream_begin = slices_begin(k);
  for (const auto& [begin, end] :
       {std::pair{hour_begin, hour_begin + kHour},
        std::pair{stream_begin,
                  stream_begin + kSlicesPerRound * kSliceSeconds}}) {
    Json request = Json::object();
    request["op"] = "synopsis";
    request["window"]["begin"] = begin;
    request["window"]["end"] = end;
    const Json response = stack.server.handle(request);
    std::string problem = check_envelope(response, "simple");
    if (problem.empty()) {
      problem = check_synopsis(oracle, begin, end, response["result"]);
    }
    if (!problem.empty()) out.wrong("synopsis: " + problem);
  }
  if (spans.enabled()) {
    const auto& totals = stack.stream.totals();
    spans.add_counter("model.stream_batches",
                      static_cast<double>(totals.batches));
    spans.add_counter("model.stream_messages",
                      static_cast<double>(totals.messages_in));
    spans.add_counter("model.stream_events_written",
                      static_cast<double>(totals.events_written));
    probe_round(stack, spans, r);
  }
}

}  // namespace

void run_ingest(const Args& args, double process_start, Outcome& out) {
  Spans spans(args.trace);
  // The inputs of every round a run is expected to need are made in
  // set-up; a faster program gets further rounds made between rounds,
  // outside the timed calls.
  const auto prepared =
      static_cast<std::int64_t>(std::ceil(args.seconds * kRoundsPerSecond));
  const double g0 = now_s();
  std::vector<Round> rounds;
  for (std::int64_t k = 0; k < prepared; ++k) {
    rounds.push_back(make_round(args.seed, k));
  }
  const double generate_s = now_s() - g0;
  out.end_to_end["setup_s"] = {now_s() - process_start, "s"};

  Timed t;
  const double cpu0 = process_cpu_s();
  const double wall0 = now_s();
  std::int64_t k = 0;
  for (; t.batch_s + t.stream_s < args.seconds; ++k) {
    if (k >= static_cast<std::int64_t>(rounds.size())) {
      rounds.push_back(make_round(args.seed, k));
    }
    ingest_round(args, spans, rounds[static_cast<std::size_t>(k)], k, t, out);
    rounds[static_cast<std::size_t>(k)] = Round();  // release its inputs
  }
  const double wall_s = now_s() - wall0;
  const double cpu_s = process_cpu_s() - cpu0;

  const double timed_s = t.batch_s + t.stream_s;
  out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  rate_metric(out, "ops_per_s", static_cast<double>(t.lines + t.messages),
              timed_s);
  // Batch lines are the cheaper operation per item, streamed messages
  // the dearer one.
  rate_metric(out, "fast_ops_per_s", static_cast<double>(t.lines), t.batch_s);
  rate_metric(out, "slow_ops_per_s", static_cast<double>(t.messages),
              t.stream_s);
  // Slice freshness: publishing a slice's first message until its drain
  // returns.
  reference_figure(out, "latency_p50_us", t.freshness_us.median(),
                   t.freshness_us.size());
  reference_figure(out, "latency_p90_us", t.freshness_us.quantile(0.9),
                   t.freshness_us.size());
  reference_figure(out, "rounds", static_cast<double>(k),
                   static_cast<std::size_t>(k));
  if (spans.enabled()) {
    const double messages = spans.counter("model.stream_messages");
    const double written = spans.counter("model.stream_events_written");
    out.per_layer["titanlog.generate_s"].value = generate_s;
    out.per_layer["model.stream_batches"].value =
        spans.counter("model.stream_batches");
    out.per_layer["model.coalesce_ratio"].value =
        written > 0 ? messages / written : 0.0;
    out.per_layer["storage.writes_per_event"].value =
        spans.counter("cassalite.storage.writes") /
        static_cast<double>(t.events_written);
    finish_layers(out, spans, wall_s, cpu_s, 0);
    spans.write(args.out_dir + "/trace-ingest-" + std::to_string(args.seed) +
                ".json");
  }
}

}  // namespace perfbench
