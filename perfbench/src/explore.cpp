// `explore`: an analyst's ad-hoc session over stored history. Every
// request has its own seeded shape (windows off the hour grid, location
// filters, distinct parameters) so none repeats: the result cache and the
// hourly views are bypassed and the engine path does the work.
#include <random>
#include <set>

#include "checks.hpp"
#include "model/keys.hpp"
#include "stack.hpp"

namespace perfbench {

namespace {

using hc::titanlog::EventType;

constexpr int kHistoryHours = 6;
/// Complex requests between two blocks of simple ones.
constexpr std::size_t kComplexPerBlock = 2;

enum class Kind {
  kSynopsis, kEvents, kCql, kJobs,
  kHeatmap, kHourly, kDistribution, kTimeseries, kWordCount, kStormSignature,
  kCrossCorrelation, kTransferEntropy, kReliability, kAppImpact,
  kComposite, kAssociation, kAppProfiles, kPredict,
};

struct Request {
  Kind kind;
  std::string op;
  Ctx ctx;
  Group group = Group::kType;
  EventType type = EventType::kMachineCheck;
  std::int64_t number = 0;  ///< events limit, timeseries bin or CQL hour
  std::int64_t limit = 0;   ///< CQL LIMIT
  /// A user/app-context request the program answers unfiltered.
  bool known_fault = false;
  Json body = Json::object();
};

class RequestMaker {
 public:
  explicit RequestMaker(std::uint64_t seed) : rng_(0xE8F10E00u + seed) {}

  /// One round: the same request kinds in the same order every round,
  /// each with fresh seeded parameters; a draw that repeats an earlier
  /// request is drawn again, so no request is ever sent twice.
  std::vector<Request> round(std::int64_t r) {
    std::vector<Request> out;
    const auto add = [&](auto draw) {
      for (;;) {
        Request req = draw();
        if (seen_.insert(req.body.dump()).second) {
          out.push_back(std::move(req));
          return;
        }
      }
    };
    // A block of the six simple kinds before every kComplexPerBlock
    // complex requests, so simple reads make a steady share of the
    // session and see the caches the complex jobs leave.
    const auto simple_block = [&] {
      add([&] { return synopsis(); });
      add([&] { return events(ctx(3600, {EventType::kMemoryEcc}), 100); });
      add([&] { return events(ctx(7200, {}, cabinet()), 500); });
      add([&] {
        return events(ctx(5400, {EventType::kMachineCheck}, hotspot_cabinet()),
                      50);
      });
      add([&] { return cql(); });
      add([&] { return jobs(); });
    };
    std::size_t complex_added = 0;
    const auto add_complex = [&](auto draw) {
      if (complex_added++ % kComplexPerBlock == 0) simple_block();
      add(draw);
    };
    add_complex([&] { return base(Kind::kHeatmap, "heatmap", ctx(7200)); });
    add_complex([&] {
      return base(Kind::kHeatmap, "heatmap",
                  ctx(9000, {EventType::kMachineCheck}, hotspot_cabinet()));
    });
    add_complex([&] {
      return base(Kind::kHeatmap, "heatmap", ctx(10800, {}, cage()));
    });
    add_complex([&] {
      return base(Kind::kHeatmap, "heatmap",
                  ctx(3600, {EventType::kLustreError}));
    });
    add_complex([&] {
      return base(Kind::kHourly, "hourly",
                  ctx(14400, {EventType::kMemoryEcc, EventType::kLustreError}));
    });
    add_complex([&] {
      return distribution(ctx(5400), Group::kCabinet, "cabinet");
    });
    add_complex([&] {
      return distribution(ctx(10800, {}, cabinet()), Group::kType, "type");
    });
    add_complex([&] {
      return distribution(
          ctx(7200, {EventType::kNetworkError, EventType::kMachineCheck}),
          Group::kCage, "cage");
    });
    add_complex([&] { return timeseries(); });
    add_complex([&] { return storm(Kind::kWordCount, "word_count"); });
    add_complex([&] {
      return storm(Kind::kStormSignature, "storm_signature");
    });
    add_complex([&] {
      return causal(Kind::kCrossCorrelation, "cross_correlation");
    });
    add_complex([&] {
      return causal(Kind::kTransferEntropy, "transfer_entropy");
    });
    add_complex([&] {
      return base(Kind::kReliability, "reliability", ctx(7200));
    });
    add_complex([&] {
      return base(Kind::kAppImpact, "app_impact", ctx(7200));
    });
    add_complex([&] {
      return base(Kind::kComposite, "composite_events", ctx(7200));
    });
    add_complex([&] {
      return base(Kind::kAssociation, "association_rules", ctx(7200));
    });
    add_complex([&] {
      return base(Kind::kAppProfiles, "app_profiles", ctx(7200));
    });
    add_complex([&] {
      return base(Kind::kPredict, "predict_failures", ctx(10800));
    });
    // The user/app-context fault: shapes fixed by the round index alone,
    // never by the seed, so every run fails the same share.
    add([&] { return fault(r, Kind::kHeatmap, "heatmap", true); });
    add([&] { return fault(r, Kind::kHourly, "hourly", false); });
    return out;
  }

 private:
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng_);
  }

  /// A window of `len` seconds anywhere in the history, off the hour grid.
  Ctx ctx(std::int64_t len, std::vector<EventType> types = {},
          std::optional<hc::topo::Coord> location = std::nullopt) {
    Ctx c;
    c.begin = kT0 + uniform(1, kHistoryHours * kHour - len - 1);
    if (c.begin % kHour == 0) ++c.begin;
    c.end = c.begin + len;
    c.types = std::move(types);
    c.location = location;
    return c;
  }

  hc::topo::Coord cabinet() {
    return hc::topo::Coord{static_cast<int>(uniform(0, 24)),
                           static_cast<int>(uniform(0, 7)), -1, -1, -1};
  }
  hc::topo::Coord cage() {
    hc::topo::Coord c = cabinet();
    c.cage = static_cast<int>(uniform(0, 2));
    return c;
  }

  Request base(Kind kind, std::string op, Ctx c) {
    Request r;
    r.kind = kind;
    r.op = std::move(op);
    r.ctx = std::move(c);
    r.body["op"] = r.op;
    r.body["context"] = r.ctx.to_json();
    return r;
  }

  Request synopsis() {
    Request r;
    r.kind = Kind::kSynopsis;
    r.op = "synopsis";
    r.ctx = ctx(9000);
    r.body["op"] = r.op;
    Json w = Json::object();
    w["begin"] = r.ctx.begin;
    w["end"] = r.ctx.end;
    r.body["window"] = std::move(w);
    return r;
  }

  Request events(Ctx c, std::int64_t limit) {
    Request r = base(Kind::kEvents, "events", std::move(c));
    r.number = limit;
    r.body["limit"] = limit;
    return r;
  }

  Request cql() {
    static const EventType kTypes[] = {EventType::kMachineCheck,
                                       EventType::kMemoryEcc,
                                       EventType::kLustreError,
                                       EventType::kDvsError};
    Request r;
    r.kind = Kind::kCql;
    r.op = "cql";
    r.type = kTypes[uniform(0, 3)];
    r.number = kT0 / kHour + uniform(0, kHistoryHours - 1);
    const std::int64_t limit = uniform(20, 400);
    r.limit = limit;
    r.body["op"] = r.op;
    r.body["query"] = "SELECT * FROM event_by_time WHERE hour = " +
                      std::to_string(r.number) + " AND type = '" +
                      std::string(hc::titanlog::event_id(r.type)) +
                      "' LIMIT " + std::to_string(limit);
    return r;
  }

  Request jobs() {
    Ctx c = ctx(7200);
    c.users = {"usr" + std::to_string(uniform(1, 6))};
    return base(Kind::kJobs, "jobs", std::move(c));
  }

  Request distribution(Ctx c, Group group, const char* group_by) {
    Request r = base(Kind::kDistribution, "distribution", std::move(c));
    r.group = group;
    r.body["group_by"] = group_by;
    return r;
  }

  Request timeseries() {
    Request r = base(Kind::kTimeseries, "timeseries", ctx(7200));
    r.type = EventType::kMachineCheck;
    r.number = 60 * uniform(2, 10);
    r.body["type"] = "MCE";
    r.body["bin_seconds"] = r.number;
    return r;
  }

  /// A window holding the whole storm, with seeded margins.
  Request storm(Kind kind, const char* op) {
    Ctx c;
    c.begin = kStormStart - uniform(1, 900);
    c.end = kStormStart + kStormSeconds + uniform(1, 900);
    c.types = {EventType::kLustreError};
    Request r = base(kind, op, std::move(c));
    r.body["top_k"] = 10;
    return r;
  }

  /// The planted HWERR -> LustreError pair, in hours after the storm.
  Request causal(Kind kind, const char* op) {
    Ctx c;
    c.begin = kT0 + 3 * kHour + uniform(1, kHour);
    c.end = c.begin + 3600 + uniform(0, 1800);
    Request r = base(kind, op, std::move(c));
    r.body["type_a"] = "HWERR";
    r.body["type_b"] = "LustreError";
    r.body["bin_seconds"] = 10;
    if (kind == Kind::kCrossCorrelation) r.body["max_lag"] = 10;
    return r;
  }

  Request fault(std::int64_t round, Kind kind, const char* op, bool by_user) {
    Ctx c;
    c.begin = kT0 + 1801 + (round * 3931) % (kHistoryHours * kHour - 9000);
    c.end = c.begin + 3600 + (round % 13) * 60;
    if (by_user) {
      c.users = {"nobody-such-user"};
    } else {
      c.apps = {"no-such-app"};
    }
    Request r = base(kind, op, std::move(c));
    r.known_fault = true;
    return r;
  }

  std::mt19937_64 rng_;
  std::set<std::string> seen_;
};

/// Checks one answer; empty when it holds.
std::string check(const Oracle& o, const Request& r, const Json& response) {
  const bool simple = r.kind == Kind::kSynopsis || r.kind == Kind::kEvents ||
                      r.kind == Kind::kCql || r.kind == Kind::kJobs;
  if (auto e = check_envelope(response, simple ? "simple" : "complex");
      !e.empty()) {
    return e;
  }
  const Json& res = response["result"];
  switch (r.kind) {
    case Kind::kSynopsis: return check_synopsis(o, r.ctx.begin, r.ctx.end, res);
    case Kind::kEvents: return check_events(o, r.ctx, r.number, res);
    case Kind::kCql:
      return check_cql_partition(o, r.number, r.type, r.limit, res);
    case Kind::kJobs: return check_jobs(o, r.ctx, res);
    case Kind::kHeatmap: return check_heatmap(o, r.ctx, res);
    case Kind::kHourly: return check_hourly(o, r.ctx, res);
    case Kind::kDistribution: return check_distribution(o, r.ctx, r.group, res);
    case Kind::kTimeseries:
      return check_timeseries(o, r.ctx, r.type, r.number, res);
    case Kind::kWordCount: return check_word_count(kStormToken, res);
    case Kind::kStormSignature: return check_storm_signature(res);
    case Kind::kCrossCorrelation: return check_cross_correlation(10, res);
    case Kind::kTransferEntropy: return check_transfer_entropy(res);
    case Kind::kReliability: return check_reliability(o, r.ctx, res);
    case Kind::kAppImpact: return check_app_impact(o, r.ctx, res);
    case Kind::kComposite:
    case Kind::kAssociation:
    case Kind::kAppProfiles: return check_rows(res);
    case Kind::kPredict:
      return res["alarms"].is_int() ? std::string()
                                    : std::string("predict_failures: no alarms");
  }
  return "unchecked kind";
}

}  // namespace

void run_explore(const Args& args, double process_start, Outcome& out) {
  Spans spans(args.trace);
  const double g0 = now_s();
  const auto logs = hc::titanlog::Generator(
                        history_scenario(args.seed, kHistoryHours))
                        .generate();
  const auto hours = lines_by_hour(logs, kT0, kHistoryHours);
  const double generate_s = now_s() - g0;

  Stack stack(args.workers);
  std::uint64_t parsed_events = 0, parsed_jobs = 0;
  for (const auto& lines : hours) {
    const auto report = stack.batch.ingest_lines(lines);
    parsed_events += report.parse.events;
    parsed_jobs += report.parse.jobs;
    if (report.parse.unmatched + report.parse.malformed +
            report.write_failures != 0) {
      out.wrong("history load: unmatched, malformed or failed writes");
    }
  }
  if (parsed_events != logs.events.size() || parsed_jobs != logs.jobs.size()) {
    out.wrong("history load parsed other counts than generated");
  }
  Oracle oracle;
  oracle.add_events(logs.events);
  oracle.add_jobs(logs.jobs);
  RequestMaker maker(args.seed);
  out.end_to_end["setup_s"] = {now_s() - process_start, "s"};

  Samples all_us, simple_us, complex_us;
  RegistryDelta registry;
  registry.start();
  const double cpu0 = process_cpu_s();
  const double wall0 = now_s();
  double timed_s = 0, simple_s = 0, complex_s = 0;
  std::int64_t round = 0;
  while (timed_s < args.seconds) {
    for (Request& r : maker.round(round)) {
      const std::string text = r.body.dump();
      const Answer a = send(stack, spans, text);
      const Json response = a.json();
      timed_s += a.us / 1e6;
      ++out.attempted;
      all_us.add(a.us);
      const bool simple = response["path"].is_string() &&
                          response["path"].as_string() == "simple";
      (simple ? simple_us : complex_us).add(a.us);
      (simple ? simple_s : complex_s) += a.us / 1e6;
      const std::string problem = check(oracle, r, response);
      if (r.known_fault) {
        if (problem.empty()) {
          out.wrong(r.op + " with a user/app context was answered correctly; "
                    "the benchmark's fault share no longer matches");
        } else {
          out.failed_op(r.op + " ignores the context's users/apps: " + problem);
        }
      } else if (!problem.empty()) {
        out.wrong(r.op + ": " + problem + " request " + text);
      }
      if (spans.enabled() && !r.known_fault) {
        if (r.kind == Kind::kCql) {
          hc::cassalite::ReadQuery q;
          q.table = "event_by_time";
          q.partition_key = hc::model::event_time_key(r.number, r.type);
          Spans::Scope s(spans, "cassalite.select", a.span);
          (void)stack.cluster.select(q);
        } else if (r.kind != Kind::kSynopsis && r.kind != Kind::kEvents &&
                   r.kind != Kind::kJobs) {
          probe_context_layers(stack, spans, a.span, r.body, r.ctx);
        }
      }
    }
    ++round;
  }
  const double wall_s = now_s() - wall0;
  const double cpu_s = process_cpu_s() - cpu0;
  registry.stop();
  const double counted = registry.counter("server.queries.simple") +
                         registry.counter("server.queries.complex") +
                         registry.counter("server.queries.errors");
  if (counted != static_cast<double>(out.attempted)) {
    out.wrong("server counted " + std::to_string(counted) + " queries, sent " +
              std::to_string(out.attempted));
  }

  out.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  rate_metric(out, "ops_per_s", static_cast<double>(all_us.size()), timed_s);
  // The path each response reports: simple CQL reads and complex jobs.
  rate_metric(out, "fast_ops_per_s", static_cast<double>(simple_us.size()),
              simple_s);
  rate_metric(out, "slow_ops_per_s", static_cast<double>(complex_us.size()),
              complex_s);
  reference_figure(out, "latency_p50_us", all_us.median(), all_us.size());
  reference_figure(out, "latency_p90_us", all_us.quantile(0.9), all_us.size());
  reference_figure(out, "queries_per_s",
                   static_cast<double>(all_us.size()) / timed_s, all_us.size());
  reference_figure(out, "simple_p50_us", simple_us.median(), simple_us.size());
  reference_figure(out, "complex_p50_us", complex_us.median(),
                   complex_us.size());
  reference_figure(out, "complex_p90_us", complex_us.quantile(0.9),
                   complex_us.size());
  reference_figure(out, "rounds", static_cast<double>(round),
                   static_cast<std::size_t>(round));
  if (spans.enabled()) {
    out.per_layer["titanlog.generate_s"].value = generate_s;
    finish_layers(out, spans, wall_s, cpu_s, complex_us.size());
    spans.write(args.out_dir + "/trace-explore-" + std::to_string(args.seed) +
                ".json");
  }
}

}  // namespace perfbench
