// Self-test of the benchmark's checks: each checker must accept the
// program's real answer and reject a perturbed one (a count off by one, a
// row outside the window, a stale cached panel). Then a seconds-long smoke
// run of every workload goes through the same checks.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <functional>

#include "checks.hpp"
#include "common/logging.hpp"
#include "stack.hpp"

using namespace perfbench;
using hpcla::titanlog::EventType;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// The checker accepts `answer` and rejects `perturb(answer)`.
void accepts_then_rejects(const std::string& name, const Json& answer,
                          const std::function<std::string(const Json&)>& check,
                          const std::function<void(Json&)>& perturb) {
  const std::string accepted = check(answer);
  expect(accepted.empty(), name + " accepts the program's answer " + accepted);
  Json bad = answer;
  perturb(bad);
  expect(!check(bad).empty(), name + " rejects the perturbed answer");
}

Json ask(Stack& stack, const Json& request) {
  return stack.server.handle(request)["result"];
}

Json with_context(const char* op, const Ctx& c) {
  Json r = Json::object();
  r["op"] = op;
  r["context"] = c.to_json();
  return r;
}

void bump(Json& v) { v = Json(v.as_int() + 1); }

void checker_tests() {
  constexpr int kHours = 3;
  const auto logs =
      hpcla::titanlog::Generator(history_scenario(7, kHours)).generate();
  Stack stack(kDefaultWorkers);
  for (const auto& lines : lines_by_hour(logs, kT0, kHours)) {
    (void)stack.batch.ingest_lines(lines);
  }
  Oracle o;
  o.add_events(logs.events);
  o.add_jobs(logs.jobs);

  Ctx c;
  c.begin = kT0 + 1234;
  c.end = kT0 + 2 * kHour + 77;
  const Json heat = ask(stack, with_context("heatmap", c));
  accepts_then_rejects("heatmap total", heat,
                       [&](const Json& r) { return check_heatmap(o, c, r); },
                       [](Json& r) { bump(r["total"]); });
  accepts_then_rejects(
      "heatmap node", heat, [&](const Json& r) { return check_heatmap(o, c, r); },
      [](Json& r) { bump(r["nonzero_nodes"].as_array()[3]["count"]); });

  const Json hourly = ask(stack, with_context("hourly", c));
  accepts_then_rejects("hourly", hourly,
                       [&](const Json& r) { return check_hourly(o, c, r); },
                       [](Json& r) { bump(r.as_array()[1]["count"]); });

  Json dist_req = with_context("distribution", c);
  dist_req["group_by"] = "cabinet";
  accepts_then_rejects(
      "distribution", ask(stack, dist_req),
      [&](const Json& r) { return check_distribution(o, c, Group::kCabinet, r); },
      [](Json& r) { bump(r.as_array().back()["count"]); });

  Json ts_req = with_context("timeseries", c);
  ts_req["type"] = "MCE";
  ts_req["bin_seconds"] = 600;
  accepts_then_rejects(
      "timeseries", ask(stack, ts_req),
      [&](const Json& r) {
        return check_timeseries(o, c, EventType::kMachineCheck, 600, r);
      },
      [](Json& r) {
        Json& v = r["series"].as_array()[2];
        v = Json(v.as_double() + 1.0);
      });

  Ctx ec = c;
  ec.types = {EventType::kMemoryEcc};
  Json ev_req = with_context("events", ec);
  ev_req["limit"] = 40;
  const Json events = ask(stack, ev_req);
  const auto events_check = [&](const Json& r) {
    return check_events(o, ec, 40, r);
  };
  accepts_then_rejects("events row outside the window", events, events_check,
                       [&](Json& r) { r.as_array()[0]["ts"] = Json(ec.end); });
  accepts_then_rejects("events one row short", events, events_check,
                       [](Json& r) { r.as_array().pop_back(); });
  accepts_then_rejects("events oldest first", events, events_check, [](Json& r) {
    std::swap(r.as_array().front(), r.as_array().back());
  });

  Json cql = Json::object();
  cql["op"] = "cql";
  const std::int64_t hour = kT0 / kHour + 1;
  cql["query"] = "SELECT * FROM event_by_time WHERE hour = " +
                 std::to_string(hour) + " AND type = 'MCE' LIMIT 50";
  accepts_then_rejects(
      "cql partition", ask(stack, cql),
      [&](const Json& r) {
        return check_cql_partition(o, hour, EventType::kMachineCheck, 50, r);
      },
      [](Json& r) { bump(r["rows"].as_array()[5]["ts"]); });

  Json syn = Json::object();
  syn["op"] = "synopsis";
  syn["window"]["begin"] = c.begin;
  syn["window"]["end"] = c.end;
  accepts_then_rejects(
      "synopsis", ask(stack, syn),
      [&](const Json& r) { return check_synopsis(o, c.begin, c.end, r); },
      [](Json& r) { bump(r.as_array()[0]["count"]); });

  Ctx jc = c;
  jc.users = {"usr1"};
  accepts_then_rejects("jobs", ask(stack, with_context("jobs", jc)),
                       [&](const Json& r) { return check_jobs(o, jc, r); },
                       [](Json& r) { r.as_array().pop_back(); });

  accepts_then_rejects(
      "reliability", ask(stack, with_context("reliability", c)),
      [&](const Json& r) { return check_reliability(o, c, r); },
      [](Json& r) { bump(r["counts_by_type"]["MemEcc"]); });
  accepts_then_rejects("app_impact", ask(stack, with_context("app_impact", c)),
                       [&](const Json& r) { return check_app_impact(o, c, r); },
                       [](Json& r) { bump(r["jobs"]); });

  Ctx sc;
  sc.begin = kStormStart - 60;
  sc.end = kStormStart + kStormSeconds + 60;
  sc.types = {EventType::kLustreError};
  Json wc = with_context("word_count", sc);
  wc["top_k"] = 5;
  accepts_then_rejects(
      "word_count", ask(stack, wc),
      [](const Json& r) { return check_word_count(kStormToken, r); },
      [](Json& r) { std::swap(r.as_array()[0], r.as_array()[1]); });

  Ctx tc;
  tc.begin = kT0 + 601;
  tc.end = kT0 + 601 + kHour;
  Json te = with_context("transfer_entropy", tc);
  te["type_a"] = "HWERR";
  te["type_b"] = "LustreError";
  te["bin_seconds"] = 10;
  accepts_then_rejects("transfer_entropy", ask(stack, te), check_transfer_entropy,
                       [](Json& r) { r["te_xy"] = Json(0.0); });

  // A user/app context the program does not apply: the checker must flag
  // it, since the oracle attributes no event to a user that never ran.
  Ctx nobody = c;
  nobody.users = {"nobody-such-user"};
  expect(!check_heatmap(o, nobody, ask(stack, with_context("heatmap", nobody)))
              .empty(),
         "heatmap with users:[nobody-such-user] is flagged");

  // A stale cached panel: the hourly panel and heat map from before a
  // slice landed must fail the live-hour and engine-path checks after it.
  Ctx panel;
  panel.begin = kT0;
  panel.end = kT0 + kHours * kHour;
  const Json stale_hourly = ask(stack, with_context("hourly", panel));
  const Json stale_heat = ask(stack, with_context("heatmap", panel));
  const auto slice = live_stream(7, kT0 + 2 * kHour + 3000,
                                 kT0 + 2 * kHour + 3002, 1.0).events;
  for (const auto& e : slice) (void)stack.publisher.publish(e);
  (void)stack.stream.process_available();
  o.add_events(coalesce(slice));
  Ctx live;
  live.begin = kT0 + 2 * kHour;
  live.end = live.begin + kHour;
  const Json fresh_hourly = ask(stack, with_context("hourly", panel));
  expect(check_live_hour(fresh_hourly, live.begin / kHour, o.total(live)).empty(),
         "live-hour check accepts the refreshed panel");
  expect(!check_live_hour(stale_hourly, live.begin / kHour, o.total(live)).empty(),
         "live-hour check rejects the stale panel");
  hpcla::server::AnalyticsServer engine_only(stack.cluster, stack.engine);
  const Json engine_heat = engine_only.handle(with_context("heatmap", panel))["result"];
  expect(check_same(ask(stack, with_context("heatmap", panel)), engine_heat).empty(),
         "view-served heat map equals the engine path");
  expect(!check_same(stale_heat, engine_heat).empty(),
         "stale cached heat map differs from the engine path");
  Json burst = with_context("burst", panel);
  burst["group_by"] = "type";
  const Json engine_burst = engine_only.handle(burst)["result"];
  const Json served_burst = ask(stack, burst);
  accepts_then_rejects(
      "burst", served_burst,
      [&](const Json& r) { return check_burst(r, engine_burst); },
      [](Json& r) { bump(r.as_array()[0]["events"]); });
  accepts_then_rejects(
      "burst counts", served_burst,
      [&](const Json& r) { return check_burst_counts(o, panel, r); },
      [](Json& r) { bump(r.as_array()[0]["events"]); });
}

/// Expects `failed_per_round` of every `ops_per_round` operations of a run
/// to fail.
void smoke(const char* workload, std::uint64_t failed_per_round,
           std::uint64_t ops_per_round) {
  Args args;
  args.workload = workload;
  args.seed = 3;
  args.seconds = 2;
  args.out_dir = ".bench_results/selftest";
  Outcome out;
  const double start = now_s();
  if (args.workload == "ingest") run_ingest(args, start, out);
  if (args.workload == "explore") run_explore(args, start, out);
  if (args.workload == "dashboard") run_dashboard(args, start, out);
  for (const auto& e : out.errors) std::printf("     %s\n", e.c_str());
  expect(out.correct, std::string(workload) + " smoke run is correct");
  expect(out.attempted > 0 &&
             out.failed * ops_per_round == failed_per_round * out.attempted,
         std::string(workload) + " smoke run fails only the known-fault share");
}

}  // namespace

int main() {
  hpcla::set_log_level(hpcla::LogLevel::kWarn);
  checker_tests();
  smoke("ingest", 0, 1);
  smoke("explore", 2, 81);
  smoke("dashboard", 0, 1);
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
