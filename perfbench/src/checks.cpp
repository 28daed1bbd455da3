#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "titanlog/events.hpp"

namespace perfbench {

namespace {

std::string str(std::int64_t v) { return std::to_string(v); }

/// Reads an integer member; -1 marks a missing or mistyped field so the
/// comparison that follows reports it.
std::int64_t int_of(const Json& j, const char* key) {
  const Json& v = j[key];
  return v.is_int() ? v.as_int() : -1;
}

std::string string_of(const Json& j, const char* key) {
  const Json& v = j[key];
  return v.is_string() ? v.as_string() : std::string();
}

template <typename Map>
std::string compare_maps(const char* what, const Map& expected,
                         const Map& got) {
  if (expected == got) return {};
  std::string msg = std::string(what) + ": " + str(static_cast<std::int64_t>(
                                                   got.size())) +
                    " entries, expected " +
                    str(static_cast<std::int64_t>(expected.size()));
  for (const auto& [k, v] : expected) {
    const auto it = got.find(k);
    if (it == got.end() || !(it->second == v)) {
      msg += "; first difference at an expected entry";
      break;
    }
  }
  return msg;
}

}  // namespace

std::string check_envelope(const Json& response, const char* expected_path) {
  if (string_of(response, "status") != "ok") {
    return "status " + string_of(response, "status") + ": " +
           string_of(response, "error");
  }
  if (string_of(response, "path") != expected_path) {
    return "path " + string_of(response, "path") + ", expected " +
           expected_path;
  }
  if (response["result"].is_null()) return "no result";
  return {};
}

std::string check_heatmap(const Oracle& o, const Ctx& ctx,
                          const Json& result) {
  const auto expected = o.node_counts(ctx);
  std::int64_t total = 0;
  for (const auto& [_, c] : expected) total += c;
  if (int_of(result, "total") != total) {
    return "heatmap total " + str(int_of(result, "total")) + ", expected " +
           str(total);
  }
  const Json& nodes = result["nonzero_nodes"];
  if (!nodes.is_array()) return "heatmap without nonzero_nodes";
  std::unordered_map<hpcla::topo::NodeId, std::int64_t> got;
  for (const auto& row : nodes.as_array()) {
    got[static_cast<hpcla::topo::NodeId>(int_of(row, "node"))] +=
        int_of(row, "count");
  }
  return compare_maps("heatmap nodes", expected, got);
}

std::string check_hourly(const Oracle& o, const Ctx& ctx, const Json& result) {
  if (!result.is_array()) return "hourly result is not an array";
  std::map<std::int64_t, std::int64_t> got;
  for (const auto& row : result.as_array()) {
    got[int_of(row, "hour")] += int_of(row, "count");
  }
  return compare_maps("hourly counts", o.hourly(ctx), got);
}

std::string check_distribution(const Oracle& o, const Ctx& ctx, Group group,
                               const Json& result) {
  if (!result.is_array()) return "distribution result is not an array";
  std::map<std::string, std::int64_t> got;
  std::int64_t previous = INT64_MAX;
  for (const auto& row : result.as_array()) {
    const std::int64_t count = int_of(row, "count");
    if (count > previous) return "distribution not descending by count";
    previous = count;
    got[string_of(row, "label")] += count;
  }
  return compare_maps("distribution", o.by_label(ctx, group), got);
}

std::string check_timeseries(const Oracle& o, const Ctx& ctx, EventType type,
                             std::int64_t bin, const Json& result) {
  if (int_of(result, "bin_seconds") != bin) return "timeseries bin differs";
  const Json& series = result["series"];
  if (!series.is_array()) return "timeseries without series";
  const auto expected = o.series(ctx, type, bin);
  if (series.as_array().size() != expected.size()) {
    return "timeseries has " + str(static_cast<std::int64_t>(
                                   series.as_array().size())) +
           " bins, expected " + str(static_cast<std::int64_t>(expected.size()));
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Json& v = series.as_array()[i];
    if (!v.is_number() || v.as_double() != expected[i]) {
      return "timeseries bin " + str(static_cast<std::int64_t>(i)) + " differs";
    }
  }
  return {};
}

std::string check_events(const Oracle& o, const Ctx& ctx, std::int64_t limit,
                         const Json& result) {
  if (!result.is_array()) return "events result is not an array";
  const auto matches = o.matches(ctx);
  const auto& rows = result.as_array();
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(limit), matches.size());
  if (rows.size() != want) {
    return "events returned " + str(static_cast<std::int64_t>(rows.size())) +
           " rows, expected " + str(static_cast<std::int64_t>(want));
  }
  std::vector<std::int64_t> expected_ts;
  for (std::size_t i = 0; i < want; ++i) {
    expected_ts.push_back(matches[matches.size() - 1 - i]->ts);
  }
  std::int64_t previous = INT64_MAX;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Json& row = rows[i];
    const std::int64_t ts = int_of(row, "ts");
    if (ts > previous) return "events not newest first";
    previous = ts;
    if (ts < ctx.begin || ts >= ctx.end) return "event row outside the window";
    const auto type = hpcla::titanlog::event_type_from_id(string_of(row, "type"));
    if (!type.is_ok() ||
        (!ctx.types.empty() && std::find(ctx.types.begin(), ctx.types.end(),
                                         type.value()) == ctx.types.end())) {
      return "event row of a type outside the context";
    }
    if (ctx.location &&
        !node_inside(*ctx.location,
                     static_cast<hpcla::topo::NodeId>(int_of(row, "node")))) {
      return "event row outside the location";
    }
    if (ts != expected_ts[i]) return "events are not the newest matches";
  }
  return {};
}

std::string check_cql_partition(const Oracle& o, std::int64_t hour,
                                EventType type, std::int64_t limit,
                                const Json& result) {
  const auto ts = o.partition_ts(hour, type);
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(limit), ts.size());
  const Json& rows = result["rows"];
  if (!rows.is_array()) return "cql result without rows";
  if (int_of(result, "count") != static_cast<std::int64_t>(want) ||
      rows.as_array().size() != want) {
    return "cql returned " + str(int_of(result, "count")) + " rows, expected " +
           str(static_cast<std::int64_t>(want));
  }
  for (std::size_t i = 0; i < want; ++i) {
    if (int_of(rows.as_array()[i], "ts") != ts[i]) {
      return "cql row " + str(static_cast<std::int64_t>(i)) +
             " has the wrong ts";
    }
  }
  return {};
}

std::string check_synopsis(const Oracle& o, std::int64_t begin,
                           std::int64_t end, const Json& result) {
  if (!result.is_array()) return "synopsis result is not an array";
  std::map<std::pair<std::int64_t, std::string>, SynopsisCell> got;
  for (const auto& row : result.as_array()) {
    got[{int_of(row, "hour"), string_of(row, "type")}] =
        SynopsisCell{int_of(row, "count"), int_of(row, "first_ts"),
                     int_of(row, "last_ts")};
  }
  return compare_maps("synopsis", o.synopsis(begin, end), got);
}

std::string check_jobs(const Oracle& o, const Ctx& ctx, const Json& result) {
  if (!result.is_array()) return "jobs result is not an array";
  std::set<std::int64_t> got;
  for (const auto& row : result.as_array()) got.insert(int_of(row, "apid"));
  if (got.size() != result.as_array().size()) return "jobs repeat an apid";
  const auto expected = o.job_ids(ctx);
  if (got != expected) {
    return "jobs returned " + str(static_cast<std::int64_t>(got.size())) +
           " apids, expected " + str(static_cast<std::int64_t>(expected.size()));
  }
  return {};
}

std::string check_reliability(const Oracle& o, const Ctx& ctx,
                              const Json& result) {
  const Json& counts = result["counts_by_type"];
  if (!counts.is_object()) return "reliability without counts_by_type";
  std::map<std::string, std::int64_t> got;
  for (const auto& [k, v] : counts.as_object()) {
    got[k] = v.is_int() ? v.as_int() : -1;
  }
  std::map<std::string, std::int64_t> expected;
  for (const auto& [t, c] : o.by_type(ctx)) {
    expected[std::string(hpcla::titanlog::event_id(t))] = c;
  }
  return compare_maps("reliability counts", expected, got);
}

std::string check_app_impact(const Oracle& o, const Ctx& ctx,
                             const Json& result) {
  const auto [jobs, failed] = o.jobs_and_failed(ctx);
  if (int_of(result, "jobs") != jobs || int_of(result, "failed_jobs") != failed) {
    return "app_impact " + str(int_of(result, "jobs")) + "/" +
           str(int_of(result, "failed_jobs")) + " jobs/failed, expected " +
           str(jobs) + "/" + str(failed);
  }
  return {};
}

std::string check_word_count(const std::string& ost_token,
                             const Json& result) {
  if (!result.is_array() || result.as_array().empty()) {
    return "word_count returned no terms";
  }
  const std::string top = string_of(result.as_array().front(), "term");
  if (top != ost_token) {
    return "word_count top term '" + top + "', expected '" + ost_token + "'";
  }
  return {};
}

std::string check_storm_signature(const Json& result) {
  if (!result.is_array() || result.as_array().empty()) {
    return "storm_signature returned no terms";
  }
  for (const auto& row : result.as_array()) {
    if (string_of(row, "term").empty() || !row["score"].is_number()) {
      return "storm_signature row without term/score";
    }
  }
  return {};
}

std::string check_cross_correlation(std::int64_t max_lag, const Json& result) {
  const Json& corr = result["correlation"];
  if (!corr.is_array() ||
      corr.as_array().size() != static_cast<std::size_t>(2 * max_lag + 1)) {
    return "cross_correlation has the wrong number of lags";
  }
  const std::int64_t peak = int_of(result, "peak_lag");
  if (peak < -max_lag || peak > max_lag) return "peak_lag outside max_lag";
  return {};
}

std::string check_transfer_entropy(const Json& result) {
  const Json& te = result["te_xy"];
  if (!te.is_number() || !(te.as_double() > 0.0)) {
    return "transfer entropy from cause to effect is not positive";
  }
  return {};
}

std::string check_rows(const Json& result) {
  if (!result.is_array()) return "result is not an array";
  for (const auto& row : result.as_array()) {
    if (!row.is_object()) return "result row is not an object";
  }
  return {};
}

std::string check_same(const Json& served, const Json& reference) {
  if (served.dump() != reference.dump()) {
    return "served panel differs from the engine-path answer";
  }
  return {};
}

std::string check_burst_counts(const Oracle& o, const Ctx& ctx,
                               const Json& result) {
  if (!result.is_array()) return "burst result is not an array";
  std::map<std::string, std::int64_t> got;
  for (const auto& row : result.as_array()) {
    const double p50 = row["p50"].as_double();
    const double p95 = row["p95"].as_double();
    const double p99 = row["p99"].as_double();
    if (!(p50 <= p95 && p95 <= p99)) {
      return "burst percentiles of " + string_of(row, "label") +
             " are out of order";
    }
    got[string_of(row, "label")] += int_of(row, "events");
  }
  // A burst is one stored record, whatever its count.
  std::map<std::string, std::int64_t> expected;
  for (const auto* e : o.matches(ctx)) {
    ++expected[std::string(hpcla::titanlog::event_id(e->type))];
  }
  return compare_maps("burst", expected, got);
}

std::string check_burst(const Json& served, const Json& reference) {
  if (!served.is_array() || !reference.is_array()) return "burst not an array";
  const auto& a = served.as_array();
  const auto& b = reference.as_array();
  if (a.size() != b.size()) return "burst panel has other labels";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (string_of(a[i], "label") != string_of(b[i], "label") ||
        int_of(a[i], "events") != int_of(b[i], "events")) {
      return "burst panel differs in labels or event counts";
    }
  }
  return {};
}

std::string check_live_hour(const Json& hourly_result, std::int64_t hour,
                            std::int64_t expected) {
  if (!hourly_result.is_array()) return "hourly panel is not an array";
  std::int64_t got = 0;
  for (const auto& row : hourly_result.as_array()) {
    if (int_of(row, "hour") == hour) got += int_of(row, "count");
  }
  if (got != expected) {
    return "live hour holds " + str(got) + " events, expected " + str(expected);
  }
  return {};
}

}  // namespace perfbench
