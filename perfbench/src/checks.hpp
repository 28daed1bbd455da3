// Checkers: each compares one answer of the program with the oracle (or
// with a property the method must have) and returns an empty string when
// it holds, else what is wrong. The self-test feeds them perturbed answers.
#pragma once

#include <string>

#include "common/json.hpp"
#include "oracle.hpp"

namespace perfbench {

/// `response` must be {"status":"ok", "path": expected_path, "result":..}.
std::string check_envelope(const Json& response, const char* expected_path);

std::string check_heatmap(const Oracle& o, const Ctx& ctx, const Json& result);
std::string check_hourly(const Oracle& o, const Ctx& ctx, const Json& result);
std::string check_distribution(const Oracle& o, const Ctx& ctx, Group group,
                               const Json& result);
std::string check_timeseries(const Oracle& o, const Ctx& ctx, EventType type,
                             std::int64_t bin, const Json& result);
/// min(limit, matches) rows, newest first, all inside the context, with
/// the timestamps of the newest `limit` matches.
std::string check_events(const Oracle& o, const Ctx& ctx, std::int64_t limit,
                         const Json& result);
/// CQL partition read of event_by_time (hour, type) with LIMIT.
std::string check_cql_partition(const Oracle& o, std::int64_t hour,
                                EventType type, std::int64_t limit,
                                const Json& result);
std::string check_synopsis(const Oracle& o, std::int64_t begin,
                           std::int64_t end, const Json& result);
std::string check_jobs(const Oracle& o, const Ctx& ctx, const Json& result);
std::string check_reliability(const Oracle& o, const Ctx& ctx,
                              const Json& result);
std::string check_app_impact(const Oracle& o, const Ctx& ctx,
                             const Json& result);
/// The top term of a storm's word count names its OST, e.g. "ost0042".
std::string check_word_count(const std::string& ost_token, const Json& result);
std::string check_storm_signature(const Json& result);
std::string check_cross_correlation(std::int64_t max_lag, const Json& result);
/// Transfer entropy from the planted cause to its effect is positive.
std::string check_transfer_entropy(const Json& result);
/// Non-empty JSON array whose rows are objects (structure only).
std::string check_rows(const Json& result);
/// Byte-for-byte equality of a served panel with a reference answer.
std::string check_same(const Json& served, const Json& reference);
/// Burst by type: each label's event count equals the oracle's number of
/// stored records of that type, and its percentiles are ordered
/// p50 <= p95 <= p99.
std::string check_burst_counts(const Oracle& o, const Ctx& ctx,
                               const Json& result);
/// Burst panels: same labels and event counts as the reference (the
/// view path merges GK sketches, so percentile values may differ within
/// the sketch's rank-error bound).
std::string check_burst(const Json& served, const Json& reference);
/// The hourly panel's live-hour count equals `expected`.
std::string check_live_hour(const Json& hourly_result, std::int64_t hour,
                            std::int64_t expected);

}  // namespace perfbench
