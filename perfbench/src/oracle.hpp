// Ground truth for every check, computed from the generator's own
// EventRecord/JobRecords and never from the program's answers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "titanlog/record.hpp"
#include "topo/cname.hpp"

namespace perfbench {

using hpcla::Json;
using hpcla::titanlog::EventRecord;
using hpcla::titanlog::EventType;
using hpcla::titanlog::JobRecord;

/// A query context as the benchmark builds it: the same dimensions as the
/// server's context, kept as plain values so the oracle can filter by them.
struct Ctx {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::vector<EventType> types;  ///< empty = all
  std::optional<hpcla::topo::Coord> location;
  std::vector<std::string> users;  ///< empty = all
  std::vector<std::string> apps;   ///< empty = all

  [[nodiscard]] hpcla::Json to_json() const;
};

/// Grouping labels the oracle can compute on its own.
enum class Group { kType, kCabinet, kCage };

struct SynopsisCell {
  std::int64_t count = 0;
  std::int64_t first_ts = 0;
  std::int64_t last_ts = 0;
  friend bool operator==(const SynopsisCell&, const SynopsisCell&) = default;
};

using TypeNodeSecond = std::tuple<EventType, hpcla::topo::NodeId, std::int64_t>;

/// The stored form of streamed messages: one record per (type, node,
/// second) with the summed count and the smallest seq, as the streaming
/// path's same-second coalescing defines it.
std::vector<EventRecord> coalesce(const std::vector<EventRecord>& messages);

/// True when `node` lies inside `location` (any level).
bool node_inside(const hpcla::topo::Coord& location, hpcla::topo::NodeId node);

class Oracle {
 public:
  /// Adds records exactly as they are stored (batch events as generated,
  /// streamed events after coalesce()).
  void add_events(const std::vector<EventRecord>& stored);
  void add_jobs(const std::vector<JobRecord>& jobs);

  /// Stored events matching the context, ascending by ts. A context with
  /// users/apps keeps only events whose node ran a matching job at that
  /// second (job-attributed events).
  [[nodiscard]] std::vector<const EventRecord*> matches(const Ctx& ctx) const;

  [[nodiscard]] std::int64_t total(const Ctx& ctx) const;
  [[nodiscard]] std::unordered_map<hpcla::topo::NodeId, std::int64_t> node_counts(
      const Ctx& ctx) const;
  [[nodiscard]] std::map<std::int64_t, std::int64_t> hourly(
      const Ctx& ctx) const;
  [[nodiscard]] std::map<std::string, std::int64_t> by_label(
      const Ctx& ctx, Group group) const;
  [[nodiscard]] std::map<EventType, std::int64_t> by_type(const Ctx& ctx) const;
  /// Counts per bin of `bin` seconds from ctx.begin, restricted to `type`.
  [[nodiscard]] std::vector<double> series(const Ctx& ctx, EventType type,
                                           std::int64_t bin) const;
  /// Per-(hour, type) counts and first/last ts over the hours the window
  /// touches.
  [[nodiscard]] std::map<std::pair<std::int64_t, std::string>, SynopsisCell>
  synopsis(std::int64_t begin, std::int64_t end) const;
  /// Row timestamps of one event_by_time partition, ascending.
  [[nodiscard]] std::vector<std::int64_t> partition_ts(std::int64_t hour,
                                                       EventType type) const;
  /// Jobs overlapping the window that match users/apps/location.
  [[nodiscard]] std::set<std::int64_t> job_ids(const Ctx& ctx) const;
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> jobs_and_failed(
      const Ctx& ctx) const;

  [[nodiscard]] std::size_t stored_events() const { return events_.size(); }

 private:
  [[nodiscard]] bool attributed(const EventRecord& e, const Ctx& ctx) const;

  std::vector<EventRecord> events_;  ///< ascending by ts
  std::vector<JobRecord> jobs_;
  std::unordered_map<hpcla::topo::NodeId, std::vector<std::size_t>>
      jobs_by_node_;
};

}  // namespace perfbench
