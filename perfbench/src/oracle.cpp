#include "oracle.hpp"

#include <algorithm>

#include "titanlog/events.hpp"

namespace perfbench {

using hpcla::topo::Coord;
using hpcla::topo::NodeId;

namespace {

std::int64_t hour_of(std::int64_t ts) {
  return ts >= 0 ? ts / 3600 : -((-ts + 3599) / 3600);
}

bool wants_type(const Ctx& ctx, EventType t) {
  return ctx.types.empty() ||
         std::find(ctx.types.begin(), ctx.types.end(), t) != ctx.types.end();
}

bool listed(const std::vector<std::string>& wanted, const std::string& v) {
  return wanted.empty() ||
         std::find(wanted.begin(), wanted.end(), v) != wanted.end();
}

std::string group_label(NodeId node, Group group) {
  Coord c = hpcla::topo::coord_of(node);
  c.slot = c.node = -1;
  if (group == Group::kCabinet) c.cage = -1;
  return hpcla::topo::format_cname(c);
}

}  // namespace

hpcla::Json Ctx::to_json() const {
  Json j = Json::object();
  Json w = Json::object();
  w["begin"] = begin;
  w["end"] = end;
  j["window"] = std::move(w);
  if (!types.empty()) {
    Json arr = Json::array();
    for (auto t : types) {
      arr.push_back(std::string(hpcla::titanlog::event_id(t)));
    }
    j["types"] = std::move(arr);
  }
  if (location) j["location"] = hpcla::topo::format_cname(*location);
  const auto names = [](const std::vector<std::string>& v) {
    Json arr = Json::array();
    for (const auto& s : v) arr.push_back(s);
    return arr;
  };
  if (!users.empty()) j["users"] = names(users);
  if (!apps.empty()) j["apps"] = names(apps);
  return j;
}

bool node_inside(const Coord& location, NodeId node) {
  const Coord c = hpcla::topo::coord_of(node);
  return (location.row < 0 || location.row == c.row) &&
         (location.col < 0 || location.col == c.col) &&
         (location.cage < 0 || location.cage == c.cage) &&
         (location.slot < 0 || location.slot == c.slot) &&
         (location.node < 0 || location.node == c.node);
}

std::vector<EventRecord> coalesce(const std::vector<EventRecord>& messages) {
  std::map<TypeNodeSecond, EventRecord> merged;
  for (const auto& m : messages) {
    auto [it, inserted] =
        merged.try_emplace(TypeNodeSecond{m.type, m.node, m.ts}, m);
    if (!inserted) {
      it->second.count += m.count;
      it->second.seq = std::min(it->second.seq, m.seq);
    }
  }
  std::vector<EventRecord> out;
  out.reserve(merged.size());
  for (auto& [_, e] : merged) out.push_back(std::move(e));
  std::stable_sort(out.begin(), out.end(),
                   [](const EventRecord& a, const EventRecord& b) {
                     return a.ts < b.ts;
                   });
  return out;
}

void Oracle::add_events(const std::vector<EventRecord>& stored) {
  const std::size_t old = events_.size();
  events_.insert(events_.end(), stored.begin(), stored.end());
  const auto by_ts = [](const EventRecord& a, const EventRecord& b) {
    return a.ts < b.ts;
  };
  const auto mid = events_.begin() + static_cast<std::ptrdiff_t>(old);
  std::stable_sort(mid, events_.end(), by_ts);
  // Live slices arrive in time order; merge only when they interleave.
  if (old != 0 && mid != events_.end() && by_ts(*mid, *(mid - 1))) {
    std::inplace_merge(events_.begin(), mid, events_.end(), by_ts);
  }
}

void Oracle::add_jobs(const std::vector<JobRecord>& jobs) {
  for (const auto& job : jobs) {
    const std::size_t index = jobs_.size();
    jobs_.push_back(job);
    for (const NodeId n : job.nodes) jobs_by_node_[n].push_back(index);
  }
}

bool Oracle::attributed(const EventRecord& e, const Ctx& ctx) const {
  const auto it = jobs_by_node_.find(e.node);
  if (it == jobs_by_node_.end()) return false;
  for (const std::size_t index : it->second) {
    const JobRecord& job = jobs_[index];
    if (job.start <= e.ts && e.ts < job.end && listed(ctx.users, job.user) &&
        listed(ctx.apps, job.app_name)) {
      return true;
    }
  }
  return false;
}

std::vector<const EventRecord*> Oracle::matches(const Ctx& ctx) const {
  std::vector<const EventRecord*> out;
  const auto lo = std::lower_bound(
      events_.begin(), events_.end(), ctx.begin,
      [](const EventRecord& e, std::int64_t ts) { return e.ts < ts; });
  const bool by_job = !ctx.users.empty() || !ctx.apps.empty();
  for (auto it = lo; it != events_.end() && it->ts < ctx.end; ++it) {
    if (!wants_type(ctx, it->type)) continue;
    if (ctx.location && !node_inside(*ctx.location, it->node)) continue;
    if (by_job && !attributed(*it, ctx)) continue;
    out.push_back(&*it);
  }
  return out;
}

std::int64_t Oracle::total(const Ctx& ctx) const {
  std::int64_t n = 0;
  for (const auto* e : matches(ctx)) n += e->count;
  return n;
}

std::unordered_map<NodeId, std::int64_t> Oracle::node_counts(
    const Ctx& ctx) const {
  std::unordered_map<NodeId, std::int64_t> out;
  for (const auto* e : matches(ctx)) out[e->node] += e->count;
  return out;
}

std::map<std::int64_t, std::int64_t> Oracle::hourly(const Ctx& ctx) const {
  std::map<std::int64_t, std::int64_t> out;
  for (const auto* e : matches(ctx)) out[hour_of(e->ts)] += e->count;
  return out;
}

std::map<std::string, std::int64_t> Oracle::by_label(const Ctx& ctx,
                                                     Group group) const {
  std::map<std::string, std::int64_t> out;
  for (const auto* e : matches(ctx)) {
    const std::string label =
        group == Group::kType ? std::string(hpcla::titanlog::event_id(e->type))
                              : group_label(e->node, group);
    out[label] += e->count;
  }
  return out;
}

std::map<EventType, std::int64_t> Oracle::by_type(const Ctx& ctx) const {
  std::map<EventType, std::int64_t> out;
  for (const auto* e : matches(ctx)) out[e->type] += e->count;
  return out;
}

std::vector<double> Oracle::series(const Ctx& ctx, EventType type,
                                   std::int64_t bin) const {
  Ctx narrowed = ctx;
  narrowed.types = {type};
  std::vector<double> out(
      static_cast<std::size_t>((ctx.end - ctx.begin + bin - 1) / bin), 0.0);
  for (const auto* e : matches(narrowed)) {
    out[static_cast<std::size_t>((e->ts - ctx.begin) / bin)] +=
        static_cast<double>(e->count);
  }
  return out;
}

std::map<std::pair<std::int64_t, std::string>, SynopsisCell> Oracle::synopsis(
    std::int64_t begin, std::int64_t end) const {
  Ctx hours;
  hours.begin = hour_of(begin) * 3600;
  hours.end = (hour_of(end - 1) + 1) * 3600;
  std::map<std::pair<std::int64_t, std::string>, SynopsisCell> out;
  for (const auto* e : matches(hours)) {
    auto& cell = out[{hour_of(e->ts),
                      std::string(hpcla::titanlog::event_id(e->type))}];
    if (cell.count == 0) {
      cell.first_ts = cell.last_ts = e->ts;
    } else {
      cell.first_ts = std::min(cell.first_ts, e->ts);
      cell.last_ts = std::max(cell.last_ts, e->ts);
    }
    cell.count += e->count;
  }
  return out;
}

std::vector<std::int64_t> Oracle::partition_ts(std::int64_t hour,
                                               EventType type) const {
  Ctx ctx;
  ctx.begin = hour * 3600;
  ctx.end = ctx.begin + 3600;
  ctx.types = {type};
  std::vector<std::int64_t> out;
  for (const auto* e : matches(ctx)) out.push_back(e->ts);
  return out;
}

std::set<std::int64_t> Oracle::job_ids(const Ctx& ctx) const {
  std::set<std::int64_t> out;
  for (const auto& job : jobs_) {
    if (job.end <= ctx.begin || job.start >= ctx.end) continue;
    if (!listed(ctx.users, job.user) || !listed(ctx.apps, job.app_name)) {
      continue;
    }
    if (ctx.location &&
        std::none_of(job.nodes.begin(), job.nodes.end(), [&](NodeId n) {
          return node_inside(*ctx.location, n);
        })) {
      continue;
    }
    out.insert(job.apid);
  }
  return out;
}

std::pair<std::int64_t, std::int64_t> Oracle::jobs_and_failed(
    const Ctx& ctx) const {
  const auto ids = job_ids(ctx);
  std::int64_t failed = 0;
  for (const auto& job : jobs_) {
    if (ids.count(job.apid) != 0 && job.failed()) ++failed;
  }
  return {static_cast<std::int64_t>(ids.size()), failed};
}

}  // namespace perfbench
