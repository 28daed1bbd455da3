#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted(values_);
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double process_cpu_s() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Spans::Scope::Scope(Spans& spans, std::string name, std::int64_t parent)
    : spans_(spans) {
  if (!spans_.enabled_) return;
  SpanRecord r;
  r.id = static_cast<std::int64_t>(spans_.records_.size()) + 1;
  r.parent = parent >= 0 ? parent : spans_.current_;
  r.name = std::move(name);
  r.start_us = (now_s() - spans_.origin_) * 1e6;
  id_ = r.id;
  saved_current_ = spans_.current_;
  spans_.current_ = id_;
  spans_.records_.push_back(std::move(r));
}

Spans::Scope::~Scope() {
  if (!spans_.enabled_) return;
  spans_.records_[static_cast<std::size_t>(id_ - 1)].end_us =
      (now_s() - spans_.origin_) * 1e6;
  spans_.current_ = saved_current_;
}

Samples Spans::durations(const std::string& name) const {
  Samples out;
  for (const auto& r : records_) {
    if (r.name == name) out.add(r.duration_us());
  }
  return out;
}

bool Spans::write(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"spans\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    Json row = Json::object();
    row["id"] = r.id;
    row["parent"] = r.parent;
    row["name"] = r.name;
    row["start_us"] = r.start_us;
    row["end_us"] = r.end_us;
    f << (i ? ",\n" : "\n") << row.dump();
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void Outcome::wrong(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back("wrong: " + what);
}

void Outcome::failed_op(const std::string& what) {
  // The same fault repeats every round; its first instances suffice.
  if (++failed <= 2) errors.push_back("failed: " + what);
}

void rate_metric(Outcome& out, const std::string& name, double ops,
                 double seconds) {
  out.end_to_end[name] = {ops / seconds, "ops/s"};
  Json parts = Json::object();
  parts["ops"] = ops;
  parts["seconds"] = seconds;
  out.rate_parts[name] = std::move(parts);
}

void reference_figure(Outcome& out, const std::string& name, double value,
                      std::size_t samples) {
  Json row = Json::object();
  row["value"] = value;
  row["samples"] = static_cast<std::int64_t>(samples);
  out.reference[name] = std::move(row);
}

}  // namespace perfbench
