// Shared scaffolding of the perfbench workloads: run arguments, clocks,
// sample sets, the in-memory span recorder of traced runs, and the outcome
// every workload fills in (correctness verdict, operation counts, metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

using hpcla::Json;

/// 2017-03-14 00:00:00 UTC, the first hour of every scenario.
constexpr std::int64_t kT0 = 1489449600;
constexpr std::int64_t kHour = 3600;

/// Fixed sparklite worker count: one client thread plus these workers
/// stays within a 4-core box, and no figure depends on the machine's
/// core count. `--workers` overrides it for the worker-scaling reference.
constexpr std::size_t kDefaultWorkers = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t workers = kDefaultWorkers;
  std::string out_dir = ".bench_results";
};

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of timings or sizes with order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Per-process CPU seconds (user + system) from getrusage.
double process_cpu_s();
/// Peak resident set size of the process in MB.
double peak_rss_mb();

/// One recorded span: a timed call from the benchmark into one layer.
struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::string name;
  double start_us = 0;
  double end_us = 0;
  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Span recorder of traced runs. Spans stay in memory and are written out
/// once, after the run. When disabled, Scope costs one branch.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(now_s()) {}

  class Scope {
   public:
    Scope(Spans& spans, std::string name, std::int64_t parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int64_t id() const { return id_; }

   private:
    Spans& spans_;
    std::int64_t id_ = 0;
    std::int64_t saved_current_ = 0;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Durations (µs) of every span with this name.
  [[nodiscard]] Samples durations(const std::string& name) const;

  /// Records a count or size measured at a layer boundary (traced runs).
  void value(const std::string& name, double v) {
    if (enabled_) values_[name].add(v);
  }
  [[nodiscard]] Samples values(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? Samples() : it->second;
  }
  /// Adds registry counter movement observed around one call.
  void add_counter(const std::string& name, double delta) {
    counters_[name] += delta;
  }
  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  /// Writes {"spans":[{id,parent,name,start_us,end_us}...]} to `path`.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  double origin_;
  std::int64_t current_ = 0;
  std::vector<SpanRecord> records_;
  std::map<std::string, Samples> values_;
  std::map<std::string, double> counters_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run found and measured.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Figures printed for reference only (sample counts, split metrics).
  Json reference = Json::object();
  /// Operations and seconds behind each rate metric, so that the rates of
  /// several processes of one run can be summed into one.
  Json rate_parts = Json::object();
  std::vector<std::string> errors;

  /// Records a wrong answer: the run is no longer correct.
  void wrong(const std::string& what);
  /// Records an operation that failed (counted, run stays correct).
  void failed_op(const std::string& what);
};

/// Sets end-to-end metric `name` to ops / seconds (unit ops/s) and keeps
/// both parts in out.rate_parts.
void rate_metric(Outcome& out, const std::string& name, double ops,
                 double seconds);

/// Adds `name` as {"value": v, "samples": n} to the reference block.
void reference_figure(Outcome& out, const std::string& name, double value,
                      std::size_t samples);

/// The workloads. Each builds its stack, runs closed-loop for
/// `args.seconds` of timed work in whole rounds, checks every answer and
/// fills `out` (per-layer metrics too when args.trace is set).
void run_ingest(const Args& args, double process_start, Outcome& out);
void run_explore(const Args& args, double process_start, Outcome& out);
void run_dashboard(const Args& args, double process_start, Outcome& out);

}  // namespace perfbench
