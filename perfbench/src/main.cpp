// perfbench: runs one named workload of the full stack and prints one JSON
// line with its verdict and metrics (end-to-end metrics untraced,
// per-layer metrics with --trace 1).
//
//   perfbench --workload ingest|explore|dashboard --seed N --seconds S
//             --trace 0|1 [--workers W] [--out DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest|explore|dashboard --seed N --seconds S --trace 0|1 "
               "[--workers W] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else if (flag == "--workers") {
      a.workers = std::strtoull(v, &end, 10);
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0) || a.seconds > 600) usage("--seconds out of range");
  if (a.workers < 1 || a.workers > 8) usage("--workers out of range");
  return a;
}

Json metrics_json(const std::map<std::string, Metric>& metrics) {
  Json out = Json::object();
  for (const auto& [name, m] : metrics) {
    Json row = Json::object();
    row["value"] = m.value;
    row["unit"] = m.unit;
    out[name] = std::move(row);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = now_s();
  const Args args = parse_args(argc, argv);
  hpcla::set_log_level(hpcla::LogLevel::kWarn);
  std::filesystem::create_directories(args.out_dir);

  Outcome out;
  if (args.workload == "ingest") {
    run_ingest(args, process_start, out);
  } else if (args.workload == "explore") {
    run_explore(args, process_start, out);
  } else if (args.workload == "dashboard") {
    run_dashboard(args, process_start, out);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  for (const auto& e : out.errors) std::fprintf(stderr, "%s\n", e.c_str());
  Json result = Json::object();
  result["correct"] = out.correct;
  result["attempted"] = static_cast<std::int64_t>(out.attempted);
  result["failed"] = static_cast<std::int64_t>(out.failed);
  result["metrics"] = metrics_json(args.trace ? out.per_layer : out.end_to_end);

  // Reference figures (split metrics with their sample counts) go on their
  // own line and into the results file; the last line is the verdict.
  Json reference = Json::object();
  reference["reference"] = out.reference;
  reference["rate_parts"] = out.rate_parts;
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  {
    Json saved = result;
    saved["reference"] = out.reference;
    saved["rate_parts"] = out.rate_parts;
    saved["errors"] = Json::array();
    for (const auto& e : out.errors) saved["errors"].push_back(e);
    std::ofstream(stem + ".json") << saved.pretty() << "\n";
  }
  std::printf("%s\n%s\n", reference.dump().c_str(), result.dump().c_str());
  return 0;
}
