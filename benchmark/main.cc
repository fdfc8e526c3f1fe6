// rebert_e2e — the repository's end-to-end benchmark.
//
//   rebert_e2e --workload <recover-b18-clean|recover-b17-corrupt|serve-score>
//              --seed <n> --seconds <s> --trace <0|1>
//              --cli <path to rebert_cli> --run-dir <dir>
//
// Normally started through run.py, which builds it first. See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "util/string_utils.h"

#ifndef REBERT_E2E_BUILD_TYPE
#define REBERT_E2E_BUILD_TYPE "unknown"
#endif

namespace rebert::e2e {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  rows_.push_back({name, value, unit, true});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  rows_.push_back({name, value, unit, false});
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::printf("# CHECK FAILED: %s\n", what.c_str());
}

void Report::attempts(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

void Report::print() const {
  for (const auto& [key, value] : meta_)
    std::printf("# meta %-24s %s\n", key.c_str(), value.c_str());
  for (const Row& row : rows_)
    std::printf("# %s %-32s %.10g %s\n", row.result ? "metric" : "info  ",
                row.name.c_str(), row.value, row.unit.c_str());
  const double failed_ratio =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  std::printf("# info   %-32s %.6g %s\n", "failed_ratio", failed_ratio,
              "ratio");
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Row& row : rows_) {
    if (!row.result) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", row.value);
    if (!first) line += ", ";
    first = false;
    line += "\"" + json_escape(row.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(row.unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

core::ExperimentOptions cli_experiment_options() {
  // Mirrors experiment_options() in apps/rebert_cli.cc at its defaults, so
  // the in-process pipeline and a `rebert_cli serve` daemon build the same
  // model and tokenizer.
  core::ExperimentOptions options;
  options.pipeline.tokenizer.backtrace_depth = 6;
  options.pipeline.tokenizer.tree_code_dim = 16;
  options.pipeline.tokenizer.max_seq_len = 256;
  return options;
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

/// A "Key:   value" line of a /proc text file; "" when absent.
std::string proc_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return util::trim(line.substr(colon + 1));
    }
  }
  return "";
}

}  // namespace

double peak_rss_mb() {
  const std::string hwm = proc_field("/proc/self/status", "VmHWM");
  return hwm.empty() ? 0.0 : std::atof(hwm.c_str()) / 1024.0;
}

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: rebert_e2e --workload <recover-b18-clean|"
               "recover-b17-corrupt|serve-score> --seed <n> --seconds <s> "
               "--trace <0|1> --cli <rebert_cli> --run-dir <dir>\n");
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args->seconds = std::atof(value.c_str());
    else if (key == "--trace") args->trace = value == "1";
    else if (key == "--cli") args->cli = value;
    else if (key == "--run-dir") args->run_dir = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->run_dir.empty();
}

}  // namespace

}  // namespace rebert::e2e

int main(int argc, char** argv) {
  using namespace rebert::e2e;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }
  Report report;
  report.meta("workload", args.workload);
  report.meta("seed", std::to_string(args.seed));
  report.meta("seconds", rebert::util::format_double(args.seconds, 3));
  report.meta("trace", args.trace ? "1" : "0");
  report.meta("nproc", std::to_string(nproc()));
  report.meta("cpu", proc_field("/proc/cpuinfo", "model name"));
  report.meta("compiler", "gcc " __VERSION__);
  report.meta("build_type", REBERT_E2E_BUILD_TYPE);
  try {
    int status = 0;
    if (args.workload == "recover-b18-clean" ||
        args.workload == "recover-b17-corrupt") {
      status = run_recover_workload(args, report);
    } else if (args.workload == "serve-score") {
      status = run_serve_workload(args, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      usage();
      return 2;
    }
    if (status != 0) return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rebert_e2e: %s\n", e.what());
    return 1;
  }
  report.print();
  return 0;  // a failed check is reported as "correct": false
}
