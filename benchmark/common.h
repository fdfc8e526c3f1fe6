// Shared declarations of the end-to-end benchmark (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bert/model.h"
#include "rebert/pipeline.h"

namespace rebert::e2e {

/// The seed used when --seed is not given.
inline constexpr std::uint64_t kDefaultSeed = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;      // rebert_cli binary (serve-score spawns it)
  std::string run_dir;  // scratch directory for checkpoint, socket, trace
};

/// Metrics, checks and run metadata of one invocation. Everything but the
/// final JSON line is printed as '#'-prefixed human-readable lines.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A value shown in the table only (not part of the result line).
  void info(const std::string& name, double value, const std::string& unit);
  void meta(const std::string& key, const std::string& value);
  /// A failed output or property check: the result becomes incorrect.
  void check(bool ok, const std::string& what);
  void attempts(std::int64_t attempted, std::int64_t failed);

  bool correct() const { return correct_; }
  /// Prints the table, then the result JSON as the last line.
  void print() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    bool result;
  };
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::string>> meta_;
  bool correct_ = true;
  std::int64_t attempted_ = 0, failed_ = 0;
};

/// The pipeline and model settings rebert_cli uses for recover and serve.
core::ExperimentOptions cli_experiment_options();

int nproc();
double peak_rss_mb();  // this process's VmHWM

/// Saves the fixed-seed untrained model to `path`.
void save_fresh_checkpoint(const core::ExperimentOptions& options,
                           const std::string& path);

/// bert.* standalone layer timings and kernels.* timings at sequence
/// length `tokens` and the model's configuration.
void time_layers(const bert::BertConfig& config, int tokens, Report& report);

/// The serve and wire layers: a short serve-score session whose serve-path
/// timings and counts go to the table.
void trace_serve_layers(const Args& args, Report& report);

int run_recover_workload(const Args& args, Report& report);
int run_serve_workload(const Args& args, Report& report);

}  // namespace rebert::e2e
