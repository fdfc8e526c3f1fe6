#include "circuitgen/suite.h"

#include <algorithm>
#include <cmath>

#include "nl/decompose.h"
#include "nl/lint.h"
#include "util/check.h"
#include "util/fnv1a.h"

namespace rebert::gen {

namespace {

struct SuiteEntry {
  const char* name;
  int ffs;    // Table I "#FFs"
  int words;  // Table I "#Words" (estimated where the scan is unreadable)
};

// FF counts follow Table I exactly; word counts use Table I where legible
// (b03: 7, b11: 5, b17: 98) and plausible register-file-sized estimates
// elsewhere.
constexpr SuiteEntry kSuite[] = {
    {"b03", 30, 7},    {"b04", 66, 8},    {"b05", 34, 6},
    {"b07", 49, 7},    {"b08", 21, 5},    {"b11", 31, 5},
    {"b12", 121, 15},  {"b13", 53, 10},   {"b14", 449, 30},
    {"b15", 245, 24},  {"b17", 1415, 98}, {"b18", 3320, 160},
};

std::uint64_t name_seed(const std::string& name) {
  // Stable per-benchmark seed derived from the name.
  return util::fnv1a(name.data(), name.size());
}

}  // namespace

CircuitSpec make_spec(const std::string& name, int target_ffs,
                      int target_words, int glue_gates, std::uint64_t seed) {
  REBERT_CHECK_MSG(target_words >= 1, "need at least one word");
  REBERT_CHECK_MSG(target_ffs >= target_words,
                   "fewer flip-flops than words");
  CircuitSpec spec;
  spec.name = name;
  spec.glue_gates = glue_gates;
  spec.seed = seed;

  // Roughly one word in ten is a 1-bit status flag, as in control-heavy
  // designs; the rest are multi-bit datapath/state words.
  int num_flags = std::max(0, target_words / 10);
  // Flags only make sense if enough FF budget remains for the real words.
  while (num_flags > 0 && target_ffs - num_flags < (target_words - num_flags))
    --num_flags;
  const int num_words = target_words - num_flags;
  const int ff_budget = target_ffs - num_flags;

  const int base_width = ff_budget / num_words;
  int remainder = ff_budget % num_words;

  // First six types match the classic datapath mix (so the small Table I
  // circuits are dominated by them); the exotic sequential idioms appear
  // from the seventh word onward, i.e. only in the larger benchmarks.
  const BlockType kCycle[] = {
      BlockType::kEnableReg, BlockType::kCounter, BlockType::kAccumulator,
      BlockType::kShiftReg,  BlockType::kMuxReg,  BlockType::kFsm,
      BlockType::kLfsr,      BlockType::kGrayCounter,
      BlockType::kJohnsonCounter, BlockType::kOneHotFsm};
  constexpr int kCycleSize = static_cast<int>(std::size(kCycle));
  for (int w = 0; w < num_words; ++w) {
    BlockSpec block;
    block.type = kCycle[w % kCycleSize];
    block.width = base_width + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    spec.blocks.push_back(block);
  }
  for (int f = 0; f < num_flags; ++f) {
    BlockSpec block;
    block.type = (f % 2 == 0) ? BlockType::kCompareFlag
                              : BlockType::kParityFlag;
    block.width = 1;
    spec.blocks.push_back(block);
  }
  return spec;
}

GeneratedCircuit generate_circuit(const CircuitSpec& spec, bool lint) {
  nl::Netlist netlist(spec.name);
  nl::WordMap words;
  util::Rng rng(spec.seed);
  BlockBuilder builder(&netlist, &words, &rng);

  int counter = 0;
  for (const BlockSpec& block : spec.blocks) {
    const std::string prefix =
        std::string(block_type_name(block.type)) + std::to_string(counter++);
    builder.build(block, prefix);
  }
  builder.add_glue(spec.glue_gates);

  // Keep every register observable: mark each word's last bit as a primary
  // output (mirrors real designs where register contents reach the pins).
  for (const auto& [word_name, bit_names] : words.words()) {
    auto id = netlist.find(bit_names.back());
    REBERT_CHECK(id.has_value());
    netlist.mark_output(*id);
  }

  GeneratedCircuit out{nl::decompose_to_2input(netlist), std::move(words)};
  out.netlist.validate();
  if (lint) {
    nl::LintOptions lint_options;
    lint_options.words = &out.words;
    const nl::LintReport report = nl::lint_netlist(out.netlist, lint_options);
    REBERT_CHECK_MSG(report.clean(), "generated circuit '"
                                         << spec.name << "' failed lint:\n"
                                         << report.to_text());
  }
  return out;
}

std::vector<CircuitSpec> itc99_suite_specs(double scale) {
  REBERT_CHECK_MSG(scale > 0.0 && scale <= 1.0,
                   "scale must be in (0, 1], got " << scale);
  std::vector<CircuitSpec> specs;
  specs.reserve(std::size(kSuite));
  for (const SuiteEntry& entry : kSuite) {
    const int words =
        std::max(2, static_cast<int>(std::lround(entry.words * scale)));
    const int ffs = std::max(
        words, static_cast<int>(std::lround(entry.ffs * scale)));
    const int glue = std::max(8, ffs);
    specs.push_back(
        make_spec(entry.name, ffs, words, glue, name_seed(entry.name)));
  }
  return specs;
}

GeneratedCircuit generate_benchmark(const std::string& name, double scale,
                                    bool lint) {
  for (const CircuitSpec& spec : itc99_suite_specs(scale))
    if (spec.name == name) return generate_circuit(spec, lint);
  REBERT_CHECK_MSG(false, "unknown benchmark '" << name << "'");
}

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const SuiteEntry& entry : kSuite) out.emplace_back(entry.name);
    return out;
  }();
  return names;
}

}  // namespace rebert::gen
