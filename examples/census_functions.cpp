// Domain scenario: classifying census/credit-style records.
//
// The Quest generator models the demographic/financial records (salary,
// commission, age, education, car, zipcode, house value, ...) that motivate
// the SLIQ/SPRINT/ScalParC line of work. This example sweeps the ten-years-
// of-benchmarks labeling functions F1..F7, trains on noisy data, compares
// the unpruned and MDL-pruned trees on held-out records, and prints a
// per-function report.
//
//   ./examples/census_functions [--records N] [--ranks P] [--noise X]
#include <cstdio>

#include "core/predict.hpp"
#include "core/pruning.hpp"
#include "core/scalparc.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace scalparc;
  const util::CliArgs args(argc, argv);
  const std::uint64_t records =
      static_cast<std::uint64_t>(args.get_int("records", 5000));
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const double noise = args.get_double("noise", 0.05);

  std::printf("Census-style workload sweep: %llu records, %d ranks, %.0f%% label noise\n\n",
              static_cast<unsigned long long>(records), ranks, noise * 100.0);
  std::printf("  func   nodes  depth  nodes(pruned)  train-acc  test-acc  test-acc(pruned)\n");

  for (int f = 1; f <= 10; ++f) {
    data::GeneratorConfig config;
    config.seed = 100 + static_cast<std::uint64_t>(f);
    config.function = static_cast<data::LabelFunction>(f);
    config.label_noise = noise;
    config.num_attributes = 9;  // full attribute set: F5/F7-F10 need loan/hvalue
    const data::QuestGenerator generator(config);

    core::FitReport report =
        core::ScalParC::fit_generated(generator, records, ranks);

    const data::Dataset holdout = generator.generate(records + 1000000, 5000);
    const double train_acc =
        core::holdout_accuracy(report.tree, generator, 0, records);
    const core::ConfusionMatrix before =
        core::evaluate(core::CompiledTree::compile(report.tree), holdout);

    core::DecisionTree pruned = report.tree;
    core::mdl_prune(pruned);
    const core::ConfusionMatrix after =
        core::evaluate(core::CompiledTree::compile(pruned), holdout);

    std::printf("  F%-4d %6d %6d %14d %10.4f %9.4f %17.4f\n", f,
                report.tree.num_nodes(), report.tree.depth(),
                pruned.num_nodes(), train_acc, before.accuracy(),
                after.accuracy());
  }

  std::printf(
      "\nNote: with label noise, the unpruned tree memorizes noise (train-acc\n"
      "~1-noise) while MDL pruning removes noise-fitting subtrees, keeping\n"
      "held-out accuracy at least as good with a much smaller model.\n");
  return 0;
}
