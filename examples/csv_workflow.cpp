// Bring-your-own-data workflow: train from a CSV file and evaluate on a
// second CSV (or a held-out slice), printing the confusion matrix and the
// learned tree.
//
// With no arguments the example writes a demo CSV first so it is runnable
// out of the box:
//   ./examples/csv_workflow
//   ./examples/csv_workflow train.csv test.csv [--ranks P] [--prune]
//                           [--save-model model.tree]
//
// CSV format (see src/data/csv.hpp): header "name:cont" / "name:cat:K"
// columns followed by a final "class:C" column.
#include <cstdio>
#include <string>

#include "core/predict.hpp"
#include "core/pruning.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace scalparc;
  const util::CliArgs args(argc, argv);
  const int ranks = static_cast<int>(args.get_int("ranks", 4));

  std::string train_path;
  std::string test_path;
  if (args.positional().size() >= 2) {
    train_path = args.positional()[0];
    test_path = args.positional()[1];
  } else {
    // Self-contained demo: materialize generator data as CSV files.
    std::printf("No input files given; writing demo CSVs to /tmp ...\n");
    data::GeneratorConfig config;
    config.seed = 2026;
    config.function = data::LabelFunction::kF2;
    config.label_noise = 0.02;
    const data::QuestGenerator generator(config);
    train_path = "/tmp/scalparc_demo_train.csv";
    test_path = "/tmp/scalparc_demo_test.csv";
    data::write_csv_file(generator.generate(0, 3000), train_path);
    data::write_csv_file(generator.generate(1000000, 1000), test_path);
  }

  std::printf("training on %s (%d simulated ranks)\n", train_path.c_str(), ranks);
  const data::Dataset training = data::read_csv_file(train_path);
  const data::Dataset testing = data::read_csv_file(test_path);

  core::FitReport report = core::ScalParC::fit(training, ranks);
  if (args.get_bool("prune", false)) {
    const core::PruneReport pruned = core::mdl_prune(report.tree);
    std::printf("MDL pruning: %d -> %d nodes\n", pruned.nodes_before,
                pruned.nodes_after);
  }

  const core::CompiledTree model = core::CompiledTree::compile(report.tree);
  const core::ConfusionMatrix train_cm = core::evaluate(model, training);
  const core::ConfusionMatrix test_cm = core::evaluate(model, testing);
  std::printf("tree: %d nodes, depth %d\n", report.tree.num_nodes(),
              report.tree.depth());
  std::printf("training accuracy: %.4f over %lld records\n", train_cm.accuracy(),
              static_cast<long long>(train_cm.total()));
  std::printf("test accuracy:     %.4f over %lld records\n", test_cm.accuracy(),
              static_cast<long long>(test_cm.total()));
  std::printf("\ntest confusion matrix:\n%s", test_cm.to_string().c_str());

  const std::string model_path = args.get_string("save-model", "");
  if (!model_path.empty()) {
    core::save_tree_file(report.tree, model_path);
    std::printf("model saved to %s (reload with core::load_tree_file or\n"
                "`scalparc predict --model %s --data ...`)\n",
                model_path.c_str(), model_path.c_str());
  }

  if (report.tree.num_nodes() <= 40) {
    std::printf("\n%s", report.tree.to_string().c_str());
  }
  return 0;
}
