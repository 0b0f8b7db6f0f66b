// End-to-end tests of the `scalparc` command-line tool through its testable
// library entry point: generate -> train -> inspect -> predict round trips,
// flag validation, and error handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/tree.hpp"
#include "core/tree_io.hpp"
#include "data/csv.hpp"
#include "tools/cli_app.hpp"

namespace scalparc {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> argv_strings) {
  argv_strings.insert(argv_strings.begin(), "scalparc");
  std::vector<const char*> argv;
  argv.reserve(argv_strings.size());
  for (const std::string& s : argv_strings) argv.push_back(s.c_str());
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = tools::run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class CliWorkflow : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }
  std::string track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(CliWorkflow, GenerateTrainInspectPredict) {
  const std::string csv = track(temp_path("cli_data.csv"));
  const std::string model = track(temp_path("cli_model.tree"));
  const std::string predictions = track(temp_path("cli_predictions.csv"));

  CliResult gen = run({"generate", "--records", "800", "--function", "F2",
                       "--out", csv});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("800 records"), std::string::npos);

  CliResult train = run({"train", "--data", csv, "--model", model,
                         "--ranks", "3"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("training accuracy: 1"), std::string::npos);
  EXPECT_NE(train.out.find("model saved"), std::string::npos);

  CliResult inspect = run({"inspect", "--model", model});
  ASSERT_EQ(inspect.code, 0) << inspect.err;
  EXPECT_NE(inspect.out.find("classes: 2"), std::string::npos);
  EXPECT_NE(inspect.out.find("attributes: 7"), std::string::npos);

  CliResult predict = run({"predict", "--model", model, "--data", csv,
                           "--out", predictions});
  ASSERT_EQ(predict.code, 0) << predict.err;
  EXPECT_NE(predict.out.find("accuracy: 1"), std::string::npos);

  // The predictions file has a header plus one row per record.
  std::ifstream in(predictions);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "row,actual,predicted");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 800);
}

TEST_F(CliWorkflow, TrainWithEntropySubsetSprintAndPrune) {
  const std::string csv = track(temp_path("cli_data2.csv"));
  const std::string model = track(temp_path("cli_model2.tree"));
  ASSERT_EQ(run({"generate", "--records", "500", "--noise", "0.1",
                 "--out", csv}).code, 0);
  CliResult train = run({"train", "--data", csv, "--model", model,
                         "--ranks", "2", "--criterion", "entropy",
                         "--categorical", "subset", "--strategy", "sprint",
                         "--max-depth", "8", "--prune"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("pruned:"), std::string::npos);
  EXPECT_EQ(run({"inspect", "--model", model, "--render"}).code, 0);
}

// train scores its "training accuracy:" line with the compiled batch kernel;
// the line must read what the recursive walk over the saved tree counts.
TEST_F(CliWorkflow, TrainingAccuracyLineMatchesRecursiveWalk) {
  const std::string csv = track(temp_path("cli_accuracy.csv"));
  const std::string model = track(temp_path("cli_accuracy.tree"));
  for (int f = 1; f <= 10; ++f) {
    const std::string function = std::string("F").append(std::to_string(f));
    SCOPED_TRACE(function);
    ASSERT_EQ(run({"generate", "--records", "1500", "--function", function,
                   "--noise", "0.1", "--out", csv}).code, 0);
    std::vector<std::string> train_args = {"train", "--data", csv, "--model",
                                           model, "--ranks", "3",
                                           "--max-depth", "8"};
    if (f % 3 == 0) train_args.push_back("--prune");
    const CliResult train = run(train_args);
    ASSERT_EQ(train.code, 0) << train.err;

    const core::DecisionTree tree = core::load_tree_file(model);
    const data::Dataset training = data::read_csv_file(csv);
    std::size_t correct = 0;
    for (std::size_t row = 0; row < training.num_records(); ++row) {
      correct += tree.predict(training, row) == training.label(row);
    }
    std::ostringstream want;
    want << "training accuracy: "
         << static_cast<double>(correct) /
                static_cast<double>(training.num_records())
         << "\n";
    EXPECT_NE(train.out.find(want.str()), std::string::npos) << train.out;
  }
}

TEST_F(CliWorkflow, BenchPrintsScalingTable) {
  CliResult bench = run({"bench", "--records", "5000", "--procs", "1,2,4"});
  ASSERT_EQ(bench.code, 0) << bench.err;
  EXPECT_NE(bench.out.find("procs"), std::string::npos);
  // Three data rows.
  int lines = 0;
  for (const char ch : bench.out) lines += ch == '\n';
  EXPECT_GE(lines, 5);
}

TEST(Cli, HelpAndUnknownCommand) {
  CliResult help = run({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);

  CliResult unknown = run({"frobnicate"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("unknown command"), std::string::npos);

  CliResult none = run({});
  EXPECT_EQ(none.code, 2);
}

TEST(Cli, MissingRequiredFlags) {
  EXPECT_EQ(run({"generate"}).code, 2);
  EXPECT_EQ(run({"train", "--data", "x.csv"}).code, 2);
  EXPECT_EQ(run({"predict", "--model", "m.tree"}).code, 2);
  EXPECT_EQ(run({"inspect"}).code, 2);
}

TEST(Cli, BadEnumValues) {
  CliResult result = run({"train", "--data", "x.csv", "--model", "m.tree",
                          "--criterion", "nonsense"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--criterion"), std::string::npos);
}

TEST(Cli, MissingInputFileIsReportedNotCrash) {
  CliResult result = run({"train", "--data", "/nonexistent/in.csv",
                          "--model", temp_path("never.tree")});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("error:"), std::string::npos);
}

TEST_F(CliWorkflow, ShrinkRecoveryPolicyContinuesWithSurvivors) {
  const std::string csv = track(temp_path("cli_shrink.csv"));
  const std::string model = track(temp_path("cli_shrink.tree"));
  const std::string clean_model = track(temp_path("cli_shrink_clean.tree"));
  const std::string ckpt = temp_path("cli_shrink_ckpt");
  ASSERT_EQ(run({"generate", "--records", "2000", "--out", csv}).code, 0);
  ASSERT_EQ(run({"train", "--data", csv, "--model", clean_model, "--ranks",
                 "4", "--max-depth", "4"}).code, 0);

  CliResult train = run({"train", "--data", csv, "--model", model, "--ranks",
                         "4", "--max-depth", "4", "--checkpoint-dir", ckpt,
                         "--fault-plan", "kill:r=2,level=1",
                         "--recovery-policy", "shrink"});
  EXPECT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("shrunk to 3 survivor rank(s)"),
            std::string::npos)
      << train.out;
  EXPECT_NE(train.out.find("model saved"), std::string::npos);

  // Byte-identical to the clean 4-rank model.
  std::ifstream a(model), b(clean_model);
  std::stringstream abuf, bbuf;
  abuf << a.rdbuf();
  bbuf << b.rdbuf();
  EXPECT_EQ(abuf.str(), bbuf.str());
  std::filesystem::remove_all(ckpt);
}

TEST_F(CliWorkflow, TransportHealingIsReportedByTrain) {
  const std::string csv = track(temp_path("cli_heal.csv"));
  const std::string model = track(temp_path("cli_heal.tree"));
  ASSERT_EQ(run({"generate", "--records", "1000", "--out", csv}).code, 0);
  CliResult train = run(
      {"train", "--data", csv, "--model", model, "--ranks", "2",
       "--max-depth", "3", "--backoff-ms", "4",
       "--fault-plan", "drop:r=0,op=2;drop:r=0,op=3;drop:r=0,op=4"});
  EXPECT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("transport healed in-band:"), std::string::npos)
      << train.out;
}

TEST(Cli, RecoveryAndReliabilityFlagValidation) {
  CliResult bad_policy = run({"train", "--data", "x.csv", "--model", "m",
                              "--recovery-policy", "bogus"});
  EXPECT_EQ(bad_policy.code, 2);
  EXPECT_NE(bad_policy.err.find("--recovery-policy"), std::string::npos);

  CliResult no_ckpt = run({"train", "--data", "x.csv", "--model", "m",
                           "--recovery-policy", "shrink"});
  EXPECT_EQ(no_ckpt.code, 2);
  EXPECT_NE(no_ckpt.err.find("requires --checkpoint-dir"), std::string::npos);

  CliResult bad_budget = run({"train", "--data", "x.csv", "--model", "m",
                              "--max-retransmits", "-1"});
  EXPECT_EQ(bad_budget.code, 2);
  EXPECT_NE(bad_budget.err.find("--max-retransmits"), std::string::npos);

  CliResult bad_backoff = run({"train", "--data", "x.csv", "--model", "m",
                               "--backoff-ms", "0"});
  EXPECT_EQ(bad_backoff.code, 2);
  EXPECT_NE(bad_backoff.err.find("--backoff-ms"), std::string::npos);

  // A fault plan with a duplicated action is rejected with the entry text.
  CliResult dup = run({"train", "--data", "x.csv", "--model", "m",
                       "--fault-plan", "drop:r=0,op=3;drop:r=0,op=3"});
  EXPECT_EQ(dup.code, 1);
  EXPECT_NE(dup.err.find("duplicates an earlier action"), std::string::npos);
}

TEST_F(CliWorkflow, PredictRejectsSchemaMismatch) {
  const std::string csv7 = track(temp_path("cli_7attr.csv"));
  const std::string csv9 = track(temp_path("cli_9attr.csv"));
  const std::string model = track(temp_path("cli_model3.tree"));
  ASSERT_EQ(run({"generate", "--records", "200", "--out", csv7}).code, 0);
  ASSERT_EQ(run({"generate", "--records", "200", "--attributes", "9",
                 "--out", csv9}).code, 0);
  ASSERT_EQ(run({"train", "--data", csv7, "--model", model}).code, 0);
  CliResult predict = run({"predict", "--model", model, "--data", csv9});
  EXPECT_EQ(predict.code, 2);
  EXPECT_NE(predict.err.find("schema"), std::string::npos);
}

TEST(Cli, SplitModeFlagValidation) {
  CliResult bad_mode = run({"train", "--data", "x.csv", "--model", "m",
                            "--split-mode", "bogus"});
  EXPECT_EQ(bad_mode.code, 2);
  EXPECT_NE(bad_mode.err.find("--split-mode"), std::string::npos);

  // --top-k only makes sense with voting; --hist-bins only off exact.
  CliResult stray_topk = run({"train", "--data", "x.csv", "--model", "m",
                              "--split-mode", "histogram", "--top-k", "3"});
  EXPECT_EQ(stray_topk.code, 2);
  EXPECT_NE(stray_topk.err.find("--top-k"), std::string::npos);

  CliResult stray_bins = run({"train", "--data", "x.csv", "--model", "m",
                              "--hist-bins", "32"});
  EXPECT_EQ(stray_bins.code, 2);
  EXPECT_NE(stray_bins.err.find("--hist-bins"), std::string::npos);

  CliResult few_bins = run({"train", "--data", "x.csv", "--model", "m",
                            "--split-mode", "histogram", "--hist-bins", "1"});
  EXPECT_EQ(few_bins.code, 2);
  EXPECT_NE(few_bins.err.find(">= 2"), std::string::npos);

  CliResult bad_topk = run({"train", "--data", "x.csv", "--model", "m",
                            "--split-mode", "voting", "--top-k", "0"});
  EXPECT_EQ(bad_topk.code, 2);
  EXPECT_NE(bad_topk.err.find("--top-k"), std::string::npos);
}

TEST_F(CliWorkflow, TrainsUnderHistogramAndVotingModes) {
  const std::string csv = track(temp_path("cli_hist.csv"));
  ASSERT_EQ(run({"generate", "--records", "1200", "--out", csv}).code, 0);
  for (const char* mode : {"histogram", "voting"}) {
    const std::string model =
        track(temp_path(std::string("cli_hist_") + mode + ".tree"));
    std::vector<std::string> argv = {
        "train",      "--data",      csv,  "--model",    model, "--ranks",
        "4",          "--max-depth", "6",  "--split-mode", mode,
        "--hist-bins", "32"};
    if (std::string(mode) == "voting") {
      argv.push_back("--top-k");
      argv.push_back("2");
    }
    CliResult train = run(argv);
    EXPECT_EQ(train.code, 0) << mode << ": " << train.err;
    EXPECT_NE(train.out.find("model saved"), std::string::npos) << mode;
    CliResult predict = run({"predict", "--model", model, "--data", csv});
    EXPECT_EQ(predict.code, 0) << mode << ": " << predict.err;
  }
}

TEST_F(CliWorkflow, TrainWritesEveryObservabilityOutput) {
  const std::string csv = track(temp_path("cli_obs.csv"));
  const std::string model = track(temp_path("cli_obs.tree"));
  const std::string telemetry = track(temp_path("cli_obs.telemetry.jsonl"));
  const std::string expose = track(temp_path("cli_obs.prom"));
  const std::string flight = track(temp_path("cli_obs.flight.jsonl"));
  const std::string metrics = track(temp_path("cli_obs.metrics.json"));
  ASSERT_EQ(run({"generate", "--records", "600", "--out", csv}).code, 0);

  CliResult bad = run({"train", "--data", csv, "--model", model,
                       "--telemetry-interval-ms", "0"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("--telemetry-interval-ms"), std::string::npos);

  CliResult train = run({"train", "--data", csv, "--model", model, "--ranks",
                         "2", "--telemetry-out", telemetry, "--expose-out",
                         expose, "--flight-out", flight, "--metrics-out",
                         metrics, "--telemetry-interval-ms", "5"});
  ASSERT_EQ(train.code, 0) << train.err;
  EXPECT_NE(train.out.find("telemetry: "), std::string::npos);
  EXPECT_NE(train.out.find(" ms -> " + telemetry + ", expose " + expose),
            std::string::npos);
  EXPECT_NE(train.out.find("flight recorder written to " + flight),
            std::string::npos);
  EXPECT_NE(train.out.find("metrics written to " + metrics),
            std::string::npos);
  for (const std::string& path : {telemetry, expose, flight, metrics}) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_GT(std::filesystem::file_size(path), 0u) << path;
  }
  std::ifstream in(metrics);
  std::stringstream doc;
  doc << in.rdbuf();
  EXPECT_NE(doc.str().find("scalparc-metrics-v1"), std::string::npos);
}

}  // namespace
}  // namespace scalparc
