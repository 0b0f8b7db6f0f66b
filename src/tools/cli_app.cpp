#include "tools/cli_app.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/predict.hpp"
#include "core/pruning.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "mp/fault.hpp"
#include "mp/telemetry.hpp"
#include "sprint/parallel_sprint.hpp"
#include "tools/observability.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace scalparc::tools {

namespace {

constexpr const char* kUsage = R"(scalparc — scalable parallel decision-tree classification

usage: scalparc <command> [flags]

commands:
  generate   synthesize Quest benchmark data as CSV
               --records N          number of records (default 10000)
               --function F1..F7    labeling function (default F2)
               --noise X            label-flip probability (default 0)
               --attributes K       leading attributes, 1..9 (default 7)
               --seed S             generator seed (default 1)
               --out FILE           output CSV (required)
  train      fit a decision tree from a CSV
               --data FILE          training CSV (required)
               --model FILE         where to save the tree (required)
               --ranks P            simulated processors (default 4)
               --criterion C        gini | entropy (default gini)
               --categorical M      multiway | subset (default multiway)
               --strategy S         scalparc | sprint (default scalparc)
               --max-depth D        depth cap (default 64)
               --min-split M        min records to split a node (default 2)
               --split-mode M       exact | histogram | voting: split
                                    determination engine (default exact).
                                    histogram merges fixed-width class
                                    histograms instead of exact lists —
                                    per-level bytes independent of N;
                                    voting additionally elects only the
                                    top-voted attributes for merging
               --hist-bins N        histogram/voting: bins per attribute,
                                    >= 2 (default 64)
               --top-k K            voting only: attributes each rank votes
                                    per node; top 2K are elected (default 2)
               --prune              apply MDL pruning after training
               --checkpoint-dir D   write a level checkpoint into D each level;
                                    failed runs auto-resume from the last one
               --resume             restore the latest checkpoint in
                                    --checkpoint-dir instead of starting fresh
               --fault-plan SPEC    inject deterministic faults, e.g.
                                    kill:r=2,level=3 | kill:r=1,op=50 |
                                    corrupt:r=0,op=10 | delay:r=1,op=5,ms=20 |
                                    drop:r=0,op=3 | duplicate:r=1,op=4
                                    (';'-separated list)
               --fault-schedule S   '|'-separated per-attempt fault plans:
                                    segment 0 faults the initial run, segment
                                    i the i-th recovery attempt (compound
                                    faults; empty segment = clean attempt);
                                    needs --checkpoint-dir, excludes
                                    --fault-plan
               --fault-seed S       seed for corruption bit choice (default 1)
               --recv-timeout SECS  per-receive timeout, <=0 disables
                                    (default 120, or
                                    SCALPARC_TEST_RECV_TIMEOUT_S)
               --recovery-policy P  restart | shrink | grow | rebalance: what
                                    a failed run does after a rank death —
                                    restart the full world, continue with the
                                    survivors, or admit fresh joiner ranks.
                                    rebalance handles *straggler* classifica-
                                    tions: same world, attribute lists
                                    re-tiled away from the slow rank, with
                                    escalation to a demotion if the same rank
                                    re-classifies (default restart; needs
                                    --checkpoint-dir)
               --detect-stragglers  classify a sustained slow-but-alive rank
                                    as a straggler (phi-accrual heartbeats +
                                    progress watermarks) instead of letting
                                    it drag the whole run
               --adaptive-timeouts  derive per-receive timeouts from each
                                    channel's observed arrival cadence
                                    (never exceeds --recv-timeout; escalates
                                    only when the peer's heartbeat lane is
                                    silent too)
               --phi-threshold X    suspicion level treated as dead for
                                    health purposes (default 8)
               --straggler-sustain-s S
                                    seconds the straggler evidence must hold
                                    before classifying (default 1.5)
               --slow-ratio R       minimum busy-time ratio vs the median
                                    peer to call a rank slow (default 3)
               --join-ranks K       grow only: joiners admitted per recovery,
                                    new world = survivors + K (default 1)
               --max-recoveries N   recovery budget: total failures the run
                                    may survive before failing fast as
                                    budget-exhausted; 0 = unlimited
               --max-heal-seconds S recovery budget: cumulative wall-clock
                                    seconds of failed attempts; 0 = unlimited
               --max-retransmits N  per-receive heal budget of the ack/
                                    retransmit transport; 0 disables healing
                                    (default 8)
               --backoff-ms MS      first retransmit-request delay; doubles
                                    per attempt, capped (default 25)
               --trace-out FILE     write a Chrome trace_event JSON of the
                                    run's per-rank phase spans (load it in
                                    Perfetto, or summarize it with
                                    scalparc-trace-report)
               --trace-sample N     record every Nth span per rank
                                    (default 1 = all)
               --metrics-out FILE   write the run's merged metrics registry
                                    as JSON (scalparc-metrics-v1)
               --telemetry-out FILE append live scalparc-timeseries-v1 JSONL
                                    epochs sampled from the running ranks
               --telemetry-interval-ms N
                                    telemetry sampling epoch (default 1000)
               --expose-out FILE    Prometheus text exposition, atomically
                                    rewritten every telemetry epoch
               --flight-out FILE    dump the flight-recorder event ring as
                                    scalparc-flight-v1 JSONL at exit
  predict    evaluate a saved model on a CSV
               --model FILE         saved tree (required)
               --data FILE          CSV with labels (required)
               --out FILE           optionally write per-row predictions
  inspect    describe a saved model
               --model FILE         saved tree (required)
               --render             print the full tree
  bench      scaling table on synthetic data (Cray T3D cost model)
               --records N          training size (default 50000)
               --procs a,b,c        processor counts (default 1,2,4,8,16)
               --function F1..F7    labeling function (default F2)
  help       print this message
)";

// Each command calls this once it has read every flag it accepts, before it
// does any work: an unread flag is a typo or a removed option, and ignoring
// it would run something other than what was asked for. Returns true (after
// naming the flags) when there is one.
bool reject_unread(const util::CliArgs& args, const char* command,
                   std::ostream& err) {
  const std::vector<std::string> unknown = args.unread();
  if (unknown.empty()) return false;
  err << command << ": unknown flag";
  for (const std::string& name : unknown) err << " --" << name;
  err << " (see scalparc help)\n";
  return true;
}

core::InductionControls controls_from(const util::CliArgs& args,
                                      std::ostream& err, bool& ok) {
  core::InductionControls controls;
  controls.options.max_depth = static_cast<int>(args.get_int("max-depth", 64));
  controls.options.min_split_records = args.get_int("min-split", 2);
  const std::string criterion = args.get_string("criterion", "gini");
  if (criterion == "gini") {
    controls.options.criterion = core::SplitCriterion::kGini;
  } else if (criterion == "entropy") {
    controls.options.criterion = core::SplitCriterion::kEntropy;
  } else {
    err << "unknown --criterion '" << criterion << "' (gini | entropy)\n";
    ok = false;
  }
  const std::string categorical = args.get_string("categorical", "multiway");
  if (categorical == "multiway") {
    controls.options.categorical_split = core::CategoricalSplit::kMultiWay;
  } else if (categorical == "subset") {
    controls.options.categorical_split = core::CategoricalSplit::kBinarySubset;
  } else {
    err << "unknown --categorical '" << categorical << "' (multiway | subset)\n";
    ok = false;
  }
  const std::string strategy = args.get_string("strategy", "scalparc");
  if (strategy == "scalparc") {
    controls.strategy = core::SplittingStrategy::kDistributedHash;
  } else if (strategy == "sprint") {
    controls.strategy = core::SplittingStrategy::kReplicatedHash;
  } else {
    err << "unknown --strategy '" << strategy << "' (scalparc | sprint)\n";
    ok = false;
  }
  const std::string split_mode = args.get_string("split-mode", "exact");
  if (split_mode == "exact") {
    controls.options.split_mode = core::SplitMode::kExact;
  } else if (split_mode == "histogram") {
    controls.options.split_mode = core::SplitMode::kHistogram;
  } else if (split_mode == "voting") {
    controls.options.split_mode = core::SplitMode::kVoting;
  } else {
    err << "unknown --split-mode '" << split_mode
        << "' (exact | histogram | voting)\n";
    ok = false;
  }
  const std::int64_t hist_bins = args.get_int("hist-bins", 64);
  if (args.has("hist-bins") &&
      controls.options.split_mode == core::SplitMode::kExact) {
    err << "--hist-bins only applies with --split-mode histogram or voting\n";
    ok = false;
  }
  if (hist_bins < 2) {
    err << "--hist-bins must be >= 2\n";
    ok = false;
  }
  controls.options.hist_bins = static_cast<int>(hist_bins);
  const std::int64_t top_k = args.get_int("top-k", 2);
  if (args.has("top-k") &&
      controls.options.split_mode != core::SplitMode::kVoting) {
    err << "--top-k only applies with --split-mode voting\n";
    ok = false;
  }
  if (top_k < 1) {
    err << "--top-k must be >= 1\n";
    ok = false;
  }
  controls.options.top_k = static_cast<int>(top_k);
  return controls;
}

int cmd_generate(const util::CliArgs& args, std::ostream& out,
                 std::ostream& err) {
  const std::string path = args.get_string("out", "");
  if (path.empty()) {
    err << "generate: --out FILE is required\n";
    return 2;
  }
  data::GeneratorConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.function = data::parse_label_function(args.get_string("function", "F2"));
  config.label_noise = args.get_double("noise", 0.0);
  config.num_attributes = static_cast<int>(args.get_int("attributes", 7));
  const auto records = static_cast<std::uint64_t>(args.get_int("records", 10000));
  if (reject_unread(args, "generate", err)) return 2;
  const data::QuestGenerator generator(config);
  data::write_csv_file(generator.generate(0, records), path);
  out << "wrote " << records << " records to " << path << "\n";
  return 0;
}

int cmd_train(const util::CliArgs& args, std::ostream& out, std::ostream& err) {
  const std::string data_path = args.get_string("data", "");
  const std::string model_path = args.get_string("model", "");
  if (data_path.empty() || model_path.empty()) {
    err << "train: --data FILE and --model FILE are required\n";
    return 2;
  }
  bool ok = true;
  core::InductionControls controls = controls_from(args, err, ok);
  if (!ok) return 2;
  const int ranks = static_cast<int>(args.get_int("ranks", 4));

  controls.checkpoint.directory = args.get_string("checkpoint-dir", "");
  controls.checkpoint.resume = args.get_bool("resume", false);
  if (controls.checkpoint.resume && controls.checkpoint.directory.empty()) {
    err << "train: --resume requires --checkpoint-dir\n";
    return 2;
  }
  core::RecoveryPolicy policy = core::RecoveryPolicy::kRestart;
  const std::string policy_name = args.get_string("recovery-policy", "restart");
  if (policy_name == "shrink") {
    policy = core::RecoveryPolicy::kShrink;
  } else if (policy_name == "grow") {
    policy = core::RecoveryPolicy::kGrow;
  } else if (policy_name == "rebalance") {
    policy = core::RecoveryPolicy::kRebalance;
  } else if (policy_name != "restart") {
    err << "unknown --recovery-policy '" << policy_name
        << "' (restart | shrink | grow | rebalance)\n";
    return 2;
  }
  if (policy != core::RecoveryPolicy::kRestart &&
      controls.checkpoint.directory.empty()) {
    err << "train: --recovery-policy " << policy_name
        << " requires --checkpoint-dir\n";
    return 2;
  }
  const std::int64_t join_ranks = args.get_int("join-ranks", 1);
  if (args.has("join-ranks") && policy != core::RecoveryPolicy::kGrow) {
    err << "train: --join-ranks only applies with --recovery-policy grow\n";
    return 2;
  }
  if (join_ranks < 1) {
    err << "train: --join-ranks must be >= 1\n";
    return 2;
  }
  const std::int64_t max_recoveries = args.get_int("max-recoveries", 0);
  if (max_recoveries < 0) {
    err << "train: --max-recoveries must be >= 0 (0 = unlimited)\n";
    return 2;
  }
  const double max_heal_seconds = args.get_double("max-heal-seconds", 0.0);
  if (max_heal_seconds < 0.0) {
    err << "train: --max-heal-seconds must be >= 0 (0 = unlimited)\n";
    return 2;
  }
  mp::RunOptions run_options;
  run_options.recv_timeout_s =
      args.get_double("recv-timeout", mp::default_recv_timeout_s());
  run_options.health.detect_stragglers =
      args.get_bool("detect-stragglers", false);
  run_options.health.adaptive_timeouts =
      args.get_bool("adaptive-timeouts", false);
  // Health tuning knobs are rejected at parse time: a malformed value must
  // name the flag and the value instead of silently falling back.
  if (!run_options.health.monitoring() &&
      (args.has("phi-threshold") || args.has("straggler-sustain-s") ||
       args.has("slow-ratio"))) {
    err << "train: --phi-threshold / --straggler-sustain-s / --slow-ratio "
           "only apply with --detect-stragglers or --adaptive-timeouts\n";
    return 2;
  }
  try {
    if (args.has("phi-threshold")) {
      run_options.health.phi_threshold = mp::parse_positive_health_value(
          "--phi-threshold", args.get_string("phi-threshold", ""));
    }
    if (args.has("straggler-sustain-s")) {
      run_options.health.sustain_s = mp::parse_positive_health_value(
          "--straggler-sustain-s", args.get_string("straggler-sustain-s", ""));
    }
    if (args.has("slow-ratio")) {
      run_options.health.slow_ratio = mp::parse_positive_health_value(
          "--slow-ratio", args.get_string("slow-ratio", ""));
    }
    run_options.health.validate();
  } catch (const std::exception& e) {
    err << "train: " << e.what() << "\n";
    return 2;
  }
  const std::int64_t max_retransmits = args.get_int("max-retransmits", 8);
  if (max_retransmits < 0) {
    err << "train: --max-retransmits must be >= 0\n";
    return 2;
  }
  run_options.reliability.max_retransmits =
      static_cast<int>(max_retransmits);
  run_options.reliability.enabled = max_retransmits > 0;
  const double backoff_ms = args.get_double("backoff-ms", 25.0);
  if (backoff_ms <= 0.0) {
    err << "train: --backoff-ms must be positive\n";
    return 2;
  }
  run_options.reliability.backoff_ms = backoff_ms;
  mp::FaultPlan plan;
  const std::string fault_spec = args.get_string("fault-plan", "");
  const std::string schedule_spec = args.get_string("fault-schedule", "");
  const auto fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
  if (!fault_spec.empty() && !schedule_spec.empty()) {
    err << "train: --fault-plan and --fault-schedule are mutually exclusive "
           "(a schedule's first segment is the initial run's plan)\n";
    return 2;
  }
  if (!fault_spec.empty()) {
    plan.parse(fault_spec);
    plan.set_seed(fault_seed);
    run_options.fault_plan = &plan;
  }
  mp::FaultSchedule schedule;
  if (!schedule_spec.empty()) {
    if (controls.checkpoint.directory.empty()) {
      err << "train: --fault-schedule targets recovery attempts and needs "
             "--checkpoint-dir\n";
      return 2;
    }
    schedule.parse(schedule_spec);
    schedule.set_seed(fault_seed);
  }

  const std::string trace_path = args.get_string("trace-out", "");
  const std::int64_t trace_sample = args.get_int("trace-sample", 1);
  if (trace_sample < 1) {
    err << "train: --trace-sample must be >= 1\n";
    return 2;
  }

  // Continuous telemetry (off by default; docs/observability.md). The rank
  // threads publish per-level snapshot copies; the exporter samples them on
  // the interval.
  ObservabilityFlags obs;
  if (const std::string bad = obs.parse(args, 1000); !bad.empty()) {
    err << "train: " << bad << "\n";
    return 2;
  }
  const bool prune = args.get_bool("prune", false);
  if (reject_unread(args, "train", err)) return 2;
  if (!trace_path.empty()) {
    util::TraceConfig trace_config;
    trace_config.sample_every = static_cast<int>(trace_sample);
    if (!util::TraceCollector::instance().start(trace_config)) {
      err << "train: --trace-out needs a build with -DSCALPARC_TRACE=ON\n";
      return 2;
    }
  }

  const std::unique_ptr<telemetry::TelemetryExporter> exporter =
      obs.start_exporter();

  const data::Dataset training = data::read_csv_file(data_path, ranks);
  core::FitReport report;
  if (controls.checkpoint.resume) {
    report = core::ScalParC::resume_from_checkpoint(
        training, ranks, controls, mp::CostModel::zero(), run_options);
    out << "resumed from checkpoint in " << controls.checkpoint.directory
        << "\n";
  } else if (!controls.checkpoint.directory.empty()) {
    core::RecoveryControls recovery;
    recovery.policy = policy;
    recovery.join_ranks = static_cast<int>(join_ranks);
    recovery.budget.max_recoveries = static_cast<int>(max_recoveries);
    recovery.budget.max_heal_seconds = max_heal_seconds;
    if (!schedule.empty()) recovery.fault_schedule = &schedule;
    core::RecoveryReport recovered = core::ScalParC::fit_with_recovery(
        training, ranks, controls, recovery, mp::CostModel::zero(),
        run_options);
    for (const core::RecoveryEvent& event : recovered.events) {
      std::string world_change;
      switch (event.policy) {
        case core::RecoveryPolicy::kShrink:
          world_change = "shrunk to " + std::to_string(event.ranks_after) +
                         " survivor rank(s)";
          break;
        case core::RecoveryPolicy::kGrow:
          world_change = "grew to " + std::to_string(event.ranks_after) +
                         " rank(s), " + std::to_string(event.joiners) +
                         " joiner(s) admitted";
          break;
        case core::RecoveryPolicy::kRestart:
          world_change =
              "restarted " + std::to_string(event.ranks_after) + " rank(s)";
          break;
        case core::RecoveryPolicy::kRebalance:
          if (event.demoted) {
            world_change = "demoted straggler rank " +
                           std::to_string(event.straggler_rank) +
                           ", shrunk to " +
                           std::to_string(event.ranks_after) + " rank(s)";
          } else {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "rebalanced away from slow rank %d (slowdown x%.1f)",
                          event.straggler_rank, event.straggler_slowdown);
            world_change = buf;
          }
          break;
      }
      out << "recovered from rank " << event.failed_rank << " failure ("
          << (event.resumed_level >= 0
                  ? "resumed at level " + std::to_string(event.resumed_level)
                  : std::string("restarted from scratch"))
          << ", " << world_change << "): " << event.message << "\n";
    }
    if (recovered.outcome != core::RecoveryOutcome::kCompleted) {
      err << "train: fit did not complete: classified as "
          << core::to_string(recovered.outcome) << " after "
          << recovered.attempts << " attempt(s)";
      if (recovered.last_error) {
        try {
          std::rethrow_exception(recovered.last_error);
        } catch (const std::exception& e) {
          err << ": " << e.what();
        }
      }
      err << "\n";
      if (exporter != nullptr) exporter->stop();
      telemetry::dump_armed_flight();
      return 1;
    }
    report = std::move(recovered.fit);
  } else {
    report = core::ScalParC::fit(training, ranks, controls,
                                 mp::CostModel::zero(), run_options);
  }
  // Final epoch captures the end-of-run registry state.
  if (exporter != nullptr) {
    exporter->stop();
    out << obs.summary(*exporter);
  }
  if (obs.dump_flight()) {
    out << "flight recorder written to " << obs.flight_path << "\n";
  }
  if (!trace_path.empty()) {
    const util::TraceDump dump = util::TraceCollector::instance().stop();
    util::Json metadata = util::Json::object();
    metadata["tool"] = util::Json("scalparc train");
    metadata["ranks"] = util::Json(static_cast<double>(ranks));
    metadata["sample_every"] = util::Json(static_cast<double>(dump.sample_every));
    metadata["dropped"] = util::Json(static_cast<double>(dump.dropped));
    metadata["complete"] = util::Json(dump.complete());
    metadata["metrics"] = report.run.metrics.to_json();
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      err << "train: cannot open '" << trace_path << "' for writing\n";
      return 2;
    }
    trace_file << util::chrome_trace_json(dump, metadata).dump(1) << "\n";
    out << "trace written to " << trace_path << " (" << dump.spans.size()
        << " span(s))\n";
  }
  if (!obs.metrics_path.empty()) {
    if (!obs.write_metrics(ranks, report.run.metrics)) {
      err << "train: cannot write '" << obs.metrics_path << "'\n";
      return 2;
    }
    out << "metrics written to " << obs.metrics_path << " ("
        << report.run.metrics.size() << " metric(s))\n";
  }
  out << "trained on " << training.num_records() << " records with " << ranks
      << " simulated ranks\n";
  if (report.run.transport.heal_events() > 0) {
    out << "transport healed in-band: " << report.run.transport.retransmits
        << " retransmit(s), " << report.run.transport.nacks << " nack(s), "
        << report.run.transport.duplicates << " duplicate(s) absorbed\n";
  }
  out << "tree: " << report.tree.num_nodes() << " nodes, "
      << report.tree.num_leaves() << " leaves, depth " << report.tree.depth()
      << "\n";
  if (prune) {
    const core::PruneReport pruned = core::mdl_prune(report.tree);
    out << "pruned: " << pruned.nodes_before << " -> " << pruned.nodes_after
        << " nodes\n";
  }
  out << "training accuracy: " << report.tree.accuracy(training) << "\n";
  core::save_tree_file(report.tree, model_path);
  out << "model saved to " << model_path << "\n";
  return 0;
}

int cmd_predict(const util::CliArgs& args, std::ostream& out,
                std::ostream& err) {
  const std::string model_path = args.get_string("model", "");
  const std::string data_path = args.get_string("data", "");
  if (model_path.empty() || data_path.empty()) {
    err << "predict: --model FILE and --data FILE are required\n";
    return 2;
  }
  const std::string out_path = args.get_string("out", "");
  if (reject_unread(args, "predict", err)) return 2;
  const core::DecisionTree tree = core::load_tree_file(model_path);
  const data::Dataset dataset = data::read_csv_file(data_path);
  if (!(dataset.schema() == tree.schema())) {
    err << "predict: data schema does not match the model's schema\n";
    return 2;
  }
  // Score through the compiled flat-tree engine (the serving path); the
  // recursive walk stays available as the differential oracle in tests.
  const core::CompiledTree compiled = core::CompiledTree::compile(tree);
  const std::vector<std::int32_t> predicted = compiled.predict_all(dataset);
  core::ConfusionMatrix matrix(tree.schema().num_classes());
  for (std::size_t row = 0; row < dataset.num_records(); ++row) {
    matrix.record(dataset.label(row), predicted[row]);
  }
  out << "evaluated " << matrix.total() << " records\n";
  out << "accuracy: " << matrix.accuracy() << "\n";
  out << "confusion matrix:\n" << matrix.to_string();
  out << "class  precision  recall  f1\n";
  for (std::int32_t cls = 0; cls < tree.schema().num_classes(); ++cls) {
    char line[96];
    std::snprintf(line, sizeof(line), "%5d  %9.4f  %6.4f  %6.4f\n", cls,
                  matrix.precision(cls), matrix.recall(cls), matrix.f1(cls));
    out << line;
  }
  if (!out_path.empty()) {
    std::ofstream predictions(out_path);
    if (!predictions) {
      err << "predict: cannot open '" << out_path << "' for writing\n";
      return 2;
    }
    predictions << "row,actual,predicted\n";
    for (std::size_t row = 0; row < dataset.num_records(); ++row) {
      predictions << row << ',' << dataset.label(row) << ','
                  << predicted[row] << '\n';
    }
    out << "predictions written to " << out_path << "\n";
  }
  return 0;
}

int cmd_inspect(const util::CliArgs& args, std::ostream& out,
                std::ostream& err) {
  const std::string model_path = args.get_string("model", "");
  if (model_path.empty()) {
    err << "inspect: --model FILE is required\n";
    return 2;
  }
  const bool render = args.get_bool("render", false);
  if (reject_unread(args, "inspect", err)) return 2;
  const core::DecisionTree tree = core::load_tree_file(model_path);
  const data::Schema& schema = tree.schema();
  out << "model: " << model_path << "\n";
  out << "classes: " << schema.num_classes() << "\n";
  out << "attributes: " << schema.num_attributes() << " ("
      << schema.num_continuous() << " continuous, " << schema.num_categorical()
      << " categorical)\n";
  out << "nodes: " << tree.num_nodes() << " (" << tree.num_leaves()
      << " leaves), depth " << tree.depth() << "\n";
  out << "training records seen: " << tree.node(tree.root()).num_records << "\n";
  if (render) {
    out << "\n" << tree.to_string();
  }
  return 0;
}

int cmd_bench(const util::CliArgs& args, std::ostream& out,
              std::ostream& err) {
  const auto records = static_cast<std::uint64_t>(args.get_int("records", 50000));
  const auto procs = args.get_int_list("procs", {1, 2, 4, 8, 16});
  data::GeneratorConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.function = data::parse_label_function(args.get_string("function", "F2"));
  if (reject_unread(args, "bench", err)) return 2;
  const data::QuestGenerator generator(config);
  out << "records: " << records << "\n";
  out << "procs\tmodeled-s\tspeedup\tMB-sent/rank\tMB-mem/rank\n";
  double t_first = 0.0;
  for (const std::int64_t p : procs) {
    const core::FitReport report = core::ScalParC::fit_generated(
        generator, records, static_cast<int>(p), core::InductionControls{},
        mp::CostModel::cray_t3d());
    if (p == procs.front()) t_first = report.run.modeled_seconds * static_cast<double>(p);
    char line[160];
    std::snprintf(line, sizeof(line), "%lld\t%.4f\t%.2f\t%.3f\t%.3f",
                  static_cast<long long>(p), report.run.modeled_seconds,
                  t_first / report.run.modeled_seconds,
                  static_cast<double>(report.run.max_bytes_sent_per_rank()) / 1e6,
                  static_cast<double>(report.run.max_peak_bytes_per_rank()) / 1e6);
    out << line << "\n";
  }
  return 0;
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  const util::CliArgs args(argc - 1, argv + 1);
  try {
    // Force the SCALPARC_LOG_FORMAT env parse up front: a garbage value must
    // fail the run loudly, not lie dormant until the first log line.
    util::log_format();
    if (command == "generate") return cmd_generate(args, out, err);
    if (command == "train") return cmd_train(args, out, err);
    if (command == "predict") return cmd_predict(args, out, err);
    if (command == "inspect") return cmd_inspect(args, out, err);
    if (command == "bench") return cmd_bench(args, out, err);
    if (command == "help" || command == "--help" || command == "-h") {
      out << kUsage;
      return 0;
    }
    err << "unknown command '" << command << "'\n\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    // Error exit: flush the flight-recorder ring for the postmortem.
    telemetry::dump_armed_flight();
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace scalparc::tools
