// perfbench_trace — the benchmark's in-process, traced replay of the
// `scalparc train` -> `scalparc-serve` path, and its serve-quality oracle.
//
// `trace` calls the public functions the two tools call, in the order they
// call them, and times each call from here with its own parent/child spans
// that share one run id. The training fit runs with the program's existing
// phase tracer (util::TraceCollector) on; the fit's counters come from
// FitReport::run.metrics. The program itself is not changed or
// re-implemented: the only loop written here is the scoring fan-out, which
// mirrors scalparc-serve's per-rank batch loop without its bookkeeping so
// that it gives the kernel's ceiling.
//
// `fit` times one cold, untraced fit in a fresh process, as the tool runs
// it: the baseline for the tracer's overhead and, at p=1, for the speedup
// and the reference tree. `evaluate` gives the quality block a
// scalparc-serve report must match: core::evaluate on the compiled model,
// with every confusion cell scaled by the number of rounds served.
//
// usage (training flags: [--max-depth 14] [--split-mode exact|histogram]
// [--hist-bins 64], as passed to `scalparc train`):
//   perfbench_trace trace --data CSV --model-out TREE [--ranks 4]
//       [--batch 256] [--rounds 1] [--run-id ID] [--trace-out FILE]
//       [training flags]
//   perfbench_trace fit --data CSV [--ranks 4] [--tree-out TREE]
//       [--run-id ID] [training flags]
//   perfbench_trace evaluate --model TREE --data CSV [--rounds 1]
//
// Each prints one JSON object on stdout.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_tree.hpp"
#include "core/predict.hpp"
#include "core/scalparc.hpp"
#include "core/tree_io.hpp"
#include "data/csv.hpp"
#include "mp/collectives.hpp"
#include "mp/runtime.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace {

using namespace scalparc;
using util::Json;
using Clock = std::chrono::steady_clock;

// The harness's own spans: one record per timed call, parented by the span
// that was open when it began.
class SpanLog {
 public:
  struct Record {
    std::string name;
    int id = 0;
    int parent = -1;
    double begin_s = 0.0;
    double end_s = 0.0;
    double seconds() const { return end_s - begin_s; }
  };

  class Span {
   public:
    Span(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
    ~Span() { log_.close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  const std::vector<Record>& records() const { return records_; }

  // Seconds of [0, now()) covered by spans without a parent.
  double covered_seconds() const {
    double covered = 0.0;
    for (const Record& r : records_) {
      if (r.parent < 0) covered += r.seconds();
    }
    return covered;
  }

  Json to_json(const std::string& run_id) const {
    Json spans = Json::array();
    for (const Record& r : records_) {
      Json span = Json::object();
      span["run_id"] = run_id;
      span["id"] = r.id;
      span["parent"] = r.parent;
      span["name"] = r.name;
      span["begin_s"] = r.begin_s;
      span["end_s"] = r.end_s;
      spans.push_back(std::move(span));
    }
    return spans;
  }

 private:
  int open(std::string name) {
    Record r;
    r.name = std::move(name);
    r.id = static_cast<int>(records_.size());
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.begin_s = now();
    records_.push_back(std::move(r));
    stack_.push_back(records_.back().id);
    return records_.back().id;
  }
  void close(int id) {
    records_[static_cast<std::size_t>(id)].end_s = now();
    stack_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

using Span = SpanLog::Span;

// The controls and run options `scalparc train` builds from its flags, for
// the flags the benchmark passes; every other flag at its CLI default.
core::InductionControls train_controls(const util::CliArgs& args) {
  core::InductionControls controls;
  controls.options.max_depth = static_cast<int>(args.get_int("max-depth", 14));
  controls.options.min_split_records = 2;
  controls.options.fuse_collectives = true;
  const std::string mode = args.get_string("split-mode", "exact");
  if (mode == "histogram") {
    controls.options.split_mode = core::SplitMode::kHistogram;
  } else if (mode != "exact") {
    throw std::invalid_argument("--split-mode must be exact or histogram");
  }
  controls.options.hist_bins = static_cast<int>(args.get_int("hist-bins", 64));
  return controls;
}

mp::RunOptions train_run_options() {
  mp::RunOptions options;
  options.recv_timeout_s = mp::default_recv_timeout_s();
  options.reliability.enabled = true;
  options.reliability.max_retransmits = 8;
  options.reliability.backoff_ms = 25.0;
  return options;
}

Json quality_json(const core::ConfusionMatrix& matrix, std::int32_t classes) {
  Json doc = Json::object();
  doc["total"] = matrix.total();
  doc["accuracy"] = matrix.accuracy();
  Json rows = Json::array();
  for (std::int32_t cls = 0; cls < classes; ++cls) {
    Json row = Json::object();
    row["class"] = cls;
    row["precision"] = matrix.precision(cls);
    row["recall"] = matrix.recall(cls);
    row["f1"] = matrix.f1(cls);
    rows.push_back(std::move(row));
  }
  doc["classes"] = std::move(rows);
  return doc;
}

// core::evaluate's matrix as `rounds` passes over the workload report it.
core::ConfusionMatrix scaled(const core::ConfusionMatrix& matrix,
                             std::int32_t classes, std::int64_t rounds) {
  std::vector<std::int64_t> cells(matrix.cells().begin(), matrix.cells().end());
  for (std::int64_t& cell : cells) cell *= rounds;
  return core::ConfusionMatrix::from_cells(classes, cells);
}

// Per-phase figures from the program's spans: for each level, the phase's
// seconds on each rank; the phase time is the slowest rank summed over
// levels, the imbalance the slowest minus the mean, summed likewise.
struct PhaseFigures {
  double seconds = 0.0;
  double imbalance_s = 0.0;
};

std::map<std::string, PhaseFigures> phase_figures(const util::TraceDump& dump,
                                                  int ranks) {
  static const char* const kPhases[] = {"presort", "findsplit_i",
                                        "findsplit_ii", "performsplit_i",
                                        "performsplit_ii"};
  std::map<std::string, PhaseFigures> out;
  for (const char* phase : kPhases) {
    std::map<int, std::vector<double>> per_level;  // level -> seconds by rank
    for (const util::TraceSpan& span : dump.spans) {
      if (std::string(span.name) != phase || span.rank < 0 || span.rank >= ranks) {
        continue;
      }
      auto& lanes = per_level[span.level];
      lanes.resize(static_cast<std::size_t>(ranks), 0.0);
      lanes[static_cast<std::size_t>(span.rank)] += span.dur_s;
    }
    PhaseFigures& figures = out[phase];
    for (const auto& [level, lanes] : per_level) {
      double max = 0.0;
      double sum = 0.0;
      for (double s : lanes) {
        max = std::max(max, s);
        sum += s;
      }
      figures.seconds += max;
      figures.imbalance_s += max - sum / static_cast<double>(ranks);
    }
  }
  return out;
}

// Mean over ranks of the share of the rank's run wall inside the program's
// outermost spans.
double program_span_coverage(const util::TraceDump& dump, int ranks,
                             double run_wall_s) {
  if (run_wall_s <= 0.0) return 0.0;
  std::vector<double> covered(static_cast<std::size_t>(ranks), 0.0);
  for (const util::TraceSpan& span : dump.spans) {
    if (span.depth == 0 && span.rank >= 0 && span.rank < ranks) {
      covered[static_cast<std::size_t>(span.rank)] += span.dur_s;
    }
  }
  double sum = 0.0;
  for (double c : covered) sum += std::min(1.0, c / run_wall_s);
  return sum / static_cast<double>(ranks);
}

// The fit under `log`'s "core.fit" span; `seconds` times the call alone.
core::FitReport timed_fit(SpanLog& log, const data::Dataset& training,
                          int ranks, const util::CliArgs& args,
                          double& seconds) {
  Span s(log, "core.fit");
  const auto t0 = Clock::now();
  core::FitReport report =
      core::ScalParC::fit(training, ranks, train_controls(args),
                          mp::CostModel::zero(), train_run_options());
  seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return report;
}

int cmd_trace(const util::CliArgs& args) {
  SpanLog log;
  const std::string data_path = args.get_string("data", "");
  const std::string model_out = args.get_string("model-out", "");
  if (data_path.empty() || model_out.empty()) {
    std::fputs("trace: --data and --model-out are required\n", stderr);
    return 2;
  }
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const auto batch = static_cast<std::size_t>(args.get_int("batch", 256));
  const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 1));
  if (ranks < 1 || batch < 1 || rounds < 1) {
    std::fputs("trace: --ranks, --batch and --rounds must be >= 1\n", stderr);
    return 2;
  }
  const std::string run_id = args.get_string("run-id", "run");
  Json m = Json::object();
  // Seconds of the span that closed last; every timed call is a leaf span.
  const auto last = [&log] { return log.records().back().seconds(); };

  core::FitReport fit;
  util::TraceDump dump;
  double fit_s = 0.0;
  double train_calls_s = 0.0;
  double serve_calls_s = 0.0;
  Json quality;
  {
    Span pipeline(log, "pipeline");
    {
      // scalparc train: read_csv_file -> ScalParC::fit -> accuracy -> save.
      Span train(log, "tools.train");
      const double train_begin = log.now();
      data::Dataset training;
      {
        Span s(log, "data.read_csv");
        training = data::read_csv_file(data_path);
      }
      m["data.read_csv_s"] = last();
      if (!util::TraceCollector::instance().start()) {
        std::fputs("trace: the program was built without its tracer\n", stderr);
        return 2;
      }
      fit = timed_fit(log, training, ranks, args, fit_s);
      dump = util::TraceCollector::instance().stop();
      {
        Span s(log, "core.accuracy");
        (void)fit.tree.accuracy(training);
      }
      m["core.accuracy_s"] = last();
      {
        Span s(log, "core.save_tree");
        core::save_tree_file(fit.tree, model_out);
      }
      m["core.save_tree_s"] = last();
      train_calls_s = log.now() - train_begin;
    }
    {
      // scalparc-serve: load -> compile -> read_csv -> per-rank batch loop.
      Span serve(log, "tools.serve");
      const double serve_begin = log.now();
      core::DecisionTree tree;
      {
        Span s(log, "core.load_tree");
        tree = core::load_tree_file(model_out);
      }
      m["core.load_tree_s"] = last();
      core::CompiledTree model;
      {
        Span s(log, "core.compile");
        model = core::CompiledTree::compile(tree);
      }
      m["core.compile_s"] = last();
      data::Dataset workload;
      {
        Span s(log, "data.read_csv");
        workload = data::read_csv_file(data_path);
      }
      {
        Span s(log, "core.predict_kernel");
        const std::size_t records = workload.num_records();
        const mp::RunResult run = mp::run_ranks(
            ranks, mp::CostModel::zero(), [&](mp::Comm& comm) {
              const auto rank = static_cast<std::size_t>(comm.rank());
              const std::size_t lo = records * rank / static_cast<std::size_t>(ranks);
              const std::size_t hi =
                  records * (rank + 1) / static_cast<std::size_t>(ranks);
              std::vector<std::int32_t> out(batch);
              mp::barrier(comm);
              for (std::size_t round = 0; round < rounds; ++round) {
                for (std::size_t begin = lo; begin < hi; begin += batch) {
                  const std::size_t end = std::min(begin + batch, hi);
                  model.predict_batch(
                      workload, begin, end,
                      std::span<std::int32_t>(out.data(), end - begin));
                }
              }
            });
        m["core.predict_kernel_records_per_s"] =
            static_cast<double>(records * rounds) / run.wall_seconds;
      }
      serve_calls_s = log.now() - serve_begin;
      {
        // Not part of the tool's path: the quality the tool must report.
        Span s(log, "core.evaluate");
        const std::int32_t classes = tree.schema().num_classes();
        quality = quality_json(
            scaled(core::evaluate(model, workload), classes,
                   static_cast<std::int64_t>(rounds)),
            classes);
      }
    }
  }
  const double wall_s = log.now();

  const mp::MetricsSnapshot& counters = fit.run.metrics;
  const double runtime_wall_s = counters.value("runtime.wall_seconds");
  for (const auto& [phase, figures] : phase_figures(dump, ranks)) {
    m["core." + phase + "_s"] = figures.seconds;
    m["core." + phase + "_imbalance_s"] = figures.imbalance_s;
  }
  m["core.nodetable.enquiry_entries"] = counters.value("nodetable.enquiry_entries");
  m["core.nodetable.update_entries"] = counters.value("nodetable.update_entries");
  m["mp.bytes_sent"] = counters.value("comm.bytes_sent");
  m["mp.bytes_sent.alltoall"] = counters.value("comm.bytes_sent.alltoall");
  m["mp.bytes_sent.allreduce"] = counters.value("comm.bytes_sent.allreduce");
  double collective_calls = 0.0;
  for (const auto& [name, metric] : counters.metrics()) {
    if (name.rfind("comm.calls.", 0) == 0) collective_calls += metric.value;
  }
  m["mp.collective_calls"] = collective_calls;
  m["mp.messages_sent"] = counters.value("comm.messages_sent");
  m["mp.runtime_wall_s"] = runtime_wall_s;
  m["mp.retransmits"] =
      counters.value("transport.retransmits") + counters.value("transport.nacks");
  m["mp.peak_bytes_per_rank"] = counters.value("memory.peak_bytes_per_rank");
  m["core.fit_s"] = fit_s;
  m["core.fit_driver_s"] = fit_s - runtime_wall_s;
  m["trace.coverage"] = log.covered_seconds() / wall_s;
  m["trace.program_span_coverage"] =
      program_span_coverage(dump, ranks, runtime_wall_s);

  const std::string trace_out = args.get_string("trace-out", "");
  if (!trace_out.empty()) {
    Json metadata = Json::object();
    metadata["tool"] = "perfbench_trace";
    metadata["run_id"] = run_id;
    metadata["ranks"] = ranks;
    metadata["metrics"] = counters.to_json();
    std::ofstream file(trace_out);
    file << util::chrome_trace_json(dump, metadata).dump(1) << "\n";
    if (!file) {
      std::fprintf(stderr, "trace: cannot write %s\n", trace_out.c_str());
      return 2;
    }
  }

  Json doc = Json::object();
  doc["train_calls_s"] = train_calls_s;
  doc["serve_calls_s"] = serve_calls_s;
  doc["quality"] = std::move(quality);
  doc["metrics"] = std::move(m);
  doc["spans"] = log.to_json(run_id);
  std::printf("%s\n", doc.dump(-1).c_str());
  return 0;
}

// One cold fit with the tracer off, in a fresh process as the tool runs it:
// the baseline for the tracer's overhead (at p=P) and for the speedup and
// the reference tree (at p=1).
int cmd_fit(const util::CliArgs& args) {
  SpanLog log;
  const std::string data_path = args.get_string("data", "");
  if (data_path.empty()) {
    std::fputs("fit: --data is required\n", stderr);
    return 2;
  }
  const std::string tree_out = args.get_string("tree-out", "");
  double fit_s = 0.0;
  {
    Span run(log, "fit");
    data::Dataset training;
    {
      Span s(log, "data.read_csv");
      training = data::read_csv_file(data_path);
    }
    const core::FitReport fit = timed_fit(
        log, training, static_cast<int>(args.get_int("ranks", 4)), args, fit_s);
    if (!tree_out.empty()) {
      Span s(log, "core.save_tree");
      core::save_tree_file(fit.tree, tree_out);
    }
  }
  Json doc = Json::object();
  doc["fit_s"] = fit_s;
  doc["spans"] = log.to_json(args.get_string("run-id", "run"));
  std::printf("%s\n", doc.dump(-1).c_str());
  return 0;
}

int cmd_evaluate(const util::CliArgs& args) {
  const std::string model_path = args.get_string("model", "");
  const std::string data_path = args.get_string("data", "");
  if (model_path.empty() || data_path.empty()) {
    std::fputs("evaluate: --model and --data are required\n", stderr);
    return 2;
  }
  const std::int64_t rounds = args.get_int("rounds", 1);
  const core::CompiledTree model =
      core::CompiledTree::compile(core::load_tree_file(model_path));
  const data::Dataset workload = data::read_csv_file(data_path);
  const std::int32_t classes = model.schema().num_classes();
  const Json doc = quality_json(
      scaled(core::evaluate(model, workload), classes, rounds), classes);
  std::printf("%s\n", doc.dump(-1).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs("usage: perfbench_trace trace|fit|evaluate [flags]\n", stderr);
    return 2;
  }
  const std::string command = argv[1];
  const util::CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "trace") return cmd_trace(args);
    if (command == "fit") return cmd_fit(args);
    if (command == "evaluate") return cmd_evaluate(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_trace: unknown command '%s'\n", command.c_str());
  return 2;
}
