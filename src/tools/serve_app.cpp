// scalparc-serve — batched scoring service over the mp runtime.
//
// Loads a tree_io model snapshot (through the hardened loader — a hostile
// or damaged snapshot is rejected with the offending line), compiles it
// into the flat inference engine, and fans record batches across worker
// ranks: each rank streams its shard of the workload through
// CompiledTree::predict_batch, taking a shared_ptr snapshot of the served
// model per batch. With --swap-model, the service performs an atomic
// hot-swap to a second snapshot after --swap-after batches have been served
// globally: in-flight batches finish on the old model, the next batch on
// every rank picks up the new one, and the old compiled tree is freed when
// its last in-flight batch completes.
//
// Reports records/sec (total and per rank), per-batch tail latency
// (p50/p95/p99/max), and — when labels are present — a per-class
// precision/recall/F1 quality table. Telemetry lands in the predict.*
// family of the metrics registry (docs/observability.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_tree.hpp"
#include "core/predict.hpp"
#include "core/tree_io.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"
#include "mp/collectives.hpp"
#include "mp/metrics.hpp"
#include "mp/runtime.hpp"
#include "mp/telemetry.hpp"
#include "tools/observability.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace {

using scalparc::util::Json;

constexpr const char* kUsage =
    R"(scalparc-serve — batched scoring service with hot-swap

usage: scalparc-serve --model FILE [flags]

  --model FILE      tree_io snapshot to serve (required)
  --data FILE       CSV workload to score (labels drive the quality report)
  --records N       synthetic workload size when --data is absent
                    (default 200000)
  --function F1..F7 synthetic labeling function (default F2)
  --seed S          synthetic workload seed (default 1)
  --ranks P         worker ranks scoring in parallel (default 4)
  --batch B         records per scoring batch (default 1024)
  --rounds R        passes over the workload, for sustained load (default 1)
  --swap-model FILE snapshot to hot-swap in mid-run (same schema)
  --swap-after N    global batches served before the swap
                    (default: half the total)
  --quality         print the per-class precision/recall/F1 table
  --report FILE     write a scalparc-serve-v1 JSON report
  --metrics-out FILE  write the merged metrics registry as JSON

continuous telemetry (all off by default; docs/observability.md):
  --telemetry-out FILE        append scalparc-timeseries-v1 JSONL epochs
  --telemetry-interval-ms N   sampling epoch length (default 250)
  --expose-out FILE           Prometheus text exposition, atomically
                              rewritten each epoch
  --flight-out FILE           flight-recorder ring dumped as
                              scalparc-flight-v1 JSONL at exit (and on
                              SIGINT/SIGTERM or error exit)
  --slo-p99-us X              rolling-window p99 latency target; maintains
                              the slo.* metrics family
)";

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalparc;
  const util::CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    // Force the SCALPARC_LOG_FORMAT env parse up front: a garbage value must
    // fail the run loudly, not lie dormant until the first log line.
    util::log_format();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scalparc-serve: %s\n", e.what());
    return 2;
  }

  const std::string model_path = args.get_string("model", "");
  if (model_path.empty()) {
    std::fputs("scalparc-serve: --model FILE is required\n\n", stderr);
    std::fputs(kUsage, stderr);
    return 2;
  }
  const int ranks = static_cast<int>(args.get_int("ranks", 4));
  const auto batch = static_cast<std::size_t>(args.get_int("batch", 1024));
  const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 1));
  if (ranks < 1 || batch < 1 || rounds < 1) {
    std::fputs("scalparc-serve: --ranks, --batch and --rounds must be >= 1\n",
               stderr);
    return 2;
  }

  // ---- continuous telemetry knobs ----------------------------------------
  const double slo_p99_us = args.get_double("slo-p99-us", 0.0);
  if (args.has("slo-p99-us") && slo_p99_us <= 0.0) {
    std::fputs("scalparc-serve: --slo-p99-us must be > 0\n", stderr);
    return 2;
  }
  // Parsing arms the flight recorder before anything can fail, so error
  // exits always leave a (possibly empty) postmortem document behind.
  tools::ObservabilityFlags obs;
  if (const std::string bad = obs.parse(args, 250); !bad.empty()) {
    std::fprintf(stderr, "scalparc-serve: %s\n", bad.c_str());
    return 2;
  }

  try {
    // ---- model ingestion (hardened loader) -------------------------------
    const core::DecisionTree tree = core::load_tree_file(model_path);
    if (tree.empty()) {
      std::fputs("scalparc-serve: model snapshot holds an empty tree\n",
                 stderr);
      return 2;
    }
    auto model = std::make_shared<const core::CompiledTree>(
        core::CompiledTree::compile(tree));
    core::ModelHandle handle(model);

    std::shared_ptr<const core::CompiledTree> next_model;
    const std::string swap_path = args.get_string("swap-model", "");
    if (!swap_path.empty()) {
      const core::DecisionTree next_tree = core::load_tree_file(swap_path);
      if (next_tree.empty() || !(next_tree.schema() == tree.schema())) {
        std::fputs(
            "scalparc-serve: --swap-model snapshot is empty or its schema "
            "does not match the served model\n",
            stderr);
        return 2;
      }
      next_model = std::make_shared<const core::CompiledTree>(
          core::CompiledTree::compile(next_tree));
    }

    // ---- workload --------------------------------------------------------
    data::Dataset workload;
    const std::string data_path = args.get_string("data", "");
    if (!data_path.empty()) {
      workload = data::read_csv_file(data_path, ranks);
      if (!(workload.schema() == tree.schema())) {
        std::fputs(
            "scalparc-serve: workload schema does not match the model's\n",
            stderr);
        return 2;
      }
    } else {
      data::GeneratorConfig config;
      config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      config.function =
          data::parse_label_function(args.get_string("function", "F2"));
      const data::QuestGenerator generator(config);
      if (!(generator.schema() == tree.schema())) {
        std::fputs(
            "scalparc-serve: the synthetic generator's schema does not match "
            "the model (was it trained on generated data with default "
            "--attributes?); pass --data instead\n",
            stderr);
        return 2;
      }
      workload = generator.generate(
          0, static_cast<std::size_t>(args.get_int("records", 200000)));
    }
    const std::size_t records = workload.num_records();
    if (records == 0) {
      std::fputs("scalparc-serve: empty workload\n", stderr);
      return 2;
    }

    // Global batch count and the swap trigger.
    std::size_t total_batches = 0;
    for (int r = 0; r < ranks; ++r) {
      const std::size_t lo = records * static_cast<std::size_t>(r) /
                             static_cast<std::size_t>(ranks);
      const std::size_t hi = records * (static_cast<std::size_t>(r) + 1) /
                             static_cast<std::size_t>(ranks);
      total_batches += rounds * ((hi - lo + batch - 1) / batch);
    }
    const auto swap_after = static_cast<std::uint64_t>(args.get_int(
        "swap-after", static_cast<std::int64_t>(total_batches / 2)));
    if (args.has("swap-after") && swap_path.empty()) {
      std::fputs("scalparc-serve: --swap-after needs --swap-model\n", stderr);
      return 2;
    }

    // ---- continuous telemetry -------------------------------------------
    std::unique_ptr<telemetry::SloTracker> slo;
    if (slo_p99_us > 0.0) {
      slo = std::make_unique<telemetry::SloTracker>(slo_p99_us);
    }
    telemetry::TelemetryOptions topts;
    if (slo != nullptr) {
      telemetry::SloTracker* tracker = slo.get();
      topts.epoch_hook = [tracker](mp::MetricsSnapshot& merged,
                                   double epoch_seconds) {
        tracker->epoch_tick(epoch_seconds);
        merged.merge(tracker->metrics());
      };
    }
    const std::unique_ptr<telemetry::TelemetryExporter> exporter =
        obs.start_exporter(std::move(topts));

    // ---- the scoring run -------------------------------------------------
    const std::int32_t num_classes = tree.schema().num_classes();
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(ranks));
    std::vector<std::vector<std::int64_t>> cells(
        static_cast<std::size_t>(ranks),
        std::vector<std::int64_t>(
            static_cast<std::size_t>(num_classes) *
                static_cast<std::size_t>(num_classes),
            0));
    std::atomic<std::uint64_t> served{0};
    std::atomic<bool> swapped{false};

    mp::RunResult run = mp::run_ranks(
        ranks, mp::CostModel::zero(), [&](mp::Comm& comm) {
          const auto rank = static_cast<std::size_t>(comm.rank());
          const std::size_t lo = records * rank /
                                 static_cast<std::size_t>(ranks);
          const std::size_t hi = records * (rank + 1) /
                                 static_cast<std::size_t>(ranks);
          std::vector<std::int32_t> out(batch);
          latencies[rank].reserve(rounds * ((hi - lo) / batch + 1));
          // Live publishing is rate-limited to half the sampling epoch so
          // the exporter always sees fresh counters while the per-batch
          // cost stays one steady_clock read (and nothing at all when
          // telemetry is off — the enabled() gate is a relaxed load).
          const std::string publish_source =
              "serve-rank" + std::to_string(rank);
          const auto publish_every =
              std::chrono::milliseconds(std::max(1, obs.interval_ms / 2));
          auto last_publish = std::chrono::steady_clock::now();
          mp::barrier(comm);
          for (std::size_t round = 0; round < rounds; ++round) {
            for (std::size_t begin = lo; begin < hi; begin += batch) {
              const std::size_t end = std::min(begin + batch, hi);
              // Snapshot per batch: a concurrent hot-swap never touches the
              // model this batch is scoring with.
              const std::shared_ptr<const core::CompiledTree> serving =
                  handle.get();
              util::Stopwatch timer;
              serving->predict_batch(
                  workload, begin, end,
                  std::span<std::int32_t>(out.data(), end - begin));
              const double seconds = timer.elapsed_seconds();
              latencies[rank].push_back(seconds);
              const auto micros = static_cast<std::uint64_t>(seconds * 1e6);
              if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
                sink->observe("predict.batch_us", micros);
              }
              if (slo != nullptr) slo->observe_latency_us(micros);
              for (std::size_t i = 0; i < end - begin; ++i) {
                const auto actual = static_cast<std::size_t>(
                    workload.label(begin + i));
                ++cells[rank][actual * static_cast<std::size_t>(num_classes) +
                              static_cast<std::size_t>(out[i])];
              }
              comm.add_work(static_cast<double>(end - begin));
              const std::uint64_t n =
                  served.fetch_add(1, std::memory_order_acq_rel) + 1;
              if (next_model != nullptr && n >= swap_after &&
                  !swapped.exchange(true, std::memory_order_acq_rel)) {
                handle.swap(next_model);
              }
              if (telemetry::live_metrics_enabled()) {
                const auto now = std::chrono::steady_clock::now();
                if (now - last_publish >= publish_every) {
                  last_publish = now;
                  if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
                    telemetry::publish_metrics(publish_source, *sink);
                  }
                }
              }
            }
          }
          // Final publish so the exporter's last epoch matches this rank's
          // end state.
          if (telemetry::live_metrics_enabled()) {
            if (mp::MetricsSnapshot* sink = mp::metrics_sink()) {
              telemetry::publish_metrics(publish_source, *sink);
            }
          }
        });

    // Final telemetry epoch (every rank has published its end state), then
    // fold the exporter-owned slo.* family into the merged registry so the
    // report and --metrics-out carry it.
    if (exporter != nullptr) exporter->stop();
    if (slo != nullptr) run.metrics.merge(slo->metrics());

    // ---- aggregation -----------------------------------------------------
    std::vector<double> all_latencies;
    for (const auto& lane : latencies) {
      all_latencies.insert(all_latencies.end(), lane.begin(), lane.end());
    }
    std::sort(all_latencies.begin(), all_latencies.end());
    std::vector<std::int64_t> total_cells(
        static_cast<std::size_t>(num_classes) *
            static_cast<std::size_t>(num_classes),
        0);
    for (const auto& lane : cells) {
      for (std::size_t i = 0; i < lane.size(); ++i) total_cells[i] += lane[i];
    }
    const core::ConfusionMatrix quality =
        core::ConfusionMatrix::from_cells(num_classes, total_cells);
    const double scored = static_cast<double>(records) *
                          static_cast<double>(rounds);
    const double records_per_s = scored / run.wall_seconds;
    const double p50 = percentile(all_latencies, 0.50) * 1e6;
    const double p95 = percentile(all_latencies, 0.95) * 1e6;
    const double p99 = percentile(all_latencies, 0.99) * 1e6;
    const double max_us =
        all_latencies.empty() ? 0.0 : all_latencies.back() * 1e6;

    std::printf("served %zu record(s) x %zu round(s) on %d rank(s), batch %zu\n",
                records, rounds, ranks, batch);
    std::printf("model: %s (%d flat node(s), depth %d%s)\n", model_path.c_str(),
                model->num_nodes(), model->depth(),
                model->all_continuous() ? ", branchless continuous kernel" : "");
    if (next_model != nullptr) {
      std::printf("hot-swap: %s after %llu batch(es) — %llu swap(s) applied\n",
                  swap_path.c_str(),
                  static_cast<unsigned long long>(swap_after),
                  static_cast<unsigned long long>(handle.swaps()));
    }
    std::printf("throughput: %.3e records/s (%.3e records/s/rank)\n",
                records_per_s, records_per_s / ranks);
    std::printf("batch latency: p50 %.1f us, p95 %.1f us, p99 %.1f us, max %.1f us\n",
                p50, p95, p99, max_us);
    if (slo != nullptr) {
      const mp::MetricsSnapshot slo_metrics = slo->metrics();
      std::printf(
          "slo: target p99 %.1f us, windowed p99 %.1f us, %d breach(es), "
          "%.3f s burn\n",
          slo_p99_us, slo->windowed_p99_us(),
          static_cast<int>(slo_metrics.value("slo.breaches")),
          slo_metrics.value("slo.burn_seconds"));
    }
    if (exporter != nullptr) {
      std::fputs(obs.summary(*exporter).c_str(), stdout);
    }
    std::printf("accuracy: %.4f over %lld record(s)\n", quality.accuracy(),
                static_cast<long long>(quality.total()));
    if (args.get_bool("quality", false)) {
      std::printf("%6s %10s %10s %10s\n", "class", "precision", "recall", "f1");
      for (std::int32_t cls = 0; cls < num_classes; ++cls) {
        std::printf("%6d %10.4f %10.4f %10.4f\n", cls, quality.precision(cls),
                    quality.recall(cls), quality.f1(cls));
      }
    }

    // ---- reports ---------------------------------------------------------
    const std::string report_path = args.get_string("report", "");
    if (!report_path.empty()) {
      Json doc = Json::object();
      doc["format"] = "scalparc-serve-v1";
      doc["model"] = model_path;
      doc["ranks"] = ranks;
      doc["batch_records"] = static_cast<std::int64_t>(batch);
      doc["rounds"] = static_cast<std::int64_t>(rounds);
      doc["workload_records"] = static_cast<std::int64_t>(records);
      doc["batches_served"] =
          static_cast<std::int64_t>(served.load(std::memory_order_relaxed));
      doc["swaps"] = static_cast<std::int64_t>(handle.swaps());
      doc["records_per_s"] = records_per_s;
      doc["records_per_s_per_rank"] = records_per_s / ranks;
      Json latency = Json::object();
      latency["p50_us"] = p50;
      latency["p95_us"] = p95;
      latency["p99_us"] = p99;
      latency["max_us"] = max_us;
      doc["latency"] = std::move(latency);
      Json quality_doc = Json::object();
      quality_doc["accuracy"] = quality.accuracy();
      Json classes = Json::array();
      for (std::int32_t cls = 0; cls < num_classes; ++cls) {
        Json row = Json::object();
        row["class"] = cls;
        row["precision"] = quality.precision(cls);
        row["recall"] = quality.recall(cls);
        row["f1"] = quality.f1(cls);
        classes.push_back(std::move(row));
      }
      quality_doc["classes"] = std::move(classes);
      doc["quality"] = std::move(quality_doc);
      doc["metrics"] = run.metrics.to_json();
      std::ofstream out(report_path);
      out << doc.dump(1) << "\n";
      if (!out) {
        std::fprintf(stderr, "scalparc-serve: cannot write %s\n",
                     report_path.c_str());
        return 2;
      }
      std::printf("report written to %s\n", report_path.c_str());
    }
    if (!obs.metrics_path.empty()) {
      if (!obs.write_metrics(ranks, run.metrics)) {
        std::fprintf(stderr, "scalparc-serve: cannot write %s\n",
                     obs.metrics_path.c_str());
        return 2;
      }
      std::printf("metrics written to %s\n", obs.metrics_path.c_str());
    }
    if (obs.dump_flight()) {
      std::printf("flight recorder written to %s (%zu event(s))\n",
                  obs.flight_path.c_str(), telemetry::flight_events().size());
    }
    return 0;
  } catch (const std::exception& e) {
    // Error exit: the postmortem starts with the last things the system did.
    scalparc::telemetry::dump_armed_flight();
    std::fprintf(stderr, "scalparc-serve: %s\n", e.what());
    return 1;
  }
}
