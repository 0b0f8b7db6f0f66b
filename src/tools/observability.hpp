// Observability outputs shared by `scalparc train` and `scalparc-serve`
// (docs/observability.md): the --telemetry-out, --expose-out, --flight-out,
// --telemetry-interval-ms and --metrics-out flags, the telemetry exporter,
// the scalparc-metrics-v1 document and the flight-recorder dump. Each tool
// prints its own stdout lines.
#pragma once

#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "mp/metrics.hpp"
#include "mp/telemetry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace scalparc::tools {

struct ObservabilityFlags {
  std::string telemetry_path;  // --telemetry-out
  std::string expose_path;     // --expose-out
  std::string flight_path;     // --flight-out
  std::string metrics_path;    // --metrics-out
  int interval_ms = 0;         // --telemetry-interval-ms

  // Reads the flags; `default_interval_ms` is the tool's own sampling
  // default. Returns the usage error naming the bad flag, or "" after
  // arming the flight recorder, so every later exit leaves a --flight-out
  // document behind.
  std::string parse(const util::CliArgs& args, int default_interval_ms) {
    telemetry_path = args.get_string("telemetry-out", "");
    expose_path = args.get_string("expose-out", "");
    flight_path = args.get_string("flight-out", "");
    metrics_path = args.get_string("metrics-out", "");
    const std::int64_t interval =
        args.get_int("telemetry-interval-ms", default_interval_ms);
    if (interval < 1) return "--telemetry-interval-ms must be >= 1";
    interval_ms = static_cast<int>(interval);
    if (!flight_path.empty()) {
      telemetry::set_flight_capacity(256);
      telemetry::arm_flight_dump(flight_path);
    }
    return "";
  }

  // Starts the exporter on `options` (keeping its epoch_hook) when a
  // telemetry file is asked for or the hook needs epochs; null otherwise.
  std::unique_ptr<telemetry::TelemetryExporter> start_exporter(
      telemetry::TelemetryOptions options = {}) const {
    if (telemetry_path.empty() && expose_path.empty() && !options.epoch_hook) {
      return nullptr;
    }
    options.timeseries_path = telemetry_path;
    options.expose_path = expose_path;
    options.interval_ms = interval_ms;
    return std::make_unique<telemetry::TelemetryExporter>(std::move(options));
  }

  // The stdout line for a stopped exporter.
  std::string summary(const telemetry::TelemetryExporter& exporter) const {
    std::string line = "telemetry: " + std::to_string(exporter.epochs()) +
                       " epoch(s) every " + std::to_string(interval_ms) +
                       " ms";
    if (!telemetry_path.empty()) line += " -> " + telemetry_path;
    if (!expose_path.empty()) line += ", expose " + expose_path;
    return line + "\n";
  }

  // Writes the scalparc-metrics-v1 document to --metrics-out, checking the
  // stream after the write; false when it could not be written.
  bool write_metrics(int ranks, const mp::MetricsSnapshot& metrics) const {
    util::Json doc = util::Json::object();
    doc["format"] = util::Json("scalparc-metrics-v1");
    doc["ranks"] = util::Json(ranks);
    doc["metrics"] = metrics.to_json();
    std::ofstream out(metrics_path);
    out << doc.dump(1) << "\n";
    return static_cast<bool>(out);
  }

  // Dumps the flight recorder to --flight-out; false when off or failed.
  bool dump_flight() const {
    return !flight_path.empty() && telemetry::dump_flight(flight_path);
  }
};

}  // namespace scalparc::tools
