#include "obs/run_export.hpp"

#include <fstream>
#include <stdexcept>

#include "mpi/timecat.hpp"
#include "obs/metrics.hpp"

namespace parcoll::obs {

JsonValue time_breakdown_json(const mpi::TimeBreakdown& time) {
  JsonValue doc = JsonValue::object();
  for (std::size_t c = 0; c < mpi::kNumTimeCats; ++c) {
    doc.set(std::string(mpi::to_string(static_cast<mpi::TimeCat>(c))) + "_s",
            time.seconds[c]);
  }
  doc.set("total_s", time.total());
  return doc;
}

JsonValue metrics_json(const MetricsRegistry& metrics) {
  JsonValue doc = JsonValue::object();

  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : metrics.counters()) {
    counters.set(name, value);
  }
  doc.set("counters", std::move(counters));

  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : metrics.gauges()) {
    gauges.set(name, value);
  }
  doc.set("gauges", std::move(gauges));

  JsonValue histograms = JsonValue::object();
  for (const auto& [name, hist] : metrics.histograms()) {
    JsonValue entry = JsonValue::object();
    JsonValue bounds = JsonValue::array();
    for (double b : hist.bounds) bounds.push(b);
    JsonValue counts = JsonValue::array();
    for (std::uint64_t c : hist.counts) counts.push(c);
    entry.set("bounds", std::move(bounds))
        .set("counts", std::move(counts))
        .set("count", hist.count)
        .set("sum", hist.sum)
        .set("min", hist.min)
        .set("max", hist.max)
        .set("mean", hist.mean());
    histograms.set(name, std::move(entry));
  }
  doc.set("histograms", std::move(histograms));

  JsonValue quantiles = JsonValue::object();
  for (const auto& [name, q] : metrics.quantiles()) {
    quantiles.set(name, q.summary_json());
  }
  doc.set("quantiles", std::move(quantiles));
  return doc;
}

void export_json(MetricsRegistry& metrics, const std::string& prefix,
                 const JsonValue& doc) {
  switch (doc.type()) {
    case JsonValue::Type::Object:
      for (const auto& [key, value] : doc.members()) {
        export_json(metrics, prefix + "." + key, value);
      }
      break;
    case JsonValue::Type::Int:
    case JsonValue::Type::Uint:
      metrics.counter(prefix) = doc.as_uint();
      break;
    case JsonValue::Type::Double:
      metrics.gauge(prefix) = doc.as_double();
      break;
    default:
      break;
  }
}

JsonValue run_document(const std::string& tool, JsonValue config) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kRunSchema);
  doc.set("version", kRunSchemaVersion);
  doc.set("tool", tool);
  doc.set("config", std::move(config));
  return doc;
}

void write_json_file(const std::string& path, const JsonValue& doc) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  os << doc.dump(1) << '\n';
}

}  // namespace parcoll::obs
