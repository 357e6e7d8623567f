#include "obs/metrics_json.hpp"

#include <stdexcept>
#include <string>

namespace wtam::obs {

namespace {

/// Appends the counters/gauges/histograms sections to `root`.
void append_sections(api::JsonValue& root, const MetricsSnapshot& snapshot) {
  api::JsonValue counters = api::JsonValue::object();
  for (const CounterValue& counter : snapshot.counters)
    counters.set(counter.name, api::JsonValue::number(counter.value));
  root.set("counters", std::move(counters));

  api::JsonValue gauges = api::JsonValue::object();
  for (const GaugeValue& gauge : snapshot.gauges)
    gauges.set(gauge.name, api::JsonValue::number(gauge.value));
  root.set("gauges", std::move(gauges));

  api::JsonValue histograms = api::JsonValue::object();
  for (const HistogramValue& histogram : snapshot.histograms) {
    const HistogramData& data = histogram.data;
    api::JsonValue entry = api::JsonValue::object();
    entry.set("count", api::JsonValue::number(data.count));
    entry.set("sum", api::JsonValue::number(data.sum));
    entry.set("min", api::JsonValue::number(data.min));
    entry.set("max", api::JsonValue::number(data.max));
    entry.set("mean", api::JsonValue::number(data.mean()));
    for (const ReportedQuantile& q : kReportedQuantiles)
      entry.set(q.key, api::JsonValue::number(data.quantile(q.q)));
    api::JsonValue buckets = api::JsonValue::array();
    for (std::size_t i = 0; i < data.buckets.size(); ++i) {
      if (data.buckets[i] == 0) continue;
      api::JsonValue pair = api::JsonValue::array();
      pair.push(api::JsonValue::number(static_cast<std::int64_t>(i)));
      pair.push(
          api::JsonValue::number(static_cast<std::int64_t>(data.buckets[i])));
      buckets.push(std::move(pair));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(histogram.name, std::move(entry));
  }
  root.set("histograms", std::move(histograms));
}

[[noreturn]] void bad_metrics(const std::string& message) {
  throw std::runtime_error("metrics: " + message);
}

/// An integer member value; negative only when `signed_ok` (gauges).
std::int64_t read_int(const api::JsonValue* value, const std::string& what,
                      bool signed_ok = false) {
  if (value == nullptr || value->kind() != api::JsonValue::Kind::Int)
    bad_metrics(what + " must be an integer");
  if (value->as_int() < 0 && !signed_ok)
    bad_metrics(what + " must not be negative");
  return value->as_int();
}

const api::JsonValue& read_section(const api::JsonValue& json,
                                   const char* name) {
  const api::JsonValue* section = json.find(name);
  if (section == nullptr || !section->is_object())
    bad_metrics(std::string("'") + name + "' must be an object");
  return *section;
}

HistogramData read_histogram(const api::JsonValue& entry,
                             const std::string& what) {
  HistogramData data;
  data.count = read_int(entry.find("count"), what + " count");
  data.sum = read_int(entry.find("sum"), what + " sum");
  data.min = read_int(entry.find("min"), what + " min");
  data.max = read_int(entry.find("max"), what + " max");
  const api::JsonValue* buckets = entry.find("buckets");
  if (buckets == nullptr || !buckets->is_array())
    bad_metrics(what + " buckets must be an array");
  data.buckets.assign(kHistogramBuckets, 0);
  std::int64_t total = 0;
  std::int64_t previous = -1;
  for (const api::JsonValue& pair : buckets->elements()) {
    if (!pair.is_array() || pair.elements().size() != 2)
      bad_metrics(what + " buckets must be [index, count] pairs");
    const std::int64_t index =
        read_int(&pair.elements()[0], what + " bucket index");
    const std::int64_t n = read_int(&pair.elements()[1], what + " bucket count");
    if (index <= previous || index >= kHistogramBuckets)
      bad_metrics(what + " bucket indices must ascend within [0, " +
                  std::to_string(kHistogramBuckets) + ")");
    // total <= count holds here, so the subtraction cannot overflow.
    if (n > data.count - total)
      bad_metrics(what + " bucket counts exceed its count");
    total += n;
    previous = index;
    data.buckets[static_cast<std::size_t>(index)] =
        static_cast<std::uint64_t>(n);
  }
  if (total != data.count)
    bad_metrics(what + " bucket counts do not add up to its count");
  return data;
}

}  // namespace

api::JsonValue metrics_to_json(const MetricsSnapshot& snapshot) {
  api::JsonValue root = api::JsonValue::object();
  append_sections(root, snapshot);
  return root;
}

MetricsSnapshot metrics_from_json(const api::JsonValue& json) {
  MetricsSnapshot parsed;
  for (const auto& [name, value] : read_section(json, "counters").members())
    parsed.counters.push_back({name, read_int(&value, "counter " + name)});
  for (const auto& [name, value] : read_section(json, "gauges").members())
    parsed.gauges.push_back(
        {name, read_int(&value, "gauge " + name, /*signed_ok=*/true)});
  for (const auto& [name, entry] : read_section(json, "histograms").members())
    parsed.histograms.push_back(
        {name, read_histogram(entry, "histogram " + name)});
  // Merging into an empty snapshot restores the sorted-names invariant
  // whatever order the document listed them in.
  MetricsSnapshot snapshot;
  snapshot.merge(parsed);
  return snapshot;
}

api::JsonValue metrics_response(const MetricsSnapshot& snapshot,
                                bool prometheus) {
  api::JsonValue response = api::JsonValue::object();
  response.set("op", api::JsonValue::string("metrics"));
  if (prometheus) {
    response.set("format", api::JsonValue::string("prometheus"));
    response.set("body", api::JsonValue::string(to_prometheus(snapshot)));
  } else {
    append_sections(response, snapshot);
  }
  return response;
}

}  // namespace wtam::obs
