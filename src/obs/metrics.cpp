#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

namespace wtam::obs {

// ---------------------------------------------------------------------------
// Counter

void Counter::increment(std::int64_t delta) {
  common::MutexLock lock(mu_);
  value_ += delta;
}

std::int64_t Counter::value() const {
  common::MutexLock lock(mu_);
  return value_;
}

void Counter::reset() {
  common::MutexLock lock(mu_);
  value_ = 0;
}

// ---------------------------------------------------------------------------
// Gauge

void Gauge::set(std::int64_t value) {
  common::MutexLock lock(mu_);
  value_ = value;
}

void Gauge::add(std::int64_t delta) {
  common::MutexLock lock(mu_);
  value_ += delta;
}

std::int64_t Gauge::value() const {
  common::MutexLock lock(mu_);
  return value_;
}

void Gauge::reset() {
  common::MutexLock lock(mu_);
  value_ = 0;
}

// ---------------------------------------------------------------------------
// Histogram

int Histogram::bucket_index(std::int64_t value) noexcept {
  if (value < 0) value = 0;
  const auto v = static_cast<std::uint64_t>(value);
  constexpr std::uint64_t kSub = 1u << kHistogramSubBits;
  if (v < kSub) return static_cast<int>(v);  // exact unit buckets 0..7
  // Highest set bit selects the octave; the kHistogramSubBits bits below
  // it select the sub-bucket within the octave.
  const int exp = std::bit_width(v) - 1;  // >= kHistogramSubBits
  const int shift = exp - kHistogramSubBits;
  const auto sub = static_cast<int>((v >> shift) & (kSub - 1));
  return ((exp - kHistogramSubBits) << kHistogramSubBits) + sub +
         static_cast<int>(kSub);
}

std::pair<std::int64_t, std::int64_t> Histogram::bucket_bounds(
    int index) noexcept {
  constexpr int kSub = 1 << kHistogramSubBits;
  if (index < 0) index = 0;
  if (index >= kHistogramBuckets) index = kHistogramBuckets - 1;
  if (index < kSub) return {index, index + 1};
  const int block = (index - kSub) >> kHistogramSubBits;
  const int sub = (index - kSub) & (kSub - 1);
  const auto lo = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(kSub + sub) << block);
  const std::uint64_t width = std::uint64_t{1} << block;
  const std::uint64_t hi = static_cast<std::uint64_t>(lo) + width;
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  return {lo, hi > kMax ? std::numeric_limits<std::int64_t>::max()
                        : static_cast<std::int64_t>(hi)};
}

void Histogram::record(std::int64_t value) {
  if (value < 0) value = 0;
  const auto index = static_cast<std::size_t>(bucket_index(value));
  common::MutexLock lock(mu_);
  if (data_.buckets.empty()) data_.buckets.assign(kHistogramBuckets, 0);
  if (data_.count == 0 || value < data_.min) data_.min = value;
  if (data_.count == 0 || value > data_.max) data_.max = value;
  data_.count += 1;
  data_.sum += value;
  data_.buckets[index] += 1;
}

HistogramData Histogram::merged() const {
  HistogramData data;
  data.buckets.assign(kHistogramBuckets, 0);
  common::MutexLock lock(mu_);
  data.merge(data_);
  return data;
}

void Histogram::reset() {
  common::MutexLock lock(mu_);
  data_ = HistogramData{};
}

namespace {

/// a + b clamped to the int64 range: merges fold in values other
/// processes sent, and a signed overflow there must not be UB.
std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (!__builtin_add_overflow(a, b, &out)) return out;
  return b > 0 ? std::numeric_limits<std::int64_t>::max()
               : std::numeric_limits<std::int64_t>::min();
}

}  // namespace

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count = saturating_add(count, other.count);
  sum = saturating_add(sum, other.sum);
  if (buckets.size() < other.buckets.size())
    buckets.resize(other.buckets.size(), 0);
  for (std::size_t i = 0; i < other.buckets.size(); ++i)
    buckets[i] += other.buckets[i];
}

double HistogramData::quantile(double q) const noexcept {
  if (count <= 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Target rank in [1, count]; the bucket holding that rank is the
  // quantile bucket, with linear interpolation inside it.
  const double target = std::max(1.0, q * static_cast<double>(count));
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = cumulative;
    cumulative += static_cast<double>(buckets[i]);
    if (cumulative + 1e-9 < target) continue;
    const auto [lo, hi] = Histogram::bucket_bounds(static_cast<int>(i));
    const double fraction =
        (target - before) / static_cast<double>(buckets[i]);
    double estimate = static_cast<double>(lo) +
                      (static_cast<double>(hi) - static_cast<double>(lo)) *
                          fraction;
    // Clamp to the observed range: a single sample reports itself
    // exactly rather than its bucket midpoint.
    estimate = std::max(estimate, static_cast<double>(min));
    estimate = std::min(estimate, static_cast<double>(max));
    return estimate;
  }
  return static_cast<double>(max);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  common::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  common::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  common::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Collect stable pointers under the registry lock, then read each
  // metric outside it: metric reads take slot locks, and holding mu_
  // across them would serialize against every concurrent increment.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    common::MutexLock lock(mu_);
    counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_)
      counters.emplace_back(name, counter.get());
    gauges.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_)
      gauges.emplace_back(name, gauge.get());
    histograms.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_)
      histograms.emplace_back(name, histogram.get());
  }

  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters.size());
  for (const auto& [name, counter] : counters)
    snapshot.counters.push_back({name, counter->value()});
  snapshot.gauges.reserve(gauges.size());
  for (const auto& [name, gauge] : gauges)
    snapshot.gauges.push_back({name, gauge->value()});
  snapshot.histograms.reserve(histograms.size());
  for (const auto& [name, histogram] : histograms)
    snapshot.histograms.push_back({name, histogram->merged()});
  return snapshot;
}

void MetricsRegistry::reset() {
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<Histogram*> histograms;
  {
    common::MutexLock lock(mu_);
    for (auto& [name, counter] : counters_) counters.push_back(counter.get());
    for (auto& [name, gauge] : gauges_) gauges.push_back(gauge.get());
    for (auto& [name, histogram] : histograms_)
      histograms.push_back(histogram.get());
  }
  for (Counter* counter : counters) counter->reset();
  for (Gauge* gauge : gauges) gauge->reset();
  for (Histogram* histogram : histograms) histogram->reset();
}

// ---------------------------------------------------------------------------
// MetricsSnapshot merge

namespace {

/// Folds each entry of `from` into the name-sorted `into`: `fold` on a
/// name match, a sorted insert otherwise.
template <typename Entry, typename Fold>
void merge_by_name(std::vector<Entry>& into, const std::vector<Entry>& from,
                   Fold fold) {
  for (const Entry& entry : from) {
    const auto it = std::lower_bound(
        into.begin(), into.end(), entry.name,
        [](const Entry& e, const std::string& name) { return e.name < name; });
    if (it != into.end() && it->name == entry.name)
      fold(*it, entry);
    else
      into.insert(it, entry);
  }
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  const auto add = [](auto& into, const auto& from) {
    into.value = saturating_add(into.value, from.value);
  };
  merge_by_name(counters, other.counters, add);
  merge_by_name(gauges, other.gauges, add);
  merge_by_name(histograms, other.histograms,
                [](HistogramValue& into, const HistogramValue& from) {
                  into.data.merge(from.data);
                });
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

namespace {

/// Maps a registry metric name onto the Prometheus grammar: every
/// character outside [a-zA-Z0-9_:] becomes '_' and a leading digit is
/// prefixed.
std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

std::string format_sample_value(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 9.0e15) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  std::ostringstream out;
  out.precision(9);
  out << value;
  return out.str();
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const CounterValue& counter : snapshot.counters) {
    const std::string name = sanitize_metric_name(counter.name);
    out << "# TYPE " << name << " counter\n"
        << name << " " << counter.value << "\n";
  }
  for (const GaugeValue& gauge : snapshot.gauges) {
    const std::string name = sanitize_metric_name(gauge.name);
    out << "# TYPE " << name << " gauge\n"
        << name << " " << gauge.value << "\n";
  }
  for (const HistogramValue& histogram : snapshot.histograms) {
    const std::string name = sanitize_metric_name(histogram.name);
    const HistogramData& data = histogram.data;
    out << "# TYPE " << name << " summary\n";
    for (const ReportedQuantile& q : kReportedQuantiles)
      out << name << "{quantile=\"" << q.label << "\"} "
          << format_sample_value(data.quantile(q.q)) << "\n";
    out << name << "_sum " << data.sum << "\n";
    out << name << "_count " << data.count << "\n";
  }
  return out.str();
}

}  // namespace wtam::obs
