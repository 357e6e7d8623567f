// Process-wide metrics: named counters, gauges, and log-bucketed latency
// histograms with quantile extraction.
//
// Design constraints, in order:
//   * Exactness — counters must report precisely the number of events
//     recorded, under any interleaving. The serve CI smoke asserts
//     scraped counters equal jobs submitted.
//   * One lock per metric — every record site sits at a job or
//     engine-call boundary (a stored hit records a handful of times on
//     its reading thread, a cold solve a few times per engine call or
//     rectpack walker), so each Counter, Gauge and Histogram is one value
//     under one mutex, and a record is one uncontended lock round-trip
//     (see the metrics_* kernels in BENCH_micro.json).
//   * Discipline — every shared field is WTAM_GUARDED_BY its mutex, same
//     as the rest of the codebase; no raw atomics spread around
//     (CancelToken stays the one documented lock-free exception).
//
// Recording is always-on and cheap; *reporting* is opt-in (--metrics,
// the serve `metrics` verb), so solver results stay byte-identical
// whether or not anyone is scraping.
//
// Histogram bucketing is HDR-style log-linear: values 0..7 land in exact
// unit buckets; above that each power-of-two octave splits into
// 2^kHistogramSubBits = 8 sub-buckets, giving <= 12.5% relative error on
// any recorded value and a fixed 488-bucket footprint for the full
// non-negative int64 range. Quantiles interpolate within a bucket and
// clamp to the observed [min, max].

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace wtam::obs {

/// Sub-bucket resolution: each power-of-two octave splits into
/// 2^kHistogramSubBits buckets.
inline constexpr int kHistogramSubBits = 3;

/// Total buckets covering [0, INT64_MAX]: 8 exact unit buckets for 0..7
/// plus 60 octaves (exponents 3..62) of 8 sub-buckets each.
inline constexpr int kHistogramBuckets =
    (1 << kHistogramSubBits) * (64 - kHistogramSubBits - 1) +
    (1 << kHistogramSubBits);

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void increment(std::int64_t delta = 1);
  [[nodiscard]] std::int64_t value() const;
  void reset();

 private:
  mutable common::Mutex mu_;
  std::int64_t value_ WTAM_GUARDED_BY(mu_) = 0;
};

/// Point-in-time level (in-flight jobs, queue depth).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t value);
  void add(std::int64_t delta);
  [[nodiscard]] std::int64_t value() const;
  void reset();

 private:
  mutable common::Mutex mu_;
  std::int64_t value_ WTAM_GUARDED_BY(mu_) = 0;
};

/// Merged view of one histogram: totals plus the full bucket vector
/// (indexable with Histogram::bucket_index/bucket_bounds; empty or
/// kHistogramBuckets long).
struct HistogramData {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  ///< 0 when count == 0
  std::int64_t max = 0;  ///< 0 when count == 0
  std::vector<std::uint64_t> buckets;

  /// Folds `other` in: totals add, [min, max] widens, buckets add
  /// index-wise. Exact — every histogram shares the one fixed bucket
  /// layout — so merged processes report the quantiles one histogram
  /// holding every sample would.
  void merge(const HistogramData& other);

  /// Quantile estimate for q in [0, 1]: cumulative walk to the target
  /// rank, linear interpolation within the bucket, clamped to the
  /// observed [min, max]. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double mean() const noexcept {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Log-bucketed distribution of non-negative values (latencies in ns by
/// convention — name metrics `*_ns`). Negative inputs clamp to 0.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::int64_t value);
  /// Alias used by common::ScopedTimer — reads as "record nanoseconds".
  void record_ns(std::int64_t ns) { record(ns); }

  [[nodiscard]] HistogramData merged() const;
  void reset();

  /// Bucket index for a value (negatives clamp to 0). Exposed for the
  /// bucket-boundary tests.
  [[nodiscard]] static int bucket_index(std::int64_t value) noexcept;
  /// Half-open value range [first, second) covered by a bucket; the top
  /// bucket's upper bound clamps to INT64_MAX.
  [[nodiscard]] static std::pair<std::int64_t, std::int64_t> bucket_bounds(
      int index) noexcept;

 private:
  mutable common::Mutex mu_;
  HistogramData data_ WTAM_GUARDED_BY(mu_);  // buckets sized on first record
};

/// One named counter value in a snapshot.
struct CounterValue {
  std::string name;
  std::int64_t value = 0;
};

/// One named gauge value in a snapshot.
struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};

/// A quantile every renderer reports: q, its Prometheus label, and its
/// JSON key.
struct ReportedQuantile {
  double q;
  const char* label;
  const char* key;
};
inline constexpr ReportedQuantile kReportedQuantiles[] = {
    {0.50, "0.5", "p50"}, {0.90, "0.9", "p90"},
    {0.95, "0.95", "p95"}, {0.99, "0.99", "p99"}};

/// One named histogram in a snapshot; quantiles are computed when it
/// is rendered.
struct HistogramValue {
  std::string name;
  HistogramData data;
};

/// Point-in-time copy of every registered metric, names sorted, so two
/// snapshots of the same state render identically.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Folds `other` in by name, keeping names sorted: counters and gauges
  /// sum, histograms merge exactly (HistogramData::merge). How a fleet's
  /// worker snapshots, and a process's out-of-registry counters, join
  /// one scrape.
  void merge(const MetricsSnapshot& other);
};

/// Register-on-first-use registry. counter()/gauge()/histogram() return
/// references that stay valid for the registry's lifetime, so call sites
/// can cache them (function-local static) and skip the name lookup on
/// the hot path. instance() is the process-wide registry every tool
/// scrapes; independent registries can be constructed for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] static MetricsRegistry& instance();

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zeroes every registered metric (names stay registered).
  void reset();

 private:
  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      WTAM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ WTAM_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      WTAM_GUARDED_BY(mu_);
};

/// Prometheus text exposition (version 0.0.4) of a snapshot: counters
/// and gauges as typed samples, histograms as summaries with quantile
/// labels plus _sum/_count. Metric names are sanitized ('.' and any
/// other illegal character become '_').
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

}  // namespace wtam::obs
