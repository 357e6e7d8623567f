// Metrics registry contract: exact counts under contention, documented
// histogram bucket boundaries, deterministic snapshots, exact snapshot
// merges through the strict JSON wire format, and thread-safe trace
// recording. The contention tests carry the `concurrency` ctest label
// so the TSan CI job exercises each metric's one mutex.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json_value.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"
#include "obs/trace.hpp"

namespace wtam::obs {
namespace {

// --- exactness under contention -------------------------------------------

TEST(MetricsConcurrency, CounterIsExactUnderContention) {
  // The CI serve smoke asserts scraped counters equal jobs submitted, so
  // a lost increment is a correctness bug, not noise.
  MetricsRegistry registry;
  Counter& counter = registry.counter("contended");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.increment();
    });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter.value(),
            static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(MetricsConcurrency, HistogramTotalsAreExactUnderContention) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("contended_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&histogram, t] {
      // Distinct per-thread values so sum/min/max are all checkable.
      for (int i = 0; i < kPerThread; ++i)
        histogram.record(t * kPerThread + i);
    });
  for (auto& thread : threads) thread.join();

  const HistogramData data = histogram.merged();
  const std::int64_t n = static_cast<std::int64_t>(kThreads) * kPerThread;
  EXPECT_EQ(data.count, n);
  EXPECT_EQ(data.sum, n * (n - 1) / 2);  // 0 + 1 + ... + n-1
  EXPECT_EQ(data.min, 0);
  EXPECT_EQ(data.max, n - 1);
}

TEST(MetricsConcurrency, RegistryLookupRacesResolveToOneMetric) {
  // register-on-first-use from many threads must agree on one Counter.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&registry] { registry.counter("shared").increment(); });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("shared").value(), kThreads);
}

TEST(MetricsConcurrency, TraceRecordsFromManyThreads) {
  SolveTrace trace;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const SpanTimer span(&trace, "stage-" + std::to_string(t));
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(trace.spans().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

// --- histogram bucketing ---------------------------------------------------

TEST(Histogram, UnitBucketsAreExact) {
  // Values 0..7 each get their own bucket: [v, v+1).
  for (std::int64_t v = 0; v < 8; ++v) {
    const int index = Histogram::bucket_index(v);
    EXPECT_EQ(index, static_cast<int>(v));
    const auto [lo, hi] = Histogram::bucket_bounds(index);
    EXPECT_EQ(lo, v);
    EXPECT_EQ(hi, v + 1);
  }
}

TEST(Histogram, BucketBoundsContainTheirValues) {
  // Every probed value must land in a bucket whose [lo, hi) contains it
  // — probe each power of two, its neighbors, and mid-octave points.
  std::vector<std::int64_t> probes = {0, 1, 7, 8, 9};
  for (int shift = 4; shift < 63; ++shift) {
    const std::int64_t pow2 = std::int64_t{1} << shift;
    probes.push_back(pow2 - 1);
    probes.push_back(pow2);
    probes.push_back(pow2 + 1);
    probes.push_back(pow2 + pow2 / 2);  // mid-octave
  }
  probes.push_back(std::numeric_limits<std::int64_t>::max());
  for (const std::int64_t value : probes) {
    const int index = Histogram::bucket_index(value);
    ASSERT_GE(index, 0) << value;
    ASSERT_LT(index, kHistogramBuckets) << value;
    const auto [lo, hi] = Histogram::bucket_bounds(index);
    EXPECT_LE(lo, value) << "bucket " << index;
    // The top bucket's hi clamps to INT64_MAX, closing the range there.
    if (hi != std::numeric_limits<std::int64_t>::max()) {
      EXPECT_GT(hi, value) << "bucket " << index;
    }
  }
}

TEST(Histogram, BucketsTileContiguously) {
  // Each bucket's hi is the next bucket's lo: no gaps, no overlaps.
  for (int index = 0; index + 1 < kHistogramBuckets; ++index) {
    const auto [lo, hi] = Histogram::bucket_bounds(index);
    EXPECT_LT(lo, hi) << "bucket " << index;
    EXPECT_EQ(hi, Histogram::bucket_bounds(index + 1).first)
        << "bucket " << index;
  }
}

TEST(Histogram, RelativeErrorIsBounded) {
  // Log-linear with 8 sub-buckets per octave: width(bucket)/lo <= 1/8
  // above the unit range, so any quantile is within 12.5% of truth.
  for (const std::int64_t value : {100, 1000, 1000000, 123456789}) {
    const auto [lo, hi] = Histogram::bucket_bounds(
        Histogram::bucket_index(value));
    EXPECT_LE(static_cast<double>(hi - lo) / static_cast<double>(lo), 0.125)
        << value;
  }
}

TEST(Histogram, NegativeValuesClampToZero) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("clamped");
  histogram.record(-5);
  const HistogramData data = histogram.merged();
  EXPECT_EQ(data.count, 1);
  EXPECT_EQ(data.min, 0);
  EXPECT_EQ(data.max, 0);
}

TEST(Histogram, SingleSampleQuantilesAreExact) {
  // Quantiles clamp to the observed [min, max], so one sample reports
  // itself exactly at every percentile.
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("single");
  histogram.record(12345);
  const HistogramData data = histogram.merged();
  EXPECT_EQ(data.quantile(0.5), 12345.0);
  EXPECT_EQ(data.quantile(0.99), 12345.0);
}

TEST(Histogram, QuantilesOrderedAndWithinRange) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("spread");
  for (std::int64_t v = 1; v <= 1000; ++v) histogram.record(v * 1000);
  const HistogramData data = histogram.merged();
  const double p50 = data.quantile(0.5);
  const double p90 = data.quantile(0.9);
  const double p99 = data.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, static_cast<double>(data.min));
  EXPECT_LE(p99, static_cast<double>(data.max));
  // Within the documented 12.5% relative error of the true ranks.
  EXPECT_NEAR(p50, 500500.0, 500500.0 * 0.125);
  EXPECT_NEAR(p99, 990000.0, 990000.0 * 0.125);
}

// --- snapshots -------------------------------------------------------------

TEST(MetricsRegistry, SnapshotIsSortedAndDeterministic) {
  MetricsRegistry registry;
  // Registered intentionally out of name order.
  registry.counter("z.last").increment(3);
  registry.counter("a.first").increment(1);
  registry.gauge("m.middle").set(7);
  registry.histogram("h.lat_ns").record(42);

  const MetricsSnapshot first = registry.snapshot();
  ASSERT_EQ(first.counters.size(), 2u);
  EXPECT_EQ(first.counters[0].name, "a.first");
  EXPECT_EQ(first.counters[0].value, 1);
  EXPECT_EQ(first.counters[1].name, "z.last");
  EXPECT_EQ(first.counters[1].value, 3);
  ASSERT_EQ(first.gauges.size(), 1u);
  EXPECT_EQ(first.gauges[0].value, 7);
  ASSERT_EQ(first.histograms.size(), 1u);
  EXPECT_EQ(first.histograms[0].data.count, 1);
  EXPECT_EQ(first.histograms[0].data.quantile(0.5), 42.0);

  // Same state -> identical snapshot (names AND values), so two scrapes
  // of a quiet server render byte-identical expositions.
  const MetricsSnapshot second = registry.snapshot();
  EXPECT_EQ(to_prometheus(first), to_prometheus(second));
}

TEST(MetricsRegistry, ResetZeroesValuesKeepsNames) {
  MetricsRegistry registry;
  registry.counter("events").increment(5);
  registry.gauge("level").set(9);
  registry.histogram("lat_ns").record(100);
  registry.reset();
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].value, 0);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, 0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].data.count, 0);
}

// --- merging through the wire format ---------------------------------------

/// A registry's snapshot as a metrics ack would carry it: rendered,
/// serialized, parsed, and read back.
MetricsSnapshot round_trip(const MetricsRegistry& registry) {
  const std::string wire =
      metrics_to_json(registry.snapshot()).dump_compact_string();
  return metrics_from_json(api::JsonValue::parse(wire));
}

TEST(MetricsMerge, SplitRegistriesMergeToTheOneRegistryBytes) {
  // Every sample lands in `all` and in one of the two halves; names
  // only one half knows must survive the merge too.
  MetricsRegistry all;
  MetricsRegistry halves[2];
  const auto count = [&](int half, const std::string& name, int delta) {
    all.counter(name).increment(delta);
    halves[half].counter(name).increment(delta);
  };
  const auto level = [&](int half, const std::string& name, int value) {
    all.gauge(name).add(value);
    halves[half].gauge(name).add(value);
  };
  const auto sample = [&](int half, const std::string& name,
                          std::int64_t value) {
    all.histogram(name).record(value);
    halves[half].histogram(name).record(value);
  };
  count(0, "jobs", 3);
  count(1, "jobs", 4);
  count(1, "only.second", 9);
  level(0, "depth", 2);
  level(1, "depth", -5);
  for (std::int64_t v = 0; v < 500; ++v) {
    sample(static_cast<int>(v % 2), "lat_ns", v * v * 37);
    sample(v < 100 ? 0 : 1, "skewed_ns", 1000 + v);
  }
  sample(1, "tail_ns", std::numeric_limits<std::int64_t>::max() / 4);
  (void)halves[0].histogram("empty_ns");
  (void)all.histogram("empty_ns");

  MetricsSnapshot merged = round_trip(halves[0]);
  merged.merge(round_trip(halves[1]));
  const MetricsSnapshot expected = all.snapshot();
  EXPECT_EQ(to_prometheus(merged), to_prometheus(expected));
  EXPECT_EQ(metrics_to_json(merged).dump_string(),
            metrics_to_json(expected).dump_string());
}

TEST(MetricsMerge, SnapshotMergeKeepsNamesSorted) {
  MetricsSnapshot snapshot;
  snapshot.merge({{{"b", 1}, {"a", 2}}, {}, {}});
  snapshot.merge({{{"c", 3}, {"a", 4}}, {{"g", -1}}, {}});
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "a");
  EXPECT_EQ(snapshot.counters[0].value, 6);
  EXPECT_EQ(snapshot.counters[1].name, "b");
  EXPECT_EQ(snapshot.counters[2].name, "c");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -1);
}

TEST(MetricsMerge, TotalsFromOtherProcessesSaturateInsteadOfOverflowing) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  HistogramData huge;
  huge.count = kMax;
  huge.sum = kMax;
  MetricsSnapshot snapshot{{{"c", kMax}}, {{"g", kMin}}, {{"h", huge}}};
  const MetricsSnapshot same = snapshot;
  snapshot.merge(same);
  EXPECT_EQ(snapshot.counters[0].value, kMax);
  EXPECT_EQ(snapshot.gauges[0].value, kMin);
  EXPECT_EQ(snapshot.histograms[0].data.count, kMax);
  EXPECT_EQ(snapshot.histograms[0].data.sum, kMax);
}

/// An ack whose one histogram entry is `entry` (JSON object text).
std::string ack_with_histogram(const std::string& entry) {
  return R"({"op": "metrics", "counters": {"c": 1}, "gauges": {"g": -2},)"
         R"( "histograms": {"h": )" + entry + "}}";
}

TEST(MetricsFromJson, AcceptsAWellFormedAck) {
  const MetricsSnapshot snapshot = metrics_from_json(api::JsonValue::parse(
      ack_with_histogram(R"({"count": 3, "sum": 25, "min": 5, "max": 10,)"
                         R"( "buckets": [[5, 2], [10, 1]]})")));
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramData& data = snapshot.histograms[0].data;
  EXPECT_EQ(data.count, 3);
  EXPECT_EQ(data.buckets.size(), static_cast<std::size_t>(kHistogramBuckets));
  EXPECT_EQ(data.buckets[5], 2u);
  EXPECT_EQ(data.buckets[10], 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -2);
}

TEST(MetricsFromJson, RejectsMalformedAcks) {
  const std::vector<std::string> bad_histograms = {
      // bucket index outside [0, kHistogramBuckets)
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [[488, 1]]})",
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [[-1, 1]]})",
      // negative values
      R"({"count": 1, "sum": -5, "min": 5, "max": 5, "buckets": [[5, 1]]})",
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [[5, -1], [6, 2]]})",
      R"({"count": -1, "sum": 0, "min": 0, "max": 0, "buckets": []})",
      // entries that are not [index, count] pairs
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [[5, 1, 0]]})",
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [[5]]})",
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [5, 1]})",
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": {"5": 1}})",
      // bucket counts that do not add up to count, including sums that
      // would overflow int64
      R"({"count": 2, "sum": 5, "min": 5, "max": 5, "buckets": [[5, 1]]})",
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [[5, 1], [6, 1]]})",
      R"({"count": 2, "sum": 5, "min": 5, "max": 5, "buckets":)"
      R"( [[5, 9223372036854775807], [6, 9223372036854775807]]})",
      // indices not ascending (a repeat would desync buckets and count)
      R"({"count": 2, "sum": 10, "min": 5, "max": 5, "buckets": [[5, 1], [5, 1]]})",
      // missing or non-integer fields
      R"({"count": 1, "sum": 5, "max": 5, "buckets": [[5, 1]]})",
      R"({"count": 1, "sum": 5, "min": 5, "max": 5})",
      R"({"count": 1.5, "sum": 5, "min": 5, "max": 5, "buckets": [[5, 1]]})",
      R"({"count": "1", "sum": 5, "min": 5, "max": 5, "buckets": [[5, 1]]})",
      R"({"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [[5.0, 1]]})",
      R"(7)",
  };
  for (const std::string& entry : bad_histograms)
    EXPECT_THROW(
        (void)metrics_from_json(api::JsonValue::parse(ack_with_histogram(entry))),
        std::runtime_error)
        << entry;

  const std::vector<std::string> bad_acks = {
      R"({"counters": {"c": "7"}, "gauges": {}, "histograms": {}})",
      R"({"counters": {"c": -1}, "gauges": {}, "histograms": {}})",
      R"({"counters": {}, "gauges": {"g": 1.5}, "histograms": {}})",
      R"({"counters": {}, "gauges": {}})",
      R"({"counters": [], "gauges": {}, "histograms": {}})",
      R"({"error": "worker 1 unavailable"})",
  };
  for (const std::string& ack : bad_acks)
    EXPECT_THROW((void)metrics_from_json(api::JsonValue::parse(ack)),
                 std::runtime_error)
        << ack;
}

TEST(Prometheus, SanitizesNamesAndTypesSamples) {
  MetricsRegistry registry;
  registry.counter("serve.jobs_accepted").increment(2);
  registry.gauge("serve.queue_depth").set(1);
  registry.histogram("serve.job_ns").record(1000);
  const std::string text = to_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE serve_jobs_accepted counter"),
            std::string::npos);
  EXPECT_NE(text.find("serve_jobs_accepted 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_job_ns summary"), std::string::npos);
  EXPECT_NE(text.find("serve_job_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("serve_job_ns_count 1"), std::string::npos);
  // No unsanitized '.' may survive in a sample name.
  EXPECT_EQ(text.find("serve."), std::string::npos);
}

}  // namespace
}  // namespace wtam::obs
