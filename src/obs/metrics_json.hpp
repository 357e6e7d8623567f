// JSON rendering and reading of a MetricsSnapshot — kept out of
// obs/metrics.hpp so the metrics core depends only on common/ while the
// document model (api::JsonValue, a leaf header) stays a wire concern.

#pragma once

#include "api/json_value.hpp"
#include "obs/metrics.hpp"

namespace wtam::obs {

/// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
/// sum, min, max, mean, p50, p90, p95, p99, buckets}}} — names in sorted
/// order (snapshot order), so equal snapshots dump byte-identically.
/// `buckets` lists each non-empty bucket as an [index, count] pair in
/// ascending index order: the part of the histogram that merges.
[[nodiscard]] api::JsonValue metrics_to_json(const MetricsSnapshot& snapshot);

/// Reads metrics_to_json's sections back from a document (other
/// members, such as a metrics ack's "op", are ignored). Strict — throws
/// std::runtime_error on a missing section, a missing or non-integer
/// field, a negative counter or histogram value, a bucket entry that is
/// not an [index, count] pair with index in [0, kHistogramBuckets) and
/// ascending, or bucket counts that do not add up to `count`. The
/// derived mean/p* fields are not read; they are recomputed on render.
[[nodiscard]] MetricsSnapshot metrics_from_json(const api::JsonValue& json);

/// The `metrics` verb's ack, shared by wtam_serve and the router:
/// {"op": "metrics", <metrics_to_json sections>}, or with `prometheus`
/// {"op": "metrics", "format": "prometheus", "body": <to_prometheus>}.
[[nodiscard]] api::JsonValue metrics_response(const MetricsSnapshot& snapshot,
                                              bool prometheus);

}  // namespace wtam::obs
