// Integer-partition enumeration and counting (paper §3.1).
//
// A "TAM width partition" is a partition of the total width W into exactly
// B positive parts; TAMs are interchangeable, so two partitions that differ
// only in order are the same design. The paper's Increment procedure
// (Figure 3) enumerates width tuples with an upper-bound rule
//     w_j <= floor((W - sum_{k<j} w_k) / (B - j + 1))
// that suppresses most (not all) duplicate orderings. We provide:
//   * for_each_partition — the exact, duplicate-free enumeration
//     (non-decreasing parts; the same upper-bound rule plus the
//     lower bound w_j >= w_{j-1}), used by Partition_evaluate;
//   * count_exact — p(W, B) by dynamic programming;
//   * estimate — the asymptotic count W^(B-1) / (B! (B-1)!) from partition
//     theory [10], the quantity tabulated in the paper's Table 1;
//   * restricted_odometer_stats — a faithful model of the paper's odometer
//     (lower bounds all 1), quantifying the duplicates its rule leaves in;
//   * comparison_filter_stats — the "enumeration-comparison" strawman the
//     paper rejects (hash-set dedup of all compositions) with its memory
//     footprint, reproducing the §3.1 scalability argument.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace wtam::partition {

/// Visits every partition of `total` into exactly `parts` positive,
/// non-decreasing parts. The callback may return false to stop early.
/// Returns the number of partitions visited. Throws std::invalid_argument
/// for non-positive arguments.
std::uint64_t for_each_partition(
    int total, int parts, const std::function<bool(std::span<const int>)>& visit);

/// p(total, parts): number of partitions of `total` into exactly `parts`
/// positive parts. p(n, k) = p(n-1, k-1) + p(n-k, k).
[[nodiscard]] std::uint64_t count_exact(int total, int parts);

/// Asymptotic estimate P(W, B) ~ W^(B-1) / (B! * (B-1)!) for W >> B [10].
[[nodiscard]] double estimate(int total, int parts);

/// Statistics of the paper-style restricted odometer (Figure 3, Line 1
/// upper bound only; every loop variable restarts at 1).
struct OdometerStats {
  std::uint64_t tuples = 0;      ///< width tuples emitted
  std::uint64_t unique = 0;      ///< distinct multisets among them
  std::uint64_t duplicates = 0;  ///< tuples - unique
};
[[nodiscard]] OdometerStats restricted_odometer_stats(int total, int parts);

/// Statistics of the rejected "enumeration-comparison" method: enumerate
/// all compositions (ordered tuples, no bound rule) and filter duplicates
/// through a set of previously seen partitions.
struct ComparisonStats {
  std::uint64_t compositions = 0;  ///< ordered tuples generated
  std::uint64_t unique = 0;        ///< partitions surviving the filter
  std::uint64_t stored_bytes = 0;  ///< approximate memory held by the filter
};
[[nodiscard]] ComparisonStats comparison_filter_stats(int total, int parts);

}  // namespace wtam::partition
