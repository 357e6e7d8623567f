#include "partition/partition.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace wtam::partition {

namespace {

void check_args(int total, int parts) {
  if (total < 1) throw std::invalid_argument("partition: total must be >= 1");
  if (parts < 1) throw std::invalid_argument("partition: parts must be >= 1");
}

bool visit_recursive(std::vector<int>& prefix, int remaining, int parts_left,
                     const std::function<bool(std::span<const int>)>& visit,
                     std::uint64_t& count) {
  if (parts_left == 1) {
    // Last part is the remainder; non-decreasing order is guaranteed by the
    // upper-bound rule below.
    prefix.push_back(remaining);
    ++count;
    const bool keep_going = visit(prefix);
    prefix.pop_back();
    return keep_going;
  }
  const int lo = prefix.empty() ? 1 : prefix.back();
  const int hi = remaining / parts_left;  // Figure 3, Line 1 upper bound
  for (int w = lo; w <= hi; ++w) {
    prefix.push_back(w);
    const bool keep_going =
        visit_recursive(prefix, remaining - w, parts_left - 1, visit, count);
    prefix.pop_back();
    if (!keep_going) return false;
  }
  return true;
}

}  // namespace

std::uint64_t for_each_partition(
    int total, int parts,
    const std::function<bool(std::span<const int>)>& visit) {
  check_args(total, parts);
  if (parts > total) return 0;
  std::uint64_t count = 0;
  std::vector<int> prefix;
  prefix.reserve(static_cast<std::size_t>(parts));
  visit_recursive(prefix, total, parts, visit, count);
  return count;
}

std::uint64_t count_exact(int total, int parts) {
  check_args(total, parts);
  if (parts > total) return 0;
  // p(n, k) over n in [0, total], k in [0, parts].
  const auto n_max = static_cast<std::size_t>(total);
  const auto k_max = static_cast<std::size_t>(parts);
  std::vector<std::vector<std::uint64_t>> p(
      n_max + 1, std::vector<std::uint64_t>(k_max + 1, 0));
  p[0][0] = 1;
  for (std::size_t n = 1; n <= n_max; ++n) {
    for (std::size_t k = 1; k <= std::min(n, k_max); ++k) {
      // p(n-k, k) is 0 whenever n-k < k, which the table already encodes.
      p[n][k] = p[n - 1][k - 1] + p[n - k][k];
    }
  }
  return p[n_max][k_max];
}

double estimate(int total, int parts) {
  check_args(total, parts);
  double denom = 1.0;
  for (int i = 2; i <= parts; ++i) denom *= i;        // B!
  for (int i = 2; i <= parts - 1; ++i) denom *= i;    // (B-1)!
  double numer = 1.0;
  for (int i = 0; i < parts - 1; ++i) numer *= total;  // W^(B-1)
  return numer / denom;
}

OdometerStats restricted_odometer_stats(int total, int parts) {
  check_args(total, parts);
  OdometerStats stats;
  if (parts > total) return stats;
  std::set<std::vector<int>> seen;

  if (parts == 1) {
    stats.tuples = 1;
    stats.unique = 1;
    return stats;
  }

  // Odometer over w_1..w_{B-1}, all starting at 1; w_B is the remainder.
  // Upper bound (Figure 3, Line 1): w_j <= (W - sum_{k<j} w_k) / (B-j+1).
  const auto body = static_cast<std::size_t>(parts - 1);
  std::vector<int> w(body, 1);
  const auto bound = [&](std::size_t j) {
    int remaining = total;
    for (std::size_t k = 0; k < j; ++k) remaining -= w[k];
    return remaining / (parts - static_cast<int>(j));
  };

  for (;;) {
    // Emit the current tuple.
    std::vector<int> tuple(w.begin(), w.end());
    int last = total;
    for (const int v : w) last -= v;
    tuple.push_back(last);
    ++stats.tuples;
    std::sort(tuple.begin(), tuple.end());
    seen.insert(std::move(tuple));

    // Advance: increment the deepest variable with headroom, resetting all
    // deeper ones to 1 (the reset is always within bounds; see Figure 3).
    bool advanced = false;
    for (std::size_t j = body; j-- > 0;) {
      if (w[j] < bound(j)) {
        ++w[j];
        for (std::size_t k = j + 1; k < body; ++k) w[k] = 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  stats.unique = seen.size();
  stats.duplicates = stats.tuples - stats.unique;
  return stats;
}

ComparisonStats comparison_filter_stats(int total, int parts) {
  check_args(total, parts);
  ComparisonStats stats;
  if (parts > total) return stats;
  std::set<std::vector<int>> seen;

  // Enumerate all compositions (each part >= 1, ordered) recursively.
  std::vector<int> tuple(static_cast<std::size_t>(parts), 0);
  const std::function<void(int, int)> rec = [&](int idx, int remaining) {
    if (idx == parts - 1) {
      tuple[static_cast<std::size_t>(idx)] = remaining;
      ++stats.compositions;
      std::vector<int> key = tuple;
      std::sort(key.begin(), key.end());
      seen.insert(std::move(key));
      return;
    }
    const int keep_for_rest = parts - idx - 1;
    for (int v = 1; v <= remaining - keep_for_rest; ++v) {
      tuple[static_cast<std::size_t>(idx)] = v;
      rec(idx + 1, remaining - v);
    }
  };
  rec(0, total);

  stats.unique = seen.size();
  // Approximate footprint: each stored partition holds `parts` ints plus
  // typical std::set node overhead (3 pointers + color + allocator slack).
  stats.stored_bytes =
      stats.unique *
      (static_cast<std::uint64_t>(parts) * sizeof(int) + 48);
  return stats;
}

}  // namespace wtam::partition
