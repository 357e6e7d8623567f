// The one store of core testing times T_i(w).
//
// Every optimization algorithm in the paper consults T_i(w) — the testing
// time of core i wrapped at TAM width w — thousands of times: Core_assign
// (Figure 1), Partition_evaluate (Figure 3), the exact P_AW step (§3.2)
// and the rectangle model all read this table. Built from an SOC, it
// precomputes the *effective* (monotone-envelope) testing time for every
// core at every width 1..max_width: a TAM may always leave wires idle, so
// T_i(w) = min over w' <= w of the raw Design_wrapper time.
//
// Times are stored flat and core-major, so row(i) is core i's whole
// staircase and the engines read it without a call per cell. A table can
// also be given by hand (the Figure-2 worked example, tests): a width it
// does not give is a negative cell, and time() throws for it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "soc/soc.hpp"

namespace wtam::core {

class TestTimeTable {
 public:
  /// Precomputes testing times for all cores at widths 1..max_width.
  /// Throws std::invalid_argument for max_width < 1 or an empty SOC.
  TestTimeTable(const soc::Soc& soc, int max_width);

  /// Hand-given times: `rows[i][c]` is core i's testing time at width
  /// `widths[c]`. Other widths have no time.
  /// Throws std::invalid_argument for no widths or cores, a width < 1, a
  /// duplicate width, a row of the wrong size or a negative time.
  TestTimeTable(const std::vector<int>& widths,
                const std::vector<std::vector<std::int64_t>>& rows);

  [[nodiscard]] int core_count() const noexcept { return core_count_; }
  [[nodiscard]] int max_width() const noexcept { return max_width_; }

  /// Effective testing time of core `core` on a TAM of `width` wires.
  /// Throws std::out_of_range for a bad core, or a width the table has no
  /// time for.
  [[nodiscard]] std::int64_t time(int core, int width) const;

  /// Sum over all cores of time(core, width) — total work at a width.
  [[nodiscard]] std::int64_t total_time(int width) const;

  /// Core `core`'s times, unchecked: row(core)[w - 1] is T_core(w) for w
  /// in 1..max_width, negative where the table has no time.
  [[nodiscard]] std::span<const std::int64_t> row(int core) const noexcept {
    return {times_.data() + static_cast<std::size_t>(core) *
                                static_cast<std::size_t>(max_width_),
            static_cast<std::size_t>(max_width_)};
  }

  /// Throws std::invalid_argument, naming `who`, unless `widths` is
  /// non-empty and the table has times at each of them.
  void require_widths(std::span<const int> widths, const char* who) const;

 private:
  /// Flat index of (core, width); throws std::out_of_range as time() does.
  [[nodiscard]] std::size_t cell(int core, int width) const;

  int core_count_ = 0;
  int max_width_ = 0;
  /// times_[core * max_width_ + width - 1]; envelope-monotone
  /// non-increasing per core when built from an SOC.
  std::vector<std::int64_t> times_;
};

}  // namespace wtam::core
