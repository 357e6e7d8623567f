#include "core/test_time_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "wrapper/wrapper.hpp"

namespace wtam::core {

TestTimeTable::TestTimeTable(const soc::Soc& soc, int max_width)
    : core_count_(soc.core_count()), max_width_(max_width) {
  if (max_width < 1)
    throw std::invalid_argument("TestTimeTable: max_width must be >= 1");
  soc.validate();

  const auto columns = static_cast<std::size_t>(max_width);
  times_.resize(static_cast<std::size_t>(core_count_) * columns);
  for (std::size_t i = 0; i < soc.cores.size(); ++i) {
    const auto& core = soc.cores[i];
    const std::int64_t floor_time = soc::min_test_time_bound(core);
    wrapper::WrapperTimer timer(core);
    std::int64_t best = -1;
    for (int w = 1; w <= max_width; ++w) {
      if (best < 0 || best > floor_time) {
        const std::int64_t raw = timer.test_time(w);
        if (best < 0 || raw < best) best = raw;
      }
      times_[i * columns + static_cast<std::size_t>(w - 1)] = best;
    }
  }
}

TestTimeTable::TestTimeTable(const std::vector<int>& widths,
                             const std::vector<std::vector<std::int64_t>>& rows)
    : core_count_(static_cast<int>(rows.size())) {
  if (widths.empty()) throw std::invalid_argument("TestTimeTable: no widths");
  if (rows.empty()) throw std::invalid_argument("TestTimeTable: no cores");
  for (const int w : widths) {
    if (w < 1) throw std::invalid_argument("TestTimeTable: width must be >= 1");
    max_width_ = std::max(max_width_, w);
  }
  const auto columns = static_cast<std::size_t>(max_width_);
  times_.assign(rows.size() * columns, -1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != widths.size())
      throw std::invalid_argument("TestTimeTable: row size mismatch");
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::size_t at =
          i * columns + static_cast<std::size_t>(widths[c] - 1);
      if (times_[at] >= 0)
        throw std::invalid_argument("TestTimeTable: duplicate width");
      if (rows[i][c] < 0)
        throw std::invalid_argument("TestTimeTable: time must be >= 0");
      times_[at] = rows[i][c];
    }
  }
}

std::size_t TestTimeTable::cell(int core, int width) const {
  if (core < 0 || core >= core_count_)
    throw std::out_of_range("TestTimeTable: core index");
  if (width < 1 || width > max_width_)
    throw std::out_of_range("TestTimeTable: width");
  const std::size_t at =
      static_cast<std::size_t>(core) * static_cast<std::size_t>(max_width_) +
      static_cast<std::size_t>(width - 1);
  if (times_[at] < 0)
    throw std::out_of_range("TestTimeTable: no time at this width");
  return at;
}

std::int64_t TestTimeTable::time(int core, int width) const {
  return times_[cell(core, width)];
}

std::int64_t TestTimeTable::total_time(int width) const {
  std::int64_t total = 0;
  for (int i = 0; i < core_count(); ++i) total += time(i, width);
  return total;
}

void TestTimeTable::require_widths(std::span<const int> widths,
                                   const char* who) const {
  if (widths.empty())
    throw std::invalid_argument(std::string(who) + ": need at least one TAM");
  for (const int w : widths)
    if (w < 1 || w > max_width_ || times_[static_cast<std::size_t>(w - 1)] < 0)
      throw std::invalid_argument(std::string(who) +
                                  ": TAM width outside table range");
}

}  // namespace wtam::core
