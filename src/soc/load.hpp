// One place that answers "give me the SOC called X": the four built-in
// benchmarks by name, anything else as a .soc file path. Previously every
// tool and bench hand-rolled this dispatch.

#pragma once

#include <span>
#include <string>
#include <string_view>

#include "soc/soc.hpp"

namespace wtam::soc {

/// The built-in benchmark names, in the paper's order
/// (d695 p21241 p31108 p93791).
[[nodiscard]] std::span<const std::string_view> builtin_soc_names() noexcept;

/// Returns the built-in SOC when `name_or_path` matches a benchmark name,
/// otherwise loads it as a .soc file. Throws std::runtime_error on I/O or
/// parse failure (same messages as load_soc_file).
[[nodiscard]] Soc load_by_name_or_path(const std::string& name_or_path);

}  // namespace wtam::soc
