#include "soc/load.hpp"

#include <array>

#include "soc/benchmarks.hpp"
#include "soc/soc_io.hpp"

namespace wtam::soc {

namespace {

/// The single source of truth for the built-in benchmarks: name +
/// factory, in the paper's order. builtin_soc_names() and
/// load_by_name_or_path() both derive from this table, so adding a
/// benchmark here is the whole change.
struct BuiltinSoc {
  std::string_view name;
  Soc (*load)();
};

constexpr std::array<BuiltinSoc, 4> kBuiltins = {{
    {"d695", d695},
    {"p21241", p21241},
    {"p31108", p31108},
    {"p93791", p93791},
}};

}  // namespace

std::span<const std::string_view> builtin_soc_names() noexcept {
  static const auto names = [] {
    std::array<std::string_view, kBuiltins.size()> out{};
    for (std::size_t i = 0; i < kBuiltins.size(); ++i)
      out[i] = kBuiltins[i].name;
    return out;
  }();
  return names;
}

Soc load_by_name_or_path(const std::string& name_or_path) {
  for (const BuiltinSoc& builtin : kBuiltins)
    if (name_or_path == builtin.name) return builtin.load();
  return load_soc_file(name_or_path);
}

}  // namespace wtam::soc
