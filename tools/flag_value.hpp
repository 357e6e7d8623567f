// Numeric flag values for the command-line tools (wtam_opt, wtam_serve,
// wtam_router): one strict whole-token parse, so a mistyped value is a
// usage error instead of std::atoi's silent 0, a truncated "32x" or an
// out-of-range overflow.

#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace wtam::cli {

/// The value `text` of `flag`, parsed whole as a T (an integer or
/// floating-point type) by std::from_chars: locale-independent, no
/// leading whitespace or '+', no trailing characters, inside T's range.
/// Anything else, the empty string included, calls `usage` with an error
/// naming the flag; each tool's usage() exits 2 and does not return.
template <typename T, typename Usage>
[[nodiscard]] T parse_flag_value(const std::string& flag,
                                 std::string_view text, Usage usage) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    usage(("invalid value '" + std::string(text) + "' for " + flag).c_str());
  return value;
}

}  // namespace wtam::cli
