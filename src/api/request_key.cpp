#include "api/request_key.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "api/solver.hpp"
#include "soc/soc_io.hpp"

namespace wtam::api {

std::uint64_t RequestKey::hash() const noexcept {
  std::uint64_t h = soc_hash.word();
  h = common::mix64(h ^ static_cast<std::uint64_t>(width));
  for (const char c : backend)
    h = common::mix64(h ^ static_cast<unsigned char>(c));
  // One hash over the whole options string (it is already canonical).
  const common::Hash128 opts = common::stable_hash_128(options);
  return common::mix64(h ^ opts.word());
}

std::string RequestKey::to_string() const {
  std::ostringstream out;
  out << "soc:" << soc_hash.hex() << "/w" << width << "/" << backend << "{"
      << options << "}";
  return out.str();
}

RequestKey RequestKey::parse(std::string_view text) {
  const auto fail = [&text](const char* why) {
    throw std::invalid_argument("RequestKey::parse: " + std::string(why) +
                                " in \"" + std::string(text) + "\"");
  };
  constexpr std::string_view kPrefix = "soc:";
  if (!text.starts_with(kPrefix)) fail("missing soc: prefix");
  std::string_view rest = text.substr(kPrefix.size());
  if (rest.size() < 32) fail("truncated soc hash");

  RequestKey key;
  for (int i = 0; i < 32; ++i) {
    const char c = rest[static_cast<std::size_t>(i)];
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9')
      nibble = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    else
      fail("non-hex soc hash digit");
    auto& word = i < 16 ? key.soc_hash.hi : key.soc_hash.lo;
    word = (word << 4) | nibble;
  }
  rest.remove_prefix(32);

  if (!rest.starts_with("/w")) fail("missing /w<width> segment");
  rest.remove_prefix(2);
  std::size_t digits = 0;
  int width = 0;
  while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
    if (width > (std::numeric_limits<int>::max() - 9) / 10)
      fail("width out of range");
    width = width * 10 + (rest[digits] - '0');
    ++digits;
  }
  if (digits == 0) fail("missing width digits");
  key.width = width;
  rest.remove_prefix(digits);

  if (!rest.starts_with('/')) fail("missing /<backend> segment");
  rest.remove_prefix(1);
  // Backend names never contain '{', and canonical options never contain
  // braces, so the first '{' and a final '}' delimit unambiguously.
  const std::size_t brace = rest.find('{');
  if (brace == std::string_view::npos || rest.back() != '}' ||
      brace + 1 > rest.size() - 1)
    fail("missing {options} segment");
  key.backend = std::string(rest.substr(0, brace));
  if (key.backend.empty()) fail("empty backend name");
  key.options = std::string(rest.substr(brace + 1, rest.size() - brace - 2));
  if (key.options.find('{') != std::string::npos ||
      key.options.find('}') != std::string::npos)
    fail("nested braces in options");
  return key;
}

std::string canonical_options(const std::string& backend,
                              const core::BackendOptions& options) {
  // Unknown backends render every field, so distinct options never alias.
  const bool known = backend == "enumerative" || backend == "rectpack";
  const bool tam_fields = backend == "enumerative" || !known;
  const bool rectpack_fields = backend == "rectpack" || !known;
  std::string out;
  const auto field = [&out](std::string_view key, std::string_view value) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  };
  // The fields go out in sorted key order. Constraints change the
  // feasible set for every backend, so their canonical (normalized) form
  // is always part of the identity — the cache must never conflate
  // constrained and unconstrained asks. Empty constraints render
  // nothing, keeping pre-constraint keys stable.
  if (!options.constraints.empty())
    field("constraints", core::canonical_constraints(options.constraints));
  if (tam_fields) {
    field("max_tams", std::to_string(options.max_tams));
    field("min_tams", std::to_string(options.min_tams));
  }
  if (rectpack_fields) {
    field("rectpack_iterations",
          std::to_string(options.rectpack.local_search_iterations));
    field("rectpack_seed", std::to_string(options.rectpack.seed));
  }
  if (tam_fields) field("run_final_step", options.run_final_step ? "1" : "0");
  return out;
}

RequestKey make_request_key(const soc::Soc& soc, int width,
                            const std::string& backend,
                            const core::BackendOptions& options) {
  return make_request_key(common::stable_hash_128(soc::canonical_bytes(soc)),
                          width, backend, options);
}

RequestKey make_request_key(const common::Hash128& soc_hash, int width,
                            const std::string& backend,
                            const core::BackendOptions& options) {
  RequestKey key;
  key.soc_hash = soc_hash;
  key.width = width;
  key.backend = backend;
  key.options = canonical_options(backend, options);
  return key;
}

std::vector<RequestKey> request_keys(const SolveRequest& request) {
  // The Solver's own resolution rule, shared so the canonical key always
  // identifies exactly the SOC that gets solved.
  const common::Hash128 soc_hash = resolve_soc_identity(request).hash;

  const int width_last =
      request.width_max == 0 ? request.width : request.width_max;
  std::vector<RequestKey> keys;
  keys.reserve(static_cast<std::size_t>(width_last - request.width + 1));
  RequestKey base =
      make_request_key(soc_hash, request.width, request.backend,
                       request.options);
  for (int w = request.width; w <= width_last; ++w) {
    base.width = w;
    keys.push_back(base);
  }
  return keys;
}

}  // namespace wtam::api
