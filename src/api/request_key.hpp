// Canonical request identity for the Solver.
//
// A RequestKey is the canonical form of one unit of solve work: the SOC
// lowered to its canonical byte serialization and content-hashed
// (soc::canonical_bytes + common::stable_hash_128), the backend name,
// one width, and the backend options normalized down to exactly the
// fields that backend consumes. Equal work yields equal keys regardless
// of how the request was phrased:
//   * the SOC may arrive as a built-in name, a .soc file path, inline
//     text, or an in-memory value — all four hash the same bytes;
//   * a width sweep expands to one key per width (request_keys);
//   * job metadata that cannot change the result (id, tag, priority) and
//     execution knobs that are contract-bound not to change it
//     (options.threads — every engine is thread-count invariant) are
//     excluded, so "the same point at a different thread count" hits the
//     same cache entry.
// Keys are the identity the ResultCache memoizes on and the unit the
// coalescing layer deduplicates in-flight work by.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "core/backend.hpp"
#include "soc/soc.hpp"

namespace wtam::api {

struct SolveRequest;  // solver.hpp; broken cycle — solver includes us.

struct RequestKey {
  common::Hash128 soc_hash;  ///< stable_hash_128(soc::canonical_bytes(soc))
  int width = 0;
  std::string backend;
  /// Sorted "k=v,k=v" rendering of the options `backend` consumes; other
  /// fields are normalized away (see canonical_options).
  std::string options;

  [[nodiscard]] bool operator==(const RequestKey&) const = default;

  /// Stable bucketing word combining every field (not just the SOC).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  /// Canonical text form, e.g.
  ///   "soc:2f1a.../w32/enumerative{max_tams=10,min_tams=1,run_final_step=1}"
  /// — stable, so it doubles as a log/debug identity.
  [[nodiscard]] std::string to_string() const;

  /// Inverse of to_string(): parses the canonical text form back into a
  /// key (the persistence layer stores keys as text, so a snapshot is
  /// greppable and version-skew shows up as a parse failure rather than
  /// silent misattribution). Throws std::invalid_argument on malformed
  /// text. Round-trip contract: parse(k.to_string()) == k.
  [[nodiscard]] static RequestKey parse(std::string_view text);
};

/// Normalizes `options` for `backend`: only fields the named backend
/// reads are rendered (enumerative: min_tams/max_tams/run_final_step;
/// rectpack: iterations/seed), sorted by key. Unknown backends render
/// every result-relevant field (conservative: distinct options never
/// alias). options.threads is always excluded — results are
/// thread-count invariant by contract. Non-empty schedule constraints
/// are always included in canonical (normalized) form, for every
/// backend: the same point with and without constraints is different
/// work and must never share a cache entry.
[[nodiscard]] std::string canonical_options(const std::string& backend,
                                            const core::BackendOptions& options);

/// Key for one (already resolved) SOC at one width.
[[nodiscard]] RequestKey make_request_key(const soc::Soc& soc, int width,
                                          const std::string& backend,
                                          const core::BackendOptions& options);
/// The same key from the SOC's content hash (SocIdentity::hash), for
/// callers that already have it.
[[nodiscard]] RequestKey make_request_key(const common::Hash128& soc_hash,
                                          int width,
                                          const std::string& backend,
                                          const core::BackendOptions& options);

/// Expands a validated request to its per-width keys (one key for a
/// single-width request, width_max - width + 1 keys for a sweep),
/// resolving the SOC source exactly as the Solver does
/// (resolve_soc_identity, memo included). Throws std::runtime_error on an
/// unreadable/malformed SOC source.
[[nodiscard]] std::vector<RequestKey> request_keys(const SolveRequest& request);

}  // namespace wtam::api
