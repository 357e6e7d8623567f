#include "api/cache_store.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace wtam::api {

namespace {

constexpr std::string_view kMagic = "WTAMCACHE1\n";

// --- primitive writers (little-endian, byte-explicit) --------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

// --- primitive readers ----------------------------------------------------

/// Cursor over a payload; every read checks bounds and throws on
/// truncation so a corrupt record can never read out of range.
struct Reader {
  std::string_view data;
  std::size_t at = 0;

  [[nodiscard]] bool done() const noexcept { return at == data.size(); }

  void need(std::size_t n) const {
    if (data.size() - at < n)
      throw std::runtime_error("cache record truncated");
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[at + static_cast<std::size_t>(i)]))
           << (8 * i);
    at += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data[at + static_cast<std::size_t>(i)]))
           << (8 * i);
    at += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(static_cast<unsigned char>(data[at++]));
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(data.substr(at, n));
    at += n;
    return s;
  }
};

std::uint64_t record_checksum(std::string_view key, std::string_view payload) {
  std::string mix;
  mix.reserve(key.size() + payload.size());
  mix.append(key);
  mix.append(payload);
  return common::stable_hash_128(mix).word();
}

/// Double bits round-trip exactly — cpu_s must survive unchanged so a
/// load-then-save reproduces the file byte for byte.
std::uint64_t double_bits(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::string encode_cached_solve(const CachedSolve& value) {
  std::string out;
  put_i64(out, value.lower_bound);
  out.push_back(value.schedule_valid ? '\1' : '\0');

  const core::BackendOutcome& outcome = value.outcome;
  put_string(out, outcome.backend);
  put_i64(out, outcome.testing_time);
  put_u64(out, double_bits(outcome.cpu_s));
  out.push_back(static_cast<char>(outcome.interrupt));

  const pack::PackedSchedule& schedule = outcome.schedule;
  put_i32(out, schedule.total_width);
  put_i64(out, schedule.makespan);
  put_u32(out, static_cast<std::uint32_t>(schedule.placements.size()));
  for (const pack::PackedPlacement& p : schedule.placements) {
    put_i32(out, p.core);
    put_i32(out, p.width);
    put_i32(out, p.wire);
    put_i64(out, p.start);
    put_i64(out, p.end);
  }

  out.push_back(outcome.architecture.has_value() ? '\1' : '\0');
  if (outcome.architecture.has_value()) {
    const core::TamArchitecture& arch = *outcome.architecture;
    put_u32(out, static_cast<std::uint32_t>(arch.widths.size()));
    for (const int w : arch.widths) put_i32(out, w);
    put_u32(out, static_cast<std::uint32_t>(arch.assignment.size()));
    for (const int a : arch.assignment) put_i32(out, a);
    put_u32(out, static_cast<std::uint32_t>(arch.tam_times.size()));
    for (const std::int64_t t : arch.tam_times) put_i64(out, t);
    put_i64(out, arch.testing_time);
  }

  put_u32(out, static_cast<std::uint32_t>(outcome.details.size()));
  for (const auto& [key, detail] : outcome.details) {
    put_string(out, key);
    put_string(out, detail);
  }
  return out;
}

CachedSolve decode_cached_solve(std::string_view payload) {
  Reader in{payload};
  CachedSolve value;
  value.lower_bound = in.i64();
  value.schedule_valid = in.u8() != 0;

  core::BackendOutcome& outcome = value.outcome;
  outcome.backend = in.str();
  outcome.testing_time = in.i64();
  outcome.cpu_s = bits_double(in.u64());
  const std::uint8_t interrupt = in.u8();
  if (interrupt > static_cast<std::uint8_t>(core::SolveInterrupt::DeadlineExceeded))
    throw std::runtime_error("cache record: bad interrupt value");
  outcome.interrupt = static_cast<core::SolveInterrupt>(interrupt);

  pack::PackedSchedule& schedule = outcome.schedule;
  schedule.total_width = in.i32();
  schedule.makespan = in.i64();
  const std::uint32_t placements = in.u32();
  // Each placement is 28 bytes on the wire; an impossible count means a
  // corrupt length, not a huge schedule.
  if (static_cast<std::size_t>(placements) * 28 > payload.size())
    throw std::runtime_error("cache record: impossible placement count");
  std::vector<pack::PackedPlacement> placed;
  placed.reserve(placements);
  for (std::uint32_t i = 0; i < placements; ++i) {
    pack::PackedPlacement p;
    p.core = in.i32();
    p.width = in.i32();
    p.wire = in.i32();
    p.start = in.i64();
    p.end = in.i64();
    placed.push_back(p);
  }
  schedule.placements = pack::PlacementList(std::move(placed));

  if (in.u8() != 0) {
    core::TamArchitecture arch;
    const std::uint32_t widths = in.u32();
    if (static_cast<std::size_t>(widths) * 4 > payload.size())
      throw std::runtime_error("cache record: impossible width count");
    arch.widths.reserve(widths);
    for (std::uint32_t i = 0; i < widths; ++i) arch.widths.push_back(in.i32());
    const std::uint32_t assignment = in.u32();
    if (static_cast<std::size_t>(assignment) * 4 > payload.size())
      throw std::runtime_error("cache record: impossible assignment count");
    arch.assignment.reserve(assignment);
    for (std::uint32_t i = 0; i < assignment; ++i)
      arch.assignment.push_back(in.i32());
    const std::uint32_t tam_times = in.u32();
    if (static_cast<std::size_t>(tam_times) * 8 > payload.size())
      throw std::runtime_error("cache record: impossible tam_time count");
    arch.tam_times.reserve(tam_times);
    for (std::uint32_t i = 0; i < tam_times; ++i)
      arch.tam_times.push_back(in.i64());
    arch.testing_time = in.i64();
    outcome.architecture = std::move(arch);
  }

  const std::uint32_t details = in.u32();
  if (static_cast<std::size_t>(details) * 8 > payload.size())
    throw std::runtime_error("cache record: impossible detail count");
  outcome.details.reserve(details);
  for (std::uint32_t i = 0; i < details; ++i) {
    std::string key = in.str();
    std::string detail = in.str();
    outcome.details.emplace_back(std::move(key), std::move(detail));
  }

  if (!in.done())
    throw std::runtime_error("cache record: trailing bytes after payload");
  return value;
}

CacheSaveStats save_cache_file(const ResultCache& cache,
                               const std::string& path) {
  std::string blob(kMagic);
  const auto entries = cache.export_entries();
  for (const auto& [key, value] : entries) {
    const std::string key_text = key.to_string();
    const std::string payload = encode_cached_solve(value);
    put_u32(blob, static_cast<std::uint32_t>(key_text.size()));
    blob += key_text;
    put_u32(blob, static_cast<std::uint32_t>(payload.size()));
    blob += payload;
    put_u64(blob, record_checksum(key_text, payload));
  }

  // tmp + rename: a reader at `path` sees the old snapshot or the new
  // one, never a half-written file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cache save: cannot open " + tmp);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) throw std::runtime_error("cache save: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    throw std::runtime_error("cache save: cannot rename " + tmp + " to " +
                             path);
  }

  CacheSaveStats stats;
  stats.entries = entries.size();
  stats.bytes = blob.size();
  return stats;
}

CacheLoadStats load_cache_file(ResultCache& cache, const std::string& path) {
  CacheLoadStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // fresh boot: nothing to warm from
  stats.found = true;

  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (blob.size() < kMagic.size() ||
      std::string_view(blob).substr(0, kMagic.size()) != kMagic)
    throw std::runtime_error("cache load: " + path +
                             " is not a WTAMCACHE1 snapshot "
                             "(version mismatch or foreign file)");

  Reader reader{std::string_view(blob).substr(kMagic.size())};
  while (!reader.done()) {
    // Any framing failure from here on is a torn tail: keep what loaded
    // cleanly and stop. (Lengths are only trusted after the checksum.)
    std::string key_text;
    std::string payload;
    std::uint64_t checksum = 0;
    const std::size_t record_start = reader.at;
    try {
      key_text = reader.str();
      payload = reader.str();
      checksum = reader.u64();
    } catch (const std::runtime_error&) {
      reader.at = record_start;
      stats.clean_tail = false;
      break;
    }
    if (record_checksum(key_text, payload) != checksum) {
      stats.clean_tail = false;
      break;
    }
    // Checksum-clean record: framing is sound, so a decode failure is a
    // content problem (skew inside one record) — skip it and continue.
    try {
      const RequestKey key = RequestKey::parse(key_text);
      cache.insert(key, decode_cached_solve(payload));
      ++stats.entries_loaded;
    } catch (const std::exception&) {
      ++stats.entries_rejected;
    }
  }
  return stats;
}

}  // namespace wtam::api
