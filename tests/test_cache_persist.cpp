// Cache persistence contract: exact payload codec, atomic save, warm
// boot (a reloaded cache serves a repeat sweep entirely from hits, byte
// for byte), version-strict headers, and torn-tail salvage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/cache_store.hpp"
#include "api/job_io.hpp"
#include "api/result_cache.hpp"
#include "api/solver.hpp"
#include "common/hash.hpp"

namespace wtam::api {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "wtam_cache_persist_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

/// A fully-populated solve (schedule, architecture, details) so the
/// codec round-trip exercises every field.
CachedSolve full_solve(int seed) {
  CachedSolve solve;
  solve.lower_bound = 1000 + seed;
  solve.schedule_valid = (seed % 2) == 0;
  solve.outcome.backend = "enumerative";
  solve.outcome.testing_time = 40000 + seed * 7;
  solve.outcome.cpu_s = 0.25 + seed * 0.125;
  solve.outcome.interrupt = core::SolveInterrupt::None;
  solve.outcome.schedule.total_width = 32;
  solve.outcome.schedule.makespan = 40000 + seed * 7;
  std::vector<pack::PackedPlacement> placements;
  for (int i = 0; i < 3 + seed % 3; ++i)
    placements.push_back({i, 8, i * 8, i * 100, i * 100 + 900 + seed});
  solve.outcome.schedule.placements =
      pack::PlacementList(std::move(placements));
  core::TamArchitecture arch;
  arch.widths = {16, 8, 8};
  arch.assignment = {0, 1, 2, 0, 1};
  arch.tam_times = {30000, 20000 + seed, 10000};
  arch.testing_time = 40000 + seed * 7;
  solve.outcome.architecture = arch;
  solve.outcome.details.emplace_back("tams", "3");
  solve.outcome.details.emplace_back("note", "seed=" + std::to_string(seed));
  return solve;
}

RequestKey key_of(int width) {
  RequestKey key;
  key.soc_hash = common::stable_hash_128("persist-test-soc");
  key.width = width;
  key.backend = "enumerative";
  key.options = "max_tams=10,min_tams=1,run_final_step=1";
  return key;
}

TEST(CacheStore, PayloadCodecRoundTripsEveryField) {
  for (int seed = 0; seed < 4; ++seed) {
    const CachedSolve original = full_solve(seed);
    const std::string payload = encode_cached_solve(original);
    const CachedSolve decoded = decode_cached_solve(payload);

    EXPECT_EQ(decoded.lower_bound, original.lower_bound);
    EXPECT_EQ(decoded.schedule_valid, original.schedule_valid);
    EXPECT_EQ(decoded.outcome.backend, original.outcome.backend);
    EXPECT_EQ(decoded.outcome.testing_time, original.outcome.testing_time);
    EXPECT_EQ(decoded.outcome.cpu_s, original.outcome.cpu_s);
    EXPECT_EQ(decoded.outcome.interrupt, original.outcome.interrupt);
    EXPECT_EQ(decoded.outcome.schedule.total_width,
              original.outcome.schedule.total_width);
    EXPECT_EQ(decoded.outcome.schedule.makespan,
              original.outcome.schedule.makespan);
    ASSERT_EQ(decoded.outcome.schedule.placements.size(),
              original.outcome.schedule.placements.size());
    for (std::size_t i = 0; i < decoded.outcome.schedule.placements.size();
         ++i) {
      const auto& a = decoded.outcome.schedule.placements[i];
      const auto& b = original.outcome.schedule.placements[i];
      EXPECT_EQ(a.core, b.core);
      EXPECT_EQ(a.width, b.width);
      EXPECT_EQ(a.wire, b.wire);
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.end, b.end);
    }
    ASSERT_TRUE(decoded.outcome.architecture.has_value());
    EXPECT_EQ(decoded.outcome.architecture->widths,
              original.outcome.architecture->widths);
    EXPECT_EQ(decoded.outcome.architecture->assignment,
              original.outcome.architecture->assignment);
    EXPECT_EQ(decoded.outcome.architecture->tam_times,
              original.outcome.architecture->tam_times);
    EXPECT_EQ(decoded.outcome.architecture->testing_time,
              original.outcome.architecture->testing_time);
    EXPECT_EQ(decoded.outcome.details, original.outcome.details);

    // Exact codec: re-encoding reproduces the payload byte for byte.
    EXPECT_EQ(encode_cached_solve(decoded), payload);
  }
}

TEST(CacheStore, PayloadDecoderRejectsCorruptBytes) {
  CachedSolve no_arch = full_solve(1);
  no_arch.outcome.architecture.reset();
  for (const CachedSolve& solve : {full_solve(0), no_arch}) {
    const std::string payload = encode_cached_solve(solve);
    // Truncation at any prefix must throw, never read out of range.
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
      EXPECT_THROW((void)decode_cached_solve(payload.substr(0, cut)),
                   std::runtime_error)
          << "cut at " << cut;
    // Trailing garbage is a malformed record, not silently ignored.
    EXPECT_THROW((void)decode_cached_solve(payload + "x"), std::runtime_error);
  }
}

TEST(CacheStore, SaveLoadSaveIsByteIdentical) {
  ResultCache cache;
  for (int w = 8; w < 24; ++w) cache.insert(key_of(w), full_solve(w));

  const std::string first_path = temp_path("first.snapshot");
  const CacheSaveStats saved = save_cache_file(cache, first_path);
  EXPECT_EQ(saved.entries, 16u);
  EXPECT_EQ(saved.bytes, read_file(first_path).size());

  ResultCache reloaded;
  const CacheLoadStats loaded = load_cache_file(reloaded, first_path);
  EXPECT_TRUE(loaded.found);
  EXPECT_TRUE(loaded.clean_tail);
  EXPECT_EQ(loaded.entries_loaded, 16u);
  EXPECT_EQ(loaded.entries_rejected, 0u);

  const std::string second_path = temp_path("second.snapshot");
  (void)save_cache_file(reloaded, second_path);
  EXPECT_EQ(read_file(first_path), read_file(second_path));
}

TEST(CacheStore, MissingFileIsAFreshBoot) {
  ResultCache cache;
  const CacheLoadStats stats =
      load_cache_file(cache, temp_path("never-written.snapshot"));
  EXPECT_FALSE(stats.found);
  EXPECT_EQ(stats.entries_loaded, 0u);
  EXPECT_TRUE(stats.clean_tail);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CacheStore, ForeignOrFutureVersionHeaderThrows) {
  const std::string path = temp_path("foreign.snapshot");
  ResultCache cache;
  const std::vector<std::string> foreign = {
      "WTAMCACHE9\nrecords-from-the-future", "{\"not\": \"a cache\"}",
      "short"};
  for (const std::string& bytes : foreign) {
    write_file(path, bytes);
    EXPECT_THROW((void)load_cache_file(cache, path), std::runtime_error)
        << "accepted header of: " << bytes;
  }
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CacheStore, TornTailsSalvageTheValidPrefix) {
  ResultCache cache;
  constexpr int kEntries = 5;
  for (int w = 1; w <= kEntries; ++w) cache.insert(key_of(w), full_solve(w));
  const std::string path = temp_path("torn.snapshot");
  (void)save_cache_file(cache, path);
  const std::string blob = read_file(path);

  // Recover the record boundaries by walking the framing: after the
  // 11-byte magic, each record is [u32 klen][key][u32 plen][payload][u64].
  const auto u32_at = [&blob](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(blob[at + static_cast<std::size_t>(i)]))
           << (8 * i);
    return v;
  };
  std::vector<std::size_t> boundaries{11};  // end of magic = record 0 start
  while (boundaries.back() < blob.size()) {
    std::size_t at = boundaries.back();
    const std::uint32_t klen = u32_at(at);
    at += 4 + klen;
    const std::uint32_t plen = u32_at(at);
    at += 4 + plen + 8;
    boundaries.push_back(at);
  }
  ASSERT_EQ(boundaries.size(), static_cast<std::size_t>(kEntries) + 1);
  ASSERT_EQ(boundaries.back(), blob.size());

  const std::string torn_path = temp_path("torn-cut.snapshot");
  for (std::size_t record = 0; record < boundaries.size(); ++record) {
    const std::size_t boundary = boundaries[record];
    // Cut exactly at the boundary (clean), and a few bytes either side
    // (torn): the loader must salvage every record before the cut.
    for (const std::ptrdiff_t delta : {-3, -1, 0, +1, +3}) {
      const std::ptrdiff_t position =
          static_cast<std::ptrdiff_t>(boundary) + delta;
      if (position < 11 ||
          position > static_cast<std::ptrdiff_t>(blob.size()))
        continue;
      const auto cut = static_cast<std::size_t>(position);
      write_file(torn_path, blob.substr(0, cut));

      ResultCache salvage;
      const CacheLoadStats stats = load_cache_file(salvage, torn_path);
      EXPECT_TRUE(stats.found);
      // Every record that ends at or before the cut survives; anything
      // after is the (possibly empty) torn tail.
      std::size_t complete = 0;
      for (std::size_t k = 1; k < boundaries.size(); ++k)
        if (boundaries[k] <= cut) ++complete;
      const bool on_boundary =
          std::find(boundaries.begin(), boundaries.end(), cut) !=
          boundaries.end();
      EXPECT_EQ(stats.entries_loaded, complete)
          << "cut at " << cut << " (boundary " << boundary << " delta "
          << delta << ")";
      EXPECT_EQ(stats.entries_rejected, 0u);
      EXPECT_EQ(stats.clean_tail, on_boundary) << "cut at " << cut;
      EXPECT_EQ(salvage.stats().entries, complete);
    }
  }
}

TEST(CacheStore, ChecksumCleanButUndecodableRecordIsSkipped) {
  // Hand-build a snapshot: good record, checksummed-garbage record,
  // good record. The middle one must be rejected without poisoning the
  // rest of the file (its framing is intact).
  const auto put_u32 = [](std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  const auto put_u64 = [](std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  const auto append_record = [&](std::string& out, const std::string& key,
                                 const std::string& payload) {
    put_u32(out, static_cast<std::uint32_t>(key.size()));
    out += key;
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    out += payload;
    put_u64(out, common::stable_hash_128(key + payload).word());
  };

  std::string blob = "WTAMCACHE1\n";
  append_record(blob, key_of(1).to_string(),
                encode_cached_solve(full_solve(1)));
  append_record(blob, key_of(2).to_string(), "garbage-payload");
  append_record(blob, key_of(3).to_string(),
                encode_cached_solve(full_solve(3)));

  const std::string path = temp_path("skew.snapshot");
  write_file(path, blob);
  ResultCache cache;
  const CacheLoadStats stats = load_cache_file(cache, path);
  EXPECT_EQ(stats.entries_loaded, 2u);
  EXPECT_EQ(stats.entries_rejected, 1u);
  EXPECT_TRUE(stats.clean_tail);
  EXPECT_TRUE(cache.lookup({key_of(1)}).has_value());
  EXPECT_FALSE(cache.lookup({key_of(2)}).has_value());
  EXPECT_TRUE(cache.lookup({key_of(3)}).has_value());
}

TEST(CacheStore, WarmBootServesARepeatSweepEntirelyFromHits) {
  // The acceptance scenario in miniature: run a d695 width sweep cold,
  // snapshot the cache, boot a fresh solver from the snapshot, re-run
  // the identical sweep — every width must hit, and the result JSON
  // must be byte-identical to the cold run.
  SolveRequest sweep;
  sweep.id = "warm-boot";
  sweep.soc = "d695";
  sweep.width = 10;
  sweep.width_max = 23;  // 14 widths
  sweep.backend = "rectpack";
  sweep.options.rectpack.local_search_iterations = 8;  // keep the test fast

  ResultsWriteOptions json_options;  // no timing: byte-stable output

  const auto cold_cache = std::make_shared<ResultCache>();
  std::string cold_json;
  {
    const Solver solver(SolverOptions::with_threads(1, cold_cache));
    const SolveResult cold = solver.solve(sweep);
    ASSERT_EQ(cold.status, Status::Ok);
    EXPECT_EQ(cold.cache, CacheOutcome::Miss);
    cold_json = result_to_json(cold, json_options).dump_compact_string();
  }
  const ResultCacheStats cold_stats = cold_cache->stats();
  EXPECT_EQ(cold_stats.insertions, 14u);

  const std::string path = temp_path("warm-boot.snapshot");
  const CacheSaveStats saved = save_cache_file(*cold_cache, path);
  EXPECT_EQ(saved.entries, 14u);

  const auto warm_cache = std::make_shared<ResultCache>();
  const CacheLoadStats loaded = load_cache_file(*warm_cache, path);
  ASSERT_TRUE(loaded.clean_tail);
  ASSERT_EQ(loaded.entries_loaded, 14u);
  warm_cache->reset_stats();  // count only the warm sweep below

  const Solver warm_solver(SolverOptions::with_threads(1, warm_cache));
  const SolveResult warm = warm_solver.solve(sweep);
  ASSERT_EQ(warm.status, Status::Ok);
  EXPECT_EQ(warm.cache, CacheOutcome::Hit);
  EXPECT_EQ(result_to_json(warm, json_options).dump_compact_string(),
            cold_json);

  const ResultCacheStats warm_stats = warm_cache->stats();
  EXPECT_EQ(warm_stats.hits, 14u);
  EXPECT_EQ(warm_stats.misses, 0u);
  EXPECT_EQ(warm_stats.insertions, 0u);  // reset after load; no new solves
  EXPECT_EQ(warm_stats.entries, 14u);
}

}  // namespace
}  // namespace wtam::api
