// Canonical request identity: equal work must yield equal RequestKeys
// however the request was phrased, and distinct work must not alias.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/request_key.hpp"
#include "api/solver.hpp"
#include "common/hash.hpp"
#include "soc/benchmarks.hpp"
#include "soc/load.hpp"
#include "soc/soc_io.hpp"

namespace wtam::api {
namespace {

TEST(Hash128, StableAndWellFormed) {
  // Pinned digests: the content hash is a persistence format (cache keys
  // survive across processes in logs/metrics), so it must never drift.
  EXPECT_EQ(common::stable_hash_128("").hex(),
            "90853e894006730126973c63df706cba");
  EXPECT_EQ(common::stable_hash_128("abc").hex(),
            "d92e428e5577237feff638a2b4a948b7");
  EXPECT_EQ(common::stable_hash_128("abc"), common::stable_hash_128("abc"));
  EXPECT_NE(common::stable_hash_128("abc"), common::stable_hash_128("abd"));
  EXPECT_NE(common::stable_hash_128("a"), common::stable_hash_128("aa"));
  EXPECT_EQ(common::stable_hash_128("abc").hex().size(), 32u);
}

TEST(RequestKey, SameWorkSameKeyAcrossAllSocSources) {
  // The acceptance criterion: built-in name vs file vs inline vs
  // in-memory value all canonicalize to one key.
  const soc::Soc soc = soc::d695();
  const std::string text = soc::canonical_bytes(soc);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "request_key_d695.soc";
  soc::save_soc_file(path.string(), soc);

  SolveRequest by_name;
  by_name.soc = "d695";
  by_name.width = 32;

  SolveRequest by_file = by_name;
  by_file.soc = path.string();

  SolveRequest by_inline = by_name;
  by_inline.soc.clear();
  by_inline.soc_inline = text;

  SolveRequest by_value = by_name;
  by_value.soc.clear();
  by_value.soc_value = soc;

  const RequestKey reference = request_keys(by_name).front();
  EXPECT_EQ(request_keys(by_file).front(), reference);
  EXPECT_EQ(request_keys(by_inline).front(), reference);
  EXPECT_EQ(request_keys(by_value).front(), reference);
  std::remove(path.string().c_str());
}

TEST(RequestKey, ThreadCountIsNormalizedAway) {
  // Engines are thread-count invariant by contract, so the execution
  // knob must not fragment the cache.
  SolveRequest serial;
  serial.soc = "d695";
  serial.width = 32;
  SolveRequest parallel = serial;
  parallel.options.threads = 8;
  EXPECT_EQ(request_keys(serial).front(), request_keys(parallel).front());
}

TEST(RequestKey, OnlyOptionsTheBackendConsumesCount) {
  // max_tams drives the enumerative search but is ignored by rectpack —
  // the canonical options reflect that, so rectpack points at different
  // max_tams coalesce while enumerative points stay distinct.
  SolveRequest request;
  request.soc = "d695";
  request.width = 24;
  request.backend = "rectpack";
  SolveRequest other = request;
  other.options.max_tams = 4;
  EXPECT_EQ(request_keys(request).front(), request_keys(other).front());

  request.backend = "enumerative";
  other.backend = "enumerative";
  EXPECT_NE(request_keys(request).front(), request_keys(other).front());

  // Options rectpack does consume must not alias.
  SolveRequest seeded;
  seeded.soc = "d695";
  seeded.width = 24;
  seeded.backend = "rectpack";
  SolveRequest reseeded = seeded;
  reseeded.options.rectpack.seed = 99;
  EXPECT_NE(request_keys(seeded).front(), request_keys(reseeded).front());
}

TEST(RequestKey, DistinctWorkDistinctKeys) {
  SolveRequest request;
  request.soc = "d695";
  request.width = 24;
  const RequestKey reference = request_keys(request).front();

  SolveRequest wider = request;
  wider.width = 25;
  EXPECT_NE(request_keys(wider).front(), reference);

  SolveRequest other_backend = request;
  other_backend.backend = "rectpack";
  EXPECT_NE(request_keys(other_backend).front(), reference);

  SolveRequest other_soc = request;
  other_soc.soc = "p21241";
  EXPECT_NE(request_keys(other_soc).front(), reference);
  // Different SOCs differ in the content hash specifically.
  EXPECT_NE(request_keys(other_soc).front().soc_hash, reference.soc_hash);
}

TEST(RequestKey, SweepExpandsToPerWidthKeys) {
  SolveRequest sweep;
  sweep.soc = "d695";
  sweep.width = 16;
  sweep.width_max = 20;
  const std::vector<RequestKey> keys = request_keys(sweep);
  ASSERT_EQ(keys.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(keys[static_cast<std::size_t>(i)].width, 16 + i);
    // Every per-width key equals the single-width request's key: a sweep
    // warms the cache for later single-width asks and vice versa.
    SolveRequest single = sweep;
    single.width = 16 + i;
    single.width_max = 0;
    EXPECT_EQ(request_keys(single).front(), keys[static_cast<std::size_t>(i)]);
  }
}

TEST(RequestKey, CanonicalTextFormIsStable) {
  SolveRequest request;
  request.soc = "d695";
  request.width = 32;
  const RequestKey key = request_keys(request).front();
  EXPECT_EQ(key.to_string(),
            "soc:50b7104b26d5c3f4695a8654678f5f94/w32/enumerative"
            "{max_tams=10,min_tams=1,run_final_step=1}");
}

TEST(RequestKey, ConstraintsChangeTheKeyForEveryBackend) {
  // The cache must never conflate constrained and unconstrained asks —
  // same SOC/width/backend, different canonical constraints, different
  // key; identical canonical constraints (any phrasing), identical key.
  for (const char* backend : {"enumerative", "rectpack"}) {
    SolveRequest plain;
    plain.soc = "d695";
    plain.width = 32;
    plain.backend = backend;

    SolveRequest constrained = plain;
    constrained.options.constraints.power.assign(10, 100);
    constrained.options.constraints.power_budget = 250;
    EXPECT_NE(request_keys(constrained).front(),
              request_keys(plain).front())
        << backend;

    SolveRequest tighter = constrained;
    tighter.options.constraints.power_budget = 200;
    EXPECT_NE(request_keys(tighter).front(),
              request_keys(constrained).front())
        << backend;
  }

  // Permuted phrasing normalizes to the same key.
  SolveRequest a;
  a.soc = "d695";
  a.width = 24;
  a.backend = "rectpack";
  a.options.constraints.precedence = {{0, 2}, {1, 2}};
  a.options.constraints.forbidden = {{3, {0, 4}}, {3, {8, 12}}};
  SolveRequest b = a;
  std::reverse(b.options.constraints.precedence.begin(),
               b.options.constraints.precedence.end());
  std::reverse(b.options.constraints.forbidden.begin(),
               b.options.constraints.forbidden.end());
  EXPECT_EQ(request_keys(a).front(), request_keys(b).front());
}

TEST(RequestKey, ConstrainedCanonicalTextFormIsPinned) {
  // Pinned digest: constrained keys are a persistence format exactly like
  // unconstrained ones (acceptance: ISSUE 5).
  SolveRequest request;
  request.soc = "d695";
  request.width = 32;
  request.backend = "rectpack";
  request.options.constraints.power = {10, 10, 10, 10, 10,
                                       10, 10, 10, 10, 10};
  request.options.constraints.power_budget = 25;
  request.options.constraints.precedence = {{0, 9}};
  const RequestKey key = request_keys(request).front();
  EXPECT_EQ(key.to_string(),
            "soc:50b7104b26d5c3f4695a8654678f5f94/w32/rectpack"
            "{constraints=power=10:10:10:10:10:10:10:10:10:10;budget=25;"
            "prec=0>9,rectpack_iterations=2000,rectpack_seed=1}");
  // And the unconstrained form is untouched (pinned in
  // CanonicalTextFormIsStable above) — pre-constraint cache keys survive.
}

TEST(RequestKey, KeyTextAndHashArePinnedForEveryBackendShape) {
  // Snapshots store the key text and the router shards on hash() %
  // workers, so neither may move: the default enumerative key, a
  // constrained and an unconstrained rectpack key, and an unknown
  // backend's key, which renders every field.
  SolveRequest enumerative;
  enumerative.soc = "d695";
  enumerative.width = 32;
  SolveRequest constrained = enumerative;
  constrained.backend = "rectpack";
  constrained.options.constraints.power.assign(10, 10);
  constrained.options.constraints.power_budget = 25;
  constrained.options.constraints.precedence = {{0, 9}};
  SolveRequest rectpack = enumerative;
  rectpack.backend = "rectpack";
  SolveRequest unknown = enumerative;
  unknown.backend = "mystery";
  unknown.options.min_tams = 2;
  unknown.options.max_tams = 7;
  unknown.options.run_final_step = false;
  unknown.options.rectpack.local_search_iterations = 500;
  unknown.options.rectpack.seed = 9;
  unknown.options.constraints.power_budget = 40;
  unknown.options.constraints.precedence = {{1, 3}};

  const struct {
    const SolveRequest& request;
    const char* text;
    std::uint64_t hash;
  } pins[] = {
      {enumerative,
       "soc:50b7104b26d5c3f4695a8654678f5f94/w32/enumerative"
       "{max_tams=10,min_tams=1,run_final_step=1}",
       0x4be173c8eb0a6a27ull},
      {constrained,
       "soc:50b7104b26d5c3f4695a8654678f5f94/w32/rectpack"
       "{constraints=power=10:10:10:10:10:10:10:10:10:10;budget=25;"
       "prec=0>9,rectpack_iterations=2000,rectpack_seed=1}",
       0x4bac9f7de3cc7b4full},
      {rectpack,
       "soc:50b7104b26d5c3f4695a8654678f5f94/w32/rectpack"
       "{rectpack_iterations=2000,rectpack_seed=1}",
       0x9f1dc3c532163b29ull},
      {unknown,
       "soc:50b7104b26d5c3f4695a8654678f5f94/w32/mystery"
       "{constraints=budget=40;prec=1>3,max_tams=7,min_tams=2,"
       "rectpack_iterations=500,rectpack_seed=9,run_final_step=0}",
       0x1ae26ae8bd7358a2ull},
  };
  for (const auto& pin : pins) {
    const RequestKey key = request_keys(pin.request).front();
    EXPECT_EQ(key.to_string(), pin.text);
    EXPECT_EQ(key.hash(), pin.hash) << pin.text;
  }
}

TEST(RequestKey, ParseRoundTripsToString) {
  SolveRequest request;
  request.soc = "d695";
  request.width = 16;
  request.width_max = 48;
  for (const RequestKey& key : request_keys(request)) {
    const RequestKey parsed = RequestKey::parse(key.to_string());
    EXPECT_EQ(parsed, key);
    EXPECT_EQ(parsed.hash(), key.hash());
  }
  // Empty options round-trip too.
  RequestKey bare;
  bare.soc_hash = common::stable_hash_128("x");
  bare.width = 7;
  bare.backend = "rectpack";
  EXPECT_EQ(RequestKey::parse(bare.to_string()), bare);
}

TEST(RequestKey, ParseRejectsMalformedText) {
  const char* bad[] = {
      "",
      "soc:",
      "soc:zz",                                            // non-hex
      "soc:50b7104b26d5c3f4695a8654678f5f94",              // no width
      "soc:50b7104b26d5c3f4695a8654678f5f94/w/x{}",        // empty width
      "soc:50b7104b26d5c3f4695a8654678f5f94/w32",          // no backend
      "soc:50b7104b26d5c3f4695a8654678f5f94/w32/{}",       // empty backend
      "soc:50b7104b26d5c3f4695a8654678f5f94/w32/e{a=1",    // unclosed brace
      "soc:50b7104b26d5c3f4695a8654678f5f94/w32/e{a={b}}", // nested braces
      "bogus:50b7104b26d5c3f4695a8654678f5f94/w32/e{}",
  };
  for (const char* text : bad)
    EXPECT_THROW((void)RequestKey::parse(text), std::invalid_argument)
        << "accepted: " << text;
}

TEST(RequestKey, HashIsUsableForBucketing) {
  SolveRequest request;
  request.soc = "d695";
  request.width = 16;
  request.width_max = 48;
  const std::vector<RequestKey> keys = request_keys(request);
  // Distinct widths must spread across buckets, not collide trivially.
  std::uint64_t distinct = 0;
  for (std::size_t i = 1; i < keys.size(); ++i)
    if (keys[i].hash() != keys[0].hash()) ++distinct;
  EXPECT_EQ(distinct, keys.size() - 1);
}

// ---- the SOC memo (resolve_soc_identity) ---------------------------------

/// The identity resolve_soc_identity must report for `soc`, computed
/// without the memo.
common::Hash128 unmemoized_hash(const soc::Soc& soc) {
  return common::stable_hash_128(soc::canonical_bytes(soc));
}

SolveRequest inline_request(const std::string& text) {
  SolveRequest request;
  request.soc_inline = text;
  request.width = 16;
  return request;
}

/// A small distinct SOC per `n`: the name and one core's data vary.
std::string numbered_soc_text(int n) {
  return "soc memo" + std::to_string(n) + "\ncore a patterns=" +
         std::to_string(n + 1) + " inputs=2 outputs=3 scan=4,5\n" +
         "core b kind=memory patterns=7 inputs=1 outputs=1 scan=\n";
}

TEST(SocMemo, BuiltinsMatchTheUnmemoizedHashAndAreBuiltOnce) {
  for (const std::string_view name : soc::builtin_soc_names()) {
    SolveRequest request;
    request.soc = std::string(name);
    request.width = 16;
    const SocIdentity first = resolve_soc_identity(request);
    const SocIdentity again = resolve_soc_identity(request);
    ASSERT_NE(first.soc, nullptr) << name;
    EXPECT_EQ(first.soc->name, name);
    EXPECT_EQ(first.hash,
              unmemoized_hash(soc::load_by_name_or_path(request.soc)))
        << name;
    EXPECT_EQ(again.soc.get(), first.soc.get()) << name;  // the same object
    EXPECT_EQ(again.hash, first.hash);
    EXPECT_EQ(resolve_soc(request).name, name);
  }
}

TEST(SocMemo, NonCanonicalInlineTextHashesLikeTheCanonicalText) {
  const soc::Soc d695 = soc::d695();
  const std::string canonical = soc::canonical_bytes(d695);
  const common::Hash128 expected = unmemoized_hash(d695);

  std::string crlf;
  std::string spaced;
  for (const char c : canonical) {
    if (c == '\n') {
      crlf += "\r\n";
      spaced += "  \t\n";
    } else {
      crlf += c;
      spaced += c;
    }
  }
  const std::vector<std::string> texts = {
      canonical,
      crlf,
      "# exported by hand\n\n" + canonical + "# end\n",
      "\xEF\xBB\xBF" + canonical,  // UTF-8 BOM
      spaced,                       // trailing spaces and tabs
  };
  SolveRequest by_name;
  by_name.soc = "d695";
  by_name.width = 16;
  const RequestKey reference = request_keys(by_name).front();
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const SolveRequest request = inline_request(texts[i]);
    for (int pass = 0; pass < 2; ++pass) {  // the miss, then the hit
      const SocIdentity identity = resolve_soc_identity(request);
      EXPECT_EQ(identity.hash, expected) << "text " << i << " pass " << pass;
      EXPECT_EQ(identity.hash,
                unmemoized_hash(soc::parse_soc_string(texts[i])));
      EXPECT_EQ(request_keys(request).front(), reference) << "text " << i;
    }
  }
}

TEST(SocMemo, RewrittenSocFileResolvesToItsNewContent) {
  // Paths are not memoized: the file may change between requests.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("soc_memo_rewrite_" + std::to_string(::getpid()) + ".soc");
  SolveRequest request;
  request.soc = path.string();
  request.width = 16;
  for (const int n : {1, 2, 1}) {
    {
      std::ofstream out(path);
      out << numbered_soc_text(n);
    }
    const soc::Soc expected = soc::parse_soc_string(numbered_soc_text(n));
    const SocIdentity identity = resolve_soc_identity(request);
    EXPECT_EQ(identity.soc->name, expected.name);
    EXPECT_EQ(identity.hash, unmemoized_hash(expected)) << n;
    EXPECT_EQ(request_keys(request).front().soc_hash, identity.hash);
  }
  std::remove(path.string().c_str());
}

TEST(SocMemo, MoreTextsThanTheMemoHoldsStillResolveCorrectly) {
  // 200 distinct texts, well past the memo's 64 entries, twice over:
  // the memo starts over each time it fills, so most of the second round
  // re-parses; every answer must match an unmemoized parse.
  constexpr int kTexts = 200;
  std::vector<common::Hash128> expected;
  for (int n = 0; n < kTexts; ++n)
    expected.push_back(
        unmemoized_hash(soc::parse_soc_string(numbered_soc_text(n))));
  for (int round = 0; round < 2; ++round) {
    for (int n = 0; n < kTexts; ++n) {
      const SocIdentity identity =
          resolve_soc_identity(inline_request(numbered_soc_text(n)));
      EXPECT_EQ(identity.hash, expected[static_cast<std::size_t>(n)])
          << "round " << round << " text " << n;
      EXPECT_EQ(identity.soc->name, "memo" + std::to_string(n));
    }
  }
  // A recently used text is still held: a repeat returns the same SOC.
  const SolveRequest last = inline_request(numbered_soc_text(kTexts - 1));
  EXPECT_EQ(resolve_soc_identity(last).soc.get(),
            resolve_soc_identity(last).soc.get());
}

TEST(SocMemo, LongInlineTextsResolveButAreNotKept) {
  // A text past the memo's 16 KiB per-text limit is parsed afresh every
  // time and never kept, so long client texts cannot pin memory for the
  // life of the process.
  std::string text = "soc wide\n";
  for (int n = 0; text.size() <= 16 * 1024; ++n)
    text += "core c" + std::to_string(n) + " patterns=" +
            std::to_string(n % 7 + 1) + " inputs=2 outputs=3 scan=4,5\n";
  const SolveRequest request = inline_request(text);
  const SocIdentity first = resolve_soc_identity(request);
  EXPECT_EQ(first.hash, unmemoized_hash(soc::parse_soc_string(text)));
  EXPECT_EQ(first.soc->core_count(),
            soc::parse_soc_string(text).core_count());
  EXPECT_EQ(first.soc.use_count(), 1);  // the memo holds no reference
  const SocIdentity again = resolve_soc_identity(request);
  EXPECT_NE(again.soc.get(), first.soc.get());
  EXPECT_EQ(again.hash, first.hash);
  EXPECT_EQ(request_keys(request).front().soc_hash, first.hash);
  // A short text is kept: the memo holds the second reference.
  const SocIdentity kept =
      resolve_soc_identity(inline_request(numbered_soc_text(7)));
  EXPECT_EQ(kept.soc.use_count(), 2);
}

TEST(SocMemo, ConcurrentResolutionAgrees) {
  // 8 threads resolve one shuffled mix of built-ins, inline texts (more
  // than the memo holds, so entries are evicted while others read) and a
  // file path; every identity must equal the unmemoized one.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("soc_memo_threads_" + std::to_string(::getpid()) + ".soc");
  {
    std::ofstream out(path);
    out << numbered_soc_text(999);
  }
  std::vector<SolveRequest> requests;
  std::vector<common::Hash128> expected;
  for (const std::string_view name : soc::builtin_soc_names()) {
    SolveRequest request;
    request.soc = std::string(name);
    request.width = 16;
    requests.push_back(request);
    expected.push_back(
        unmemoized_hash(soc::load_by_name_or_path(request.soc)));
  }
  for (int n = 0; n < 80; ++n) {
    requests.push_back(inline_request(numbered_soc_text(1000 + n)));
    expected.push_back(unmemoized_hash(
        soc::parse_soc_string(numbered_soc_text(1000 + n))));
  }
  SolveRequest by_file;
  by_file.soc = path.string();
  by_file.width = 16;
  requests.push_back(by_file);
  expected.push_back(
      unmemoized_hash(soc::parse_soc_string(numbered_soc_text(999))));

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int step = 0; step < 400; ++step) {
        // A different stride per thread walks the mix in its own order.
        const std::size_t i =
            static_cast<std::size_t>(step * (2 * t + 1) + t) % requests.size();
        if (resolve_soc_identity(requests[i]).hash != expected[i])
          ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  std::remove(path.string().c_str());
}

}  // namespace
}  // namespace wtam::api
