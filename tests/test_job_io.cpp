#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "api/job_io.hpp"
#include "api/json_value.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace wtam::api {
namespace {

// ---- JsonValue: parser ----------------------------------------------------

TEST(JsonValue, ParsesScalarsObjectsAndArrays) {
  const JsonValue document = JsonValue::parse(
      R"({"name": "désign \"x\"", "n": -42, "pi": 3.5e1,)"
      R"( "flag": true, "none": null, "list": [1, 2, 3], "empty": {}})");
  ASSERT_TRUE(document.is_object());
  EXPECT_EQ(document.find("name")->as_string(), "d\xC3\xA9sign \"x\"");
  EXPECT_EQ(document.find("n")->as_int(), -42);
  EXPECT_DOUBLE_EQ(document.find("pi")->as_double(), 35.0);
  EXPECT_TRUE(document.find("flag")->as_bool());
  EXPECT_TRUE(document.find("none")->is_null());
  ASSERT_TRUE(document.find("list")->is_array());
  EXPECT_EQ(document.find("list")->elements().size(), 3u);
  EXPECT_EQ(document.find("list")->elements()[2].as_int(), 3);
  EXPECT_TRUE(document.find("empty")->members().empty());
  EXPECT_EQ(document.find("missing"), nullptr);
}

TEST(JsonValue, ReportsErrorsWithPosition) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    try {
      (void)JsonValue::parse(text);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("{", "unexpected end of input");
  expect_error("{\"a\": 1,}", "expected object key string");
  expect_error("[1, 2", "unexpected end of input");
  expect_error("[1] trailing", "trailing characters");
  expect_error("{\"a\": 1 \"b\": 2}", "expected ','");
  expect_error("\"unterminated", "unterminated string");
  expect_error("nul", "invalid literal");
  // Strict number grammar (what jq/Python/CMake's string(JSON) accept).
  expect_error("01", "leading zero");
  expect_error("[.5]", "invalid number");
  expect_error("[1.]", "digits required after '.'");
  expect_error("[1e]", "digits required in exponent");
  expect_error("[-]", "invalid number");
  expect_error("{\"a\": 1, \"a\": 2}", "duplicate object key");
  // Positions are line:column.
  expect_error("{\n  \"a\": oops\n}", "2:8");
}

TEST(JsonValue, DuplicateKeyErrorTextIsUnchanged) {
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      (void)JsonValue::parse(text);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of(R"({"a": 1, "a": 2})"),
            "json parse error at 1:14: duplicate object key 'a'");
  // A duplicate far into a many-key object reads the same.
  std::string many = "{";
  for (int i = 0; i < 40; ++i) many += "\"k" + std::to_string(i) + "\": 0, ";
  many += "\"k7\": 1}";
  EXPECT_EQ(error_of(many),
            "json parse error at 1:" + std::to_string(many.size() - 2) +
                ": duplicate object key 'k7'");
  // The same key in different objects is no duplicate.
  EXPECT_NO_THROW((void)JsonValue::parse(R"({"a": {"a": 1}, "b": {"a": 2}})"));
}

TEST(JsonValue, ManyKeyObjectParsesInLinearTime) {
  // One client line with 100k keys: a quadratic duplicate check took
  // 4.4 s for 32k keys and over 50 s for these 100k, stalling the
  // router's main thread; linear, both parses below take well under a
  // second even under the sanitizers.
  const common::Stopwatch watch;
  constexpr int kKeys = 100000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    if (i > 0) text += ", ";
    text += "\"key" + std::to_string(i) + "\": " + std::to_string(i);
  }
  text += "}";
  const JsonValue document = JsonValue::parse(text);
  ASSERT_EQ(document.members().size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(document.members().back().first, "key99999");
  EXPECT_EQ(document.find("key99999")->as_int(), kKeys - 1);
  // A duplicate at the very end is still caught.
  text.back() = ',';
  text += " \"key0\": 1}";
  EXPECT_THROW((void)JsonValue::parse(text), std::runtime_error);
#if !defined(WTAM_UNDER_SANITIZERS)
  EXPECT_LT(watch.elapsed_s(), 10.0);
#endif
}

TEST(JsonValue, DumpParseRoundTripPreservesStructure) {
  JsonValue document = JsonValue::object();
  document.set("text", JsonValue::string("line1\nline2\t\"quoted\""));
  document.set("int", JsonValue::number(std::int64_t{1} << 40));
  document.set("neg", JsonValue::number(std::int64_t{-7}));
  JsonValue array = JsonValue::array();
  array.push(JsonValue::boolean(false));
  array.push(JsonValue{});
  document.set("mixed", std::move(array));

  const JsonValue reparsed = JsonValue::parse(document.dump_string());
  EXPECT_EQ(reparsed.find("text")->as_string(), "line1\nline2\t\"quoted\"");
  EXPECT_EQ(reparsed.find("int")->as_int(), std::int64_t{1} << 40);
  EXPECT_EQ(reparsed.find("neg")->as_int(), -7);
  EXPECT_FALSE(reparsed.find("mixed")->elements()[0].as_bool());
  EXPECT_TRUE(reparsed.find("mixed")->elements()[1].is_null());
  // Deterministic writer: dumping twice is byte-identical.
  EXPECT_EQ(document.dump_string(), document.dump_string());
}

TEST(JsonValue, CompactDumpIsSingleLineAndReparses) {
  JsonValue document = JsonValue::object();
  document.set("id", JsonValue::string("a\nb"));  // newline must be escaped
  document.set("n", JsonValue::number(std::int64_t{42}));
  JsonValue nested = JsonValue::array();
  nested.push(JsonValue::boolean(true));
  nested.push(JsonValue::object());
  document.set("nested", std::move(nested));

  const std::string line = document.dump_compact_string();
  // The NDJSON contract: one response per line, however deep the value.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line, R"({"id": "a\nb", "n": 42, "nested": [true, {}]})");
  const JsonValue reparsed = JsonValue::parse(line);
  EXPECT_EQ(reparsed.find("id")->as_string(), "a\nb");
  EXPECT_EQ(reparsed.find("n")->as_int(), 42);
}

// ---- JsonValue: writer bytes ----------------------------------------------
//
// Every response, results file and cache-equality check goes through the
// writer, so its exact bytes are pinned: escapes, raw UTF-8, integer
// extremes, the %.12g double format, non-finite doubles, containers.

/// One value of every scalar shape the writer distinguishes.
JsonValue writer_pin_document() {
  JsonValue document = JsonValue::object();
  // Short escapes for " \ newline tab CR; \u00XX for the other control
  // bytes (0x01, backspace, 0x1f); raw UTF-8 and DEL pass through.
  document.set("escapes", JsonValue::string("q\"b\\s\nn\tt\rr\x01\b\x1f."));
  document.set("utf8", JsonValue::string("d\xC3\xA9sign \xF0\x9F\x98\x80\x7f"));
  document.set("key \"quoted\"\n", JsonValue::string(""));
  document.set("min", JsonValue::number(std::numeric_limits<std::int64_t>::min()));
  document.set("max", JsonValue::number(std::numeric_limits<std::int64_t>::max()));
  JsonValue doubles = JsonValue::array();
  for (const double value :
       {0.1, 1e300, -0.0, 2.5, 1234567890123.0, 1e-7, -3.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()})
    doubles.push(JsonValue::number(value));
  document.set("doubles", std::move(doubles));
  document.set("flags", [] {
    JsonValue flags = JsonValue::array();
    flags.push(JsonValue::boolean(true));
    flags.push(JsonValue::boolean(false));
    flags.push(JsonValue{});
    return flags;
  }());
  JsonValue nested = JsonValue::object();
  nested.set("empty_object", JsonValue::object());
  nested.set("empty_array", JsonValue::array());
  JsonValue deep = JsonValue::array();
  JsonValue inner = JsonValue::array();
  inner.push(JsonValue::number(std::int64_t{1}));
  inner.push(JsonValue::object());
  deep.push(std::move(inner));
  deep.push(JsonValue::array());
  nested.set("deep", std::move(deep));
  document.set("nested", std::move(nested));
  return document;
}

TEST(JsonValue, CompactWriterBytesArePinned) {
  EXPECT_EQ(
      writer_pin_document().dump_compact_string(),
      R"({"escapes": "q\"b\\s\nn\tt\rr\u0001\u0008\u001f.", )"
      "\"utf8\": \"d\xC3\xA9sign \xF0\x9F\x98\x80\x7f\", "
      R"("key \"quoted\"\n": "", )"
      R"("min": -9223372036854775808, "max": 9223372036854775807, )"
      R"("doubles": [0.1, 1e+300, -0, 2.5, 1.23456789012e+12, 1e-07, -3, )"
      R"(null, null, null], "flags": [true, false, null], )"
      R"("nested": {"empty_object": {}, "empty_array": [], )"
      R"("deep": [[1, {}], []]}})");
  EXPECT_EQ(JsonValue::object().dump_compact_string(), "{}");
  EXPECT_EQ(JsonValue::array().dump_compact_string(), "[]");
  EXPECT_EQ(JsonValue::string("").dump_compact_string(), "\"\"");
  EXPECT_EQ(JsonValue{}.dump_compact_string(), "null");
}

TEST(JsonValue, PrettyWriterBytesArePinned) {
  EXPECT_EQ(writer_pin_document().dump_string(),
            "{\n"
            R"(  "escapes": "q\"b\\s\nn\tt\rr\u0001\u0008\u001f.",)" "\n"
            "  \"utf8\": \"d\xC3\xA9sign \xF0\x9F\x98\x80\x7f\",\n"
            R"(  "key \"quoted\"\n": "",)" "\n"
            "  \"min\": -9223372036854775808,\n"
            "  \"max\": 9223372036854775807,\n"
            "  \"doubles\": [\n"
            "    0.1,\n"
            "    1e+300,\n"
            "    -0,\n"
            "    2.5,\n"
            "    1.23456789012e+12,\n"
            "    1e-07,\n"
            "    -3,\n"
            "    null,\n"
            "    null,\n"
            "    null\n"
            "  ],\n"
            "  \"flags\": [\n"
            "    true,\n"
            "    false,\n"
            "    null\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"empty_object\": {},\n"
            "    \"empty_array\": [],\n"
            "    \"deep\": [\n"
            "      [\n"
            "        1,\n"
            "        {}\n"
            "      ],\n"
            "      []\n"
            "    ]\n"
            "  }\n"
            "}");
  EXPECT_EQ(JsonValue::object().dump_string(), "{}");
  EXPECT_EQ(JsonValue::array().dump_string(), "[]");
  EXPECT_EQ(JsonValue::number(std::int64_t{-7}).dump_string(), "-7");
}

// ---- JsonValue: the string scanner ---------------------------------------

/// json_plain_run's definition, a byte at a time.
std::size_t plain_run_bytewise(std::string_view text) {
  std::size_t i = 0;
  for (; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c == '"' || c == '\\' || c < 0x20) break;
  }
  return i;
}

/// The writer's escaping as a byte loop, the form it had before the
/// word-at-a-time scanner.
std::string json_string_bytewise(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const char byte : text) {
    const auto c = static_cast<unsigned char>(byte);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20)
          out += std::string("\\u00") + kHex[c >> 4] + kHex[c & 0xF];
        else
          out += byte;
    }
  }
  return out + "\"";
}

TEST(JsonScanner, MatchesTheByteLoopForEveryByteAtEveryOffset) {
  // Runs of 0-40 plain bytes, drawn from every value that does not end a
  // run, followed by each of the 256 byte values, with the text at each
  // offset 0-15 of its buffer. Each buffer ends where the text does, so
  // under ASan a word load past the end fails the test; the quotes
  // before the text catch a load before it.
  common::Rng rng(23);
  std::vector<char> plain;
  for (int c = 0x20; c < 0x100; ++c)
    if (c != '"' && c != '\\') plain.push_back(static_cast<char>(c));
  const auto last_plain = static_cast<std::int64_t>(plain.size()) - 1;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 40; ++length) {
      for (int stop = 0; stop < 256; ++stop) {
        const std::size_t size = offset + length + 1;
        const auto buffer = std::make_unique<char[]>(size);
        for (std::size_t i = 0; i < offset; ++i) buffer[i] = '"';
        for (std::size_t i = offset; i + 1 < size; ++i)
          buffer[i] = plain[static_cast<std::size_t>(
              rng.uniform_int(0, last_plain))];
        buffer[size - 1] = static_cast<char>(stop);
        for (const std::size_t end : {size, size - 1}) {
          const std::string_view text(buffer.get() + offset, end - offset);
          ASSERT_EQ(json_plain_run(text), plain_run_bytewise(text))
              << "offset " << offset << ", run " << length << ", byte "
              << stop << (end == size ? "" : ", cut before it");
        }
      }
    }
  }
}

TEST(JsonScanner, EveryByteValueRoundTripsThroughTheWriterAndTheParser) {
  // Seeded random strings over all 256 byte values: the writer's bytes
  // match the byte loop's, and the parser gives back the string.
  common::Rng rng(1024);
  for (int round = 0; round < 3000; ++round) {
    std::string text(static_cast<std::size_t>(rng.uniform_int(0, 80)), ' ');
    for (char& byte : text) byte = static_cast<char>(rng.uniform_int(0, 255));
    std::string literal;
    append_json_string(literal, text);
    ASSERT_EQ(literal, json_string_bytewise(text)) << "round " << round;
    ASSERT_EQ(JsonValue::parse(literal).as_string(), text)
        << "round " << round;
  }
}

// ---- jobs files -----------------------------------------------------------

TEST(JobIo, ParsesAFullJobAndAppliesDefaults) {
  const auto jobs = parse_jobs(R"({"jobs": [
    {"id": "a", "soc": "d695", "width": 32, "backend": "rectpack",
     "width_max": 48, "min_tams": 2, "max_tams": 6, "threads": 2,
     "run_final_step": false, "rectpack_iterations": 100,
     "rectpack_seed": 9, "deadline_s": 1.5, "priority": 3, "tag": "t"},
    {"soc": "p21241", "width": 16}
  ]})");
  ASSERT_EQ(jobs.size(), 2u);
  const SolveRequest& full = jobs[0];
  EXPECT_EQ(full.id, "a");
  EXPECT_EQ(full.soc, "d695");
  EXPECT_EQ(full.width, 32);
  EXPECT_EQ(full.width_max, 48);
  EXPECT_EQ(full.backend, "rectpack");
  EXPECT_EQ(full.options.min_tams, 2);
  EXPECT_EQ(full.options.max_tams, 6);
  EXPECT_EQ(full.options.threads, 2);
  EXPECT_FALSE(full.options.run_final_step);
  EXPECT_EQ(full.options.rectpack.local_search_iterations, 100);
  EXPECT_EQ(full.options.rectpack.seed, 9u);
  ASSERT_TRUE(full.deadline_s.has_value());
  EXPECT_DOUBLE_EQ(*full.deadline_s, 1.5);
  EXPECT_EQ(full.priority, 3);
  EXPECT_EQ(full.tag, "t");

  const SolveRequest& defaults = jobs[1];
  EXPECT_EQ(defaults.backend, "enumerative");
  EXPECT_EQ(defaults.width_max, 0);
  EXPECT_EQ(defaults.options.max_tams, 10);
  EXPECT_FALSE(defaults.deadline_s.has_value());
}

TEST(JobIo, AcceptsBareArrayDocuments) {
  const auto jobs = parse_jobs(R"([{"soc": "d695", "width": 8}])");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].soc, "d695");
}

TEST(JobIo, RejectsUnknownAndMalformedFields) {
  const auto expect_bad = [](const std::string& text,
                             const std::string& fragment) {
    try {
      (void)parse_jobs(text);
      FAIL() << "expected error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_bad(R"([{"soc": "d695", "width": 8, "widht_max": 16}])",
             "unknown field 'widht_max'");
  expect_bad(R"([{"soc": "d695"}])", "'width' is required");
  expect_bad(R"([{"soc": "d695", "width": 0}])", "out of range");
  expect_bad(R"([{"soc": "d695", "width": 8, "deadline_s": -1}])",
             "must be > 0");
  expect_bad(R"([{"soc": "d695", "width": "eight"}])", "must be an integer");
  expect_bad(R"({"no_jobs": []})", "must have a 'jobs' array");
  // Errors name the offending job by position.
  expect_bad(R"([{"soc": "d695", "width": 8}, {"soc": "x"}])", "job 2");
}

TEST(JobIo, JobRoundTripsThroughJson) {
  SolveRequest request;
  request.id = "round-trip";
  request.soc = "p93791";
  request.width = 24;
  request.width_max = 32;
  request.backend = "rectpack";
  request.options.min_tams = 2;
  request.options.threads = 4;
  request.options.rectpack.seed = 5'000'000'000ULL;  // above 2^31: must survive
  request.deadline_s = 0.25;
  request.priority = -1;
  request.tag = "nightly";

  const auto jobs = parse_jobs(jobs_to_json({request}));
  ASSERT_EQ(jobs.size(), 1u);
  const SolveRequest& back = jobs[0];
  EXPECT_EQ(back.id, request.id);
  EXPECT_EQ(back.soc, request.soc);
  EXPECT_EQ(back.width, request.width);
  EXPECT_EQ(back.width_max, request.width_max);
  EXPECT_EQ(back.backend, request.backend);
  EXPECT_EQ(back.options.min_tams, request.options.min_tams);
  EXPECT_EQ(back.options.threads, request.options.threads);
  EXPECT_EQ(back.options.rectpack.seed, request.options.rectpack.seed);
  EXPECT_DOUBLE_EQ(*back.deadline_s, *request.deadline_s);
  EXPECT_EQ(back.priority, request.priority);
  EXPECT_EQ(back.tag, request.tag);
}

TEST(JobIo, ConstraintsBlockRoundTripsThroughJson) {
  SolveRequest request;
  request.id = "constrained";
  request.soc = "d695";
  request.width = 32;
  request.backend = "rectpack";
  auto& constraints = request.options.constraints;
  constraints.power = {100, 90, 80, 70, 60, 50, 40, 30, 20, 10};
  constraints.power_budget = 250;
  constraints.precedence = {{0, 2}, {1, 2}};
  constraints.fixed = {{3, {0, 8}}};
  constraints.forbidden = {{4, {8, 16}}, {4, {24, 32}}};
  constraints.earliest = {{5, 12345}};

  const auto jobs = parse_jobs(jobs_to_json({request}));
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].options.constraints, constraints);

  // An absent block stays absent (empty constraints are not serialized).
  SolveRequest plain;
  plain.soc = "d695";
  plain.width = 8;
  EXPECT_EQ(jobs_to_json({plain}).find("constraints"), std::string::npos);
}

TEST(JobIo, ConstraintsParsingIsStrict) {
  const auto parse_constrained_job = [](const std::string& block) {
    return parse_jobs(R"({"jobs": [{"soc": "d695", "width": 8,)"
                      R"( "constraints": )" +
                      block + "}]}");
  };
  // Happy path.
  EXPECT_EQ(parse_constrained_job(
                R"({"power": [1, 2], "power_budget": 3,)"
                R"( "precedence": [[0, 1]], "earliest_start": [[1, 9]]})")
                .at(0)
                .options.constraints.precedence.size(),
            1u);
  // Unknown keys inside the block fail loudly.
  EXPECT_THROW((void)parse_constrained_job(R"({"powerr": [1]})"),
               std::runtime_error);
  // Malformed shapes fail loudly.
  EXPECT_THROW((void)parse_constrained_job(R"("power")"), std::runtime_error);
  EXPECT_THROW((void)parse_constrained_job(R"({"power": 3})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_constrained_job(R"({"precedence": [[0]]})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_constrained_job(R"({"fixed": [[0, 1]]})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_constrained_job(R"({"forbidden": [[0, 1, "x"]]})"),
      std::runtime_error);
  EXPECT_THROW(
      (void)parse_constrained_job(R"({"earliest_start": [[0, -1]]})"),
      std::runtime_error);
  EXPECT_THROW((void)parse_constrained_job(R"({"fixed": [[0, 1, 999]]})"),
               std::runtime_error);  // wire index outside [0, 256]
  EXPECT_THROW((void)parse_constrained_job(R"({"power_budget": -5})"),
               std::runtime_error);  // negative budgets fail at parse time
}

// GCC 12's -Wmaybe-uninitialized misfires on the engaged optional<Soc>
// here (the famous optional+string false positive; job_to_json only ever
// reads has_value() on it).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
TEST(JobIo, InMemorySocValueIsNotSerializable) {
  SolveRequest request;
  request.soc_value.emplace();
  request.width = 8;
  EXPECT_THROW((void)job_to_json(request), std::invalid_argument);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// ---- results files --------------------------------------------------------

TEST(JobIo, ResultsJsonIsDeterministicAndParsesBack) {
  SolveResult ok;
  ok.status = Status::Ok;
  ok.id = "job-1";
  ok.soc_name = "d695";
  ok.core_count = 10;
  ok.backend = "rectpack";
  ok.width = 32;
  ok.widths_tried = 1;
  ok.outcome.emplace();
  ok.outcome->backend = "rectpack";
  ok.outcome->testing_time = 22270;
  ok.outcome->cpu_s = 0.123;  // must NOT appear without include_timing
  ok.outcome->details.emplace_back("repacks", "41");
  ok.lower_bound = 21000;
  ok.schedule_valid = true;
  ok.wall_s = 0.456;

  SolveResult bad;
  bad.status = Status::InvalidRequest;
  bad.id = "job-2";
  bad.backend = "enumerative";
  bad.error = "width must be in 1..256";

  const std::string text = results_to_json({ok, bad});
  EXPECT_EQ(text, results_to_json({ok, bad}));  // byte-identical
  EXPECT_EQ(text.find("cpu_s"), std::string::npos);
  EXPECT_EQ(text.find("wall_s"), std::string::npos);

  const JsonValue document = JsonValue::parse(text);
  EXPECT_EQ(document.find("schema")->as_string(), "wtam-batch-results-v1");
  EXPECT_EQ(document.find("jobs")->as_int(), 2);
  const auto& results = document.find("results")->elements();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].find("status")->as_string(), "ok");
  EXPECT_EQ(results[0].find("testing_time")->as_int(), 22270);
  EXPECT_EQ(results[0].find("details")->find("repacks")->as_string(), "41");
  EXPECT_TRUE(results[0].find("schedule_valid")->as_bool());
  EXPECT_EQ(results[1].find("status")->as_string(), "invalid_request");
  EXPECT_NE(results[1].find("error"), nullptr);
  EXPECT_EQ(results[1].find("testing_time"), nullptr);

  ResultsWriteOptions with_timing;
  with_timing.include_timing = true;
  const std::string timed = results_to_json({ok, bad}, with_timing);
  EXPECT_NE(timed.find("cpu_s"), std::string::npos);
  EXPECT_NE(timed.find("wall_s"), std::string::npos);
}

TEST(JobIo, CacheProvenanceIsOptInLikeTiming) {
  SolveResult hit;
  hit.status = Status::Ok;
  hit.id = "job-1";
  hit.backend = "rectpack";
  hit.cache = CacheOutcome::Hit;

  // Off the canonical bytes by default, so results stay byte-identical
  // with the cache on or off.
  EXPECT_EQ(results_to_json({hit}).find("\"cache\""), std::string::npos);

  ResultsWriteOptions with_cache;
  with_cache.include_cache = true;
  const std::string text = results_to_json({hit}, with_cache);
  const JsonValue document = JsonValue::parse(text);
  EXPECT_EQ(document.find("results")->elements()[0].find("cache")->as_string(),
            "hit");

  hit.cache = CacheOutcome::Bypass;
  EXPECT_NE(results_to_json({hit}, with_cache).find("\"cache\": \"bypass\""),
            std::string::npos);
}

TEST(JobIo, ResultsLeadWithTheirId) {
  // The fleet router restores client ids by splicing over the leading
  // {"id": "r<seq>" of a worker's answer, without parsing it, so "id"
  // stays first whatever else a result carries.
  SolveResult ok;
  ok.status = Status::Ok;
  ok.id = "r7";
  ok.tag = "t";
  ok.soc_name = "d695";
  ok.backend = "rectpack";
  ok.outcome.emplace();
  ok.cache = CacheOutcome::Hit;
  SolveResult bad;
  bad.status = Status::InvalidRequest;
  bad.id = "r8";
  bad.error = "width must be in 1..256";
  ResultsWriteOptions everything;
  everything.include_timing = true;
  everything.include_cache = true;
  for (const ResultsWriteOptions& options : {ResultsWriteOptions{}, everything}) {
    EXPECT_TRUE(result_line(ok, options).starts_with("{\"id\": \"r7\", "));
    EXPECT_TRUE(result_line(bad, options).starts_with("{\"id\": \"r8\", "));
  }
}

// ---- the answer writer's bytes ---------------------------------------------
//
// Every answer a worker writes is a result line, and the batch results
// file holds the same results pretty-printed. Both are pinned for every
// result shape, as the tree-building writer rendered them.

/// One result of each shape the answer writer tells apart.
std::vector<SolveResult> answer_shapes() {
  std::vector<SolveResult> shapes;

  // An enumerative answer: a swept width, an architecture, details and
  // a trace.
  SolveResult enumerative;
  enumerative.status = Status::Ok;
  enumerative.id = "e1";
  enumerative.soc_name = "d695";
  enumerative.core_count = 10;
  enumerative.backend = "enumerative";
  enumerative.width = 33;
  enumerative.widths_tried = 3;
  enumerative.outcome.emplace();
  enumerative.outcome->backend = "enumerative";
  enumerative.outcome->testing_time = 21566;
  enumerative.outcome->architecture = core::TamArchitecture{
      {16, 10, 7}, {1, 2, 3, 1, 2, 3, 1, 2, 3, 1}, {21566, 20010, 19870},
      21566};
  enumerative.outcome->cpu_s = 0.25;
  enumerative.outcome->details = {{"partition", "16+10+7"},
                                  {"assignment", "(1,2,3,1,2,3,1,2,3,1)"},
                                  {"heuristic time", "21566"}};
  enumerative.lower_bound = 21000;
  enumerative.schedule_valid = true;
  enumerative.cache = CacheOutcome::Hit;
  enumerative.wall_s = 1.5e-05;
  enumerative.trace = {{"queue-wait", 0, 1200},
                       {"soc-resolve", 1200, 350},
                       {"cache-lookup", 1550, 800}};
  shapes.push_back(enumerative);

  // A rectpack answer: no architecture, and a gap of many digits.
  SolveResult rectpack;
  rectpack.status = Status::Ok;
  rectpack.id = "r1";
  rectpack.soc_name = "p93791";
  rectpack.core_count = 32;
  rectpack.backend = "rectpack";
  rectpack.width = 32;
  rectpack.widths_tried = 1;
  rectpack.outcome.emplace();
  rectpack.outcome->backend = "rectpack";
  rectpack.outcome->testing_time = 1791638;
  rectpack.outcome->cpu_s = 1.23456789012345;
  rectpack.outcome->details = {{"seed ordering", "area-desc"},
                               {"repacks", "2012"},
                               {"strip utilization", "97%"}};
  rectpack.lower_bound = 1746664;
  rectpack.schedule_valid = true;
  rectpack.cache = CacheOutcome::Miss;
  rectpack.wall_s = 1.3;
  rectpack.trace = {{"walker:1", 90, 1000000}, {"validate", 1000090, 42}};
  shapes.push_back(rectpack);

  // An invalid request: no SOC and no outcome.
  SolveResult invalid;
  invalid.status = Status::InvalidRequest;
  invalid.id = "bad";
  invalid.backend = "enumerative";
  invalid.error = "width must be in 1..256";
  invalid.wall_s = 2e-06;
  shapes.push_back(invalid);

  // A tag, with bytes the writer escapes and raw UTF-8.
  SolveResult tagged;
  tagged.status = Status::DeadlineExceeded;
  tagged.id = "t\"1";
  tagged.tag = "night \"q\" \\ \n\t\x01 d\xC3\xA9";
  tagged.soc_name = "p21241";
  tagged.core_count = 28;
  tagged.backend = "rectpack";
  tagged.width = 16;
  tagged.widths_tried = 1;
  tagged.outcome.emplace();
  tagged.outcome->backend = "rectpack";
  tagged.outcome->testing_time = 470000;
  tagged.outcome->details = {{"repacks", "7"}};
  tagged.lower_bound = 466000;
  tagged.cache = CacheOutcome::Bypass;
  tagged.wall_s = 0.5;
  shapes.push_back(tagged);

  // An error text beside a resolved SOC.
  SolveResult failed;
  failed.status = Status::InternalError;
  failed.id = "boom";
  failed.soc_name = "d695";
  failed.core_count = 10;
  failed.backend = "rectpack";
  failed.error = "engine threw: \"bad_alloc\"\n\tat width 64";
  failed.wall_s = 0.001;
  failed.trace = {{"queue-wait", 0, 5}};
  shapes.push_back(failed);

  // lower_bound 0: no gap, and no details.
  SolveResult unbounded;
  unbounded.status = Status::Ok;
  unbounded.id = "lb0";
  unbounded.soc_name = "tiny";
  unbounded.core_count = 1;
  unbounded.backend = "rectpack";
  unbounded.width = 1;
  unbounded.widths_tried = 1;
  unbounded.outcome.emplace();
  unbounded.outcome->backend = "rectpack";
  unbounded.outcome->testing_time = 0;
  unbounded.schedule_valid = true;
  unbounded.cache = CacheOutcome::Hit;
  shapes.push_back(unbounded);

  // Non-finite timings render as null.
  SolveResult nonfinite = unbounded;
  nonfinite.id = "inf";
  nonfinite.outcome->cpu_s = std::numeric_limits<double>::infinity();
  nonfinite.wall_s = std::numeric_limits<double>::quiet_NaN();
  shapes.push_back(nonfinite);

  // A repeated detail key keeps its first place and its last value.
  SolveResult repeated = unbounded;
  repeated.id = "dup";
  repeated.outcome->details = {
      {"a", "1"}, {"b", "2"}, {"a", "3"}, {"c", "4"}, {"b", "5"}};
  shapes.push_back(repeated);
  return shapes;
}

/// Which of the opt-in fields a pin writes.
enum PinnedOptions { kOff, kTiming, kCache, kTrace, kAll };

ResultsWriteOptions write_options(PinnedOptions which) {
  ResultsWriteOptions options;
  options.include_timing = which == kTiming || which == kAll;
  options.include_cache = which == kCache || which == kAll;
  options.include_trace = which == kTrace || which == kAll;
  return options;
}

TEST(JobIo, AnswerLinesArePinned) {
  struct Pin {
    const char* id;
    PinnedOptions options;
    const char* line;
  };
  // The enumerative answer with each opt-in field alone; every shape
  // with none and with all of them.
  const Pin pins[] = {
      {"e1", kOff,
       R"({"id": "e1", "status": "ok", "soc": "d695", "core_count": )"
       R"(10, "backend": "enumerative", "width": 33, "widths_tried": )"
       R"(3, "testing_time": 21566, "lower_bound": 21000, )"
       R"("gap": 0.0269523809524, "tam_count": 3, "schedule_valid": )"
       R"(true, "details": {"partition": "16+10+7", "assignment": )"
       R"("(1,2,3,1,2,3,1,2,3,1))"
       R"(", "heuristic time": "21566"}})"
      },
      {"e1", kTiming,
       R"({"id": "e1", "status": "ok", "soc": "d695", "core_count": )"
       R"(10, "backend": "enumerative", "width": 33, "widths_tried": )"
       R"(3, "testing_time": 21566, "lower_bound": 21000, )"
       R"("gap": 0.0269523809524, "tam_count": 3, "schedule_valid": )"
       R"(true, "details": {"partition": "16+10+7", "assignment": )"
       R"("(1,2,3,1,2,3,1,2,3,1))"
       R"(", "heuristic time": "21566"}, "cpu_s": 0.25, )"
       R"("wall_s": 1.5e-05})"
      },
      {"e1", kCache,
       R"({"id": "e1", "status": "ok", "soc": "d695", "core_count": )"
       R"(10, "backend": "enumerative", "width": 33, "widths_tried": )"
       R"(3, "testing_time": 21566, "lower_bound": 21000, )"
       R"("gap": 0.0269523809524, "tam_count": 3, "schedule_valid": )"
       R"(true, "details": {"partition": "16+10+7", "assignment": )"
       R"("(1,2,3,1,2,3,1,2,3,1))"
       R"(", "heuristic time": "21566"}, "cache": "hit"})"
      },
      {"e1", kTrace,
       R"({"id": "e1", "status": "ok", "soc": "d695", "core_count": )"
       R"(10, "backend": "enumerative", "width": 33, "widths_tried": )"
       R"(3, "testing_time": 21566, "lower_bound": 21000, )"
       R"("gap": 0.0269523809524, "tam_count": 3, "schedule_valid": )"
       R"(true, "details": {"partition": "16+10+7", "assignment": )"
       R"("(1,2,3,1,2,3,1,2,3,1))"
       R"(", "heuristic time": "21566"}, "trace": [{"stage": )"
       R"("queue-wait", "start_ns": 0, "duration_ns": 1200}, )"
       R"({"stage": "soc-resolve", "start_ns": 1200, "duration_ns": )"
       R"(350}, {"stage": "cache-lookup", "start_ns": 1550, )"
       R"("duration_ns": 800}]})"
      },
      {"e1", kAll,
       R"({"id": "e1", "status": "ok", "soc": "d695", "core_count": )"
       R"(10, "backend": "enumerative", "width": 33, "widths_tried": )"
       R"(3, "testing_time": 21566, "lower_bound": 21000, )"
       R"("gap": 0.0269523809524, "tam_count": 3, "schedule_valid": )"
       R"(true, "details": {"partition": "16+10+7", "assignment": )"
       R"("(1,2,3,1,2,3,1,2,3,1))"
       R"(", "heuristic time": "21566"}, "cpu_s": 0.25, )"
       R"("cache": "hit", "wall_s": 1.5e-05, "trace": [{"stage": )"
       R"("queue-wait", "start_ns": 0, "duration_ns": 1200}, )"
       R"({"stage": "soc-resolve", "start_ns": 1200, "duration_ns": )"
       R"(350}, {"stage": "cache-lookup", "start_ns": 1550, )"
       R"("duration_ns": 800}]})"
      },
      {"r1", kOff,
       R"({"id": "r1", "status": "ok", "soc": "p93791", )"
       R"("core_count": 32, "backend": "rectpack", "width": )"
       R"(32, "widths_tried": 1, "testing_time": 1791638, )"
       R"("lower_bound": 1746664, "gap": 0.0257485125931, )"
       R"("schedule_valid": true, "details": {"seed ordering": )"
       R"("area-desc", "repacks": "2012", "strip utilization": )"
       R"("97%"}})"
      },
      {"r1", kAll,
       R"({"id": "r1", "status": "ok", "soc": "p93791", )"
       R"("core_count": 32, "backend": "rectpack", "width": )"
       R"(32, "widths_tried": 1, "testing_time": 1791638, )"
       R"("lower_bound": 1746664, "gap": 0.0257485125931, )"
       R"("schedule_valid": true, "details": {"seed ordering": )"
       R"("area-desc", "repacks": "2012", "strip utilization": )"
       R"("97%"}, "cpu_s": 1.23456789012, "cache": "miss", )"
       R"("wall_s": 1.3, "trace": [{"stage": "walker:1", )"
       R"("start_ns": 90, "duration_ns": 1000000}, {"stage": )"
       R"("validate", "start_ns": 1000090, "duration_ns": )"
       R"(42}]})"
      },
      {"bad", kOff,
       R"({"id": "bad", "status": "invalid_request", "error": )"
       R"("width must be in 1..256", "backend": "enumerative"})"
      },
      {"bad", kAll,
       R"({"id": "bad", "status": "invalid_request", "error": )"
       R"("width must be in 1..256", "backend": "enumerative", )"
       R"("cache": "bypass", "wall_s": 2e-06})"
      },
      {"t\"1", kOff,
       R"({"id": "t\"1", "tag": "night \"q\" \\ \n\t\u0001 )"
       R"(d)"
       "\xC3\xA9"
       R"(", "status": "deadline_exceeded", "soc": "p21241", )"
       R"("core_count": 28, "backend": "rectpack", "width": )"
       R"(16, "widths_tried": 1, "testing_time": 470000, )"
       R"("lower_bound": 466000, "gap": 0.00858369098712, )"
       R"("schedule_valid": false, "details": {"repacks": )"
       R"("7"}})"
      },
      {"t\"1", kAll,
       R"({"id": "t\"1", "tag": "night \"q\" \\ \n\t\u0001 )"
       R"(d)"
       "\xC3\xA9"
       R"(", "status": "deadline_exceeded", "soc": "p21241", )"
       R"("core_count": 28, "backend": "rectpack", "width": )"
       R"(16, "widths_tried": 1, "testing_time": 470000, )"
       R"("lower_bound": 466000, "gap": 0.00858369098712, )"
       R"("schedule_valid": false, "details": {"repacks": )"
       R"("7"}, "cpu_s": 0, "cache": "bypass", "wall_s": )"
       R"(0.5})"
      },
      {"boom", kOff,
       R"({"id": "boom", "status": "internal_error", "error": )"
       R"("engine threw: \"bad_alloc\"\n\tat width 64", )"
       R"("soc": "d695", "core_count": 10, "backend": "rectpack"})"
      },
      {"boom", kAll,
       R"({"id": "boom", "status": "internal_error", "error": )"
       R"("engine threw: \"bad_alloc\"\n\tat width 64", )"
       R"("soc": "d695", "core_count": 10, "backend": "rectpack", )"
       R"("cache": "bypass", "wall_s": 0.001, "trace": [{"stage": )"
       R"("queue-wait", "start_ns": 0, "duration_ns": 5}]})"
      },
      {"lb0", kOff,
       R"({"id": "lb0", "status": "ok", "soc": "tiny", "core_count": )"
       R"(1, "backend": "rectpack", "width": 1, "widths_tried": )"
       R"(1, "testing_time": 0, "lower_bound": 0, "schedule_valid": )"
       R"(true, "details": {}})"
      },
      {"lb0", kAll,
       R"({"id": "lb0", "status": "ok", "soc": "tiny", "core_count": )"
       R"(1, "backend": "rectpack", "width": 1, "widths_tried": )"
       R"(1, "testing_time": 0, "lower_bound": 0, "schedule_valid": )"
       R"(true, "details": {}, "cpu_s": 0, "cache": "hit", )"
       R"("wall_s": 0})"
      },
      {"inf", kOff,
       R"({"id": "inf", "status": "ok", "soc": "tiny", "core_count": )"
       R"(1, "backend": "rectpack", "width": 1, "widths_tried": )"
       R"(1, "testing_time": 0, "lower_bound": 0, "schedule_valid": )"
       R"(true, "details": {}})"
      },
      {"inf", kAll,
       R"({"id": "inf", "status": "ok", "soc": "tiny", "core_count": )"
       R"(1, "backend": "rectpack", "width": 1, "widths_tried": )"
       R"(1, "testing_time": 0, "lower_bound": 0, "schedule_valid": )"
       R"(true, "details": {}, "cpu_s": null, "cache": "hit", )"
       R"("wall_s": null})"
      },
      {"dup", kOff,
       R"({"id": "dup", "status": "ok", "soc": "tiny", "core_count": )"
       R"(1, "backend": "rectpack", "width": 1, "widths_tried": )"
       R"(1, "testing_time": 0, "lower_bound": 0, "schedule_valid": )"
       R"(true, "details": {"a": "3", "b": "5", "c": "4"}})"
      },
      {"dup", kAll,
       R"({"id": "dup", "status": "ok", "soc": "tiny", "core_count": )"
       R"(1, "backend": "rectpack", "width": 1, "widths_tried": )"
       R"(1, "testing_time": 0, "lower_bound": 0, "schedule_valid": )"
       R"(true, "details": {"a": "3", "b": "5", "c": "4"}, )"
       R"("cpu_s": 0, "cache": "hit", "wall_s": 0})"
      },
  };
  const std::vector<SolveResult> shapes = answer_shapes();
  for (const Pin& pin : pins) {
    const auto shape =
        std::find_if(shapes.begin(), shapes.end(),
                     [&pin](const SolveResult& s) { return s.id == pin.id; });
    ASSERT_NE(shape, shapes.end()) << pin.id;
    EXPECT_EQ(
        result_to_json(*shape, write_options(pin.options)).dump_compact_string(),
        pin.line)
        << pin.id << " with options " << pin.options;
  }
}

TEST(JobIo, ResultsFileBytesArePinned) {
  EXPECT_EQ(results_to_json(answer_shapes(), write_options(kAll)),
            R"pin({
  "schema": "wtam-batch-results-v1",
  "jobs": 8,
  "results": [
    {
      "id": "e1",
      "status": "ok",
      "soc": "d695",
      "core_count": 10,
      "backend": "enumerative",
      "width": 33,
      "widths_tried": 3,
      "testing_time": 21566,
      "lower_bound": 21000,
      "gap": 0.0269523809524,
      "tam_count": 3,
      "schedule_valid": true,
      "details": {
        "partition": "16+10+7",
        "assignment": "(1,2,3,1,2,3,1,2,3,1)",
        "heuristic time": "21566"
      },
      "cpu_s": 0.25,
      "cache": "hit",
      "wall_s": 1.5e-05,
      "trace": [
        {
          "stage": "queue-wait",
          "start_ns": 0,
          "duration_ns": 1200
        },
        {
          "stage": "soc-resolve",
          "start_ns": 1200,
          "duration_ns": 350
        },
        {
          "stage": "cache-lookup",
          "start_ns": 1550,
          "duration_ns": 800
        }
      ]
    },
    {
      "id": "r1",
      "status": "ok",
      "soc": "p93791",
      "core_count": 32,
      "backend": "rectpack",
      "width": 32,
      "widths_tried": 1,
      "testing_time": 1791638,
      "lower_bound": 1746664,
      "gap": 0.0257485125931,
      "schedule_valid": true,
      "details": {
        "seed ordering": "area-desc",
        "repacks": "2012",
        "strip utilization": "97%"
      },
      "cpu_s": 1.23456789012,
      "cache": "miss",
      "wall_s": 1.3,
      "trace": [
        {
          "stage": "walker:1",
          "start_ns": 90,
          "duration_ns": 1000000
        },
        {
          "stage": "validate",
          "start_ns": 1000090,
          "duration_ns": 42
        }
      ]
    },
    {
      "id": "bad",
      "status": "invalid_request",
      "error": "width must be in 1..256",
      "backend": "enumerative",
      "cache": "bypass",
      "wall_s": 2e-06
    },
    {
      "id": "t\"1",
      "tag": "night \"q\" \\ \n\t\u0001 d)pin" "\xC3\xA9" R"pin(",
      "status": "deadline_exceeded",
      "soc": "p21241",
      "core_count": 28,
      "backend": "rectpack",
      "width": 16,
      "widths_tried": 1,
      "testing_time": 470000,
      "lower_bound": 466000,
      "gap": 0.00858369098712,
      "schedule_valid": false,
      "details": {
        "repacks": "7"
      },
      "cpu_s": 0,
      "cache": "bypass",
      "wall_s": 0.5
    },
    {
      "id": "boom",
      "status": "internal_error",
      "error": "engine threw: \"bad_alloc\"\n\tat width 64",
      "soc": "d695",
      "core_count": 10,
      "backend": "rectpack",
      "cache": "bypass",
      "wall_s": 0.001,
      "trace": [
        {
          "stage": "queue-wait",
          "start_ns": 0,
          "duration_ns": 5
        }
      ]
    },
    {
      "id": "lb0",
      "status": "ok",
      "soc": "tiny",
      "core_count": 1,
      "backend": "rectpack",
      "width": 1,
      "widths_tried": 1,
      "testing_time": 0,
      "lower_bound": 0,
      "schedule_valid": true,
      "details": {},
      "cpu_s": 0,
      "cache": "hit",
      "wall_s": 0
    },
    {
      "id": "inf",
      "status": "ok",
      "soc": "tiny",
      "core_count": 1,
      "backend": "rectpack",
      "width": 1,
      "widths_tried": 1,
      "testing_time": 0,
      "lower_bound": 0,
      "schedule_valid": true,
      "details": {},
      "cpu_s": null,
      "cache": "hit",
      "wall_s": null
    },
    {
      "id": "dup",
      "status": "ok",
      "soc": "tiny",
      "core_count": 1,
      "backend": "rectpack",
      "width": 1,
      "widths_tried": 1,
      "testing_time": 0,
      "lower_bound": 0,
      "schedule_valid": true,
      "details": {
        "a": "3",
        "b": "5",
        "c": "4"
      },
      "cpu_s": 0,
      "cache": "hit",
      "wall_s": 0
    }
  ]
})pin");
}

TEST(JobIo, ResultToJsonIsTheAnswerLineParsed) {
  // The answer line is the one renderer; result_to_json reads it back,
  // and its compact dump gives the same bytes, so the pins above hold
  // for the line itself.
  for (const SolveResult& shape : answer_shapes())
    for (const PinnedOptions which : {kOff, kTiming, kCache, kTrace, kAll}) {
      const ResultsWriteOptions options = write_options(which);
      EXPECT_EQ(result_line(shape, options),
                result_to_json(shape, options).dump_compact_string())
          << shape.id << " with options " << which;
    }
}

TEST(JobIo, StatusStringsRoundTrip) {
  for (const Status status :
       {Status::Ok, Status::InvalidRequest, Status::DeadlineExceeded,
        Status::Cancelled, Status::InternalError}) {
    const auto parsed = parse_status(to_string(status));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, status);
  }
  EXPECT_FALSE(parse_status("no_such_status").has_value());
}

}  // namespace
}  // namespace wtam::api
