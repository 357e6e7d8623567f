// Shared by the tests that drive the wtam_serve and wtam_router binaries
// and must fail, not hang, when an answer never comes: a watchdog, and
// bursts of lines sent in one write() with stdin held open, which each
// reading loop must answer without waiting for a later read.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/json_value.hpp"
#include "common/subprocess.hpp"

namespace wtam::test_support {

/// Kills `process` unless destroyed within 60 s, so a test waiting for
/// an answer that never comes fails on the missing lines instead of
/// hanging.
class Watchdog {
 public:
  explicit Watchdog(common::Subprocess& process)
      : thread_([this, &process] {
          for (int i = 0; i < 1200 && !done_.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          if (!done_.load()) process.kill();
        }) {}
  ~Watchdog() {
    done_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

/// Writes `lines` to `process` in one write(), keeps its stdin open and
/// reads up to `count` answers; fewer when the process ends first.
inline std::vector<std::string> answers_to_one_burst(
    common::Subprocess& process, const std::vector<std::string>& lines,
    std::size_t count) {
  std::string burst;
  for (const std::string& line : lines) {
    if (!burst.empty()) burst += '\n';
    burst += line;
  }
  std::vector<std::string> answers;
  if (!process.write_line(burst)) return answers;  // the burst and its '\n'
  while (answers.size() < count) {
    const std::optional<std::string> line = process.read_line();
    if (!line) break;
    answers.push_back(*line);
  }
  return answers;
}

/// How many times each id was answered. An answer without an id counts
/// under "op:<verb>" when it is a verb's ack and under "error" when not.
inline std::map<std::string, int> tally_answers(
    const std::vector<std::string>& answers) {
  std::map<std::string, int> tally;
  for (const std::string& answer : answers) {
    const api::JsonValue value = api::JsonValue::parse(answer);
    if (const api::JsonValue* id = value.find("id"))
      ++tally[id->as_string()];
    else if (const api::JsonValue* op = value.find("op"))
      ++tally["op:" + op->as_string()];
    else
      ++tally["error"];
  }
  return tally;
}

/// Answers two bursts from `process`, a wtam_serve or wtam_router reading
/// its stdin, once two warm-up jobs have been answered one at a time.
/// The first burst holds stored jobs around a cold one, a malformed line
/// and a stats verb. The second holds no verb and no cold job: no verb's
/// flush and no pool answer can carry its answers out, only the reading
/// loop's own flush once its burst is used up. Each id, error and ack
/// must come back exactly once.
inline void expect_bursts_answered(common::Subprocess& process) {
  const Watchdog watchdog(process);
  for (const char* job : {R"({"id": "w16", "soc": "d695", "width": 16})",
                          R"({"id": "w17", "soc": "d695", "width": 17})"}) {
    ASSERT_TRUE(process.write_line(job));
    ASSERT_TRUE(process.read_line().has_value());
  }
  const std::map<std::string, int> first = {
      {"cold", 1}, {"error", 1}, {"op:stats", 1},
      {"s1", 1},   {"s2", 1},    {"s3", 1}};
  EXPECT_EQ(tally_answers(answers_to_one_burst(
                process,
                {R"({"id": "s1", "soc": "d695", "width": 16})",
                 R"({"id": "cold", "soc": "d695", "width": 20})",
                 R"({"id": "s2", "soc": "d695", "width": 17})", "{oops",
                 R"({"op": "stats"})",
                 R"({"id": "s3", "soc": "d695", "width": 16})"},
                6)),
            first);
  const std::map<std::string, int> second = {
      {"error", 1}, {"s4", 1}, {"s5", 1}};
  EXPECT_EQ(tally_answers(answers_to_one_burst(
                process,
                {R"({"id": "s4", "soc": "d695", "width": 17})", "[1, 2",
                 R"({"id": "s5", "soc": "d695", "width": 16})"},
                3)),
            second);
}

}  // namespace wtam::test_support
