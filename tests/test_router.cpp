// Router mechanics against scripted workers (/bin/cat echoes every
// line, tiny sh scripts fake crashes, slow workers and fixed metrics
// acks), so routing, id rewriting, op fan-out/merge, shedding, and crash
// replay are testable without paying for real solves. The full-stack
// fleet (real wtam_serve workers, byte-identity across fleet sizes,
// crash replay of real jobs) runs in cmake/cli_checks.cmake.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "api/json_value.hpp"
#include "common/rng.hpp"
#include "common/subprocess.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"
#include "one_burst.hpp"
#include "port_file.hpp"
#include "serve/router.hpp"

namespace wtam::serve {
namespace {

/// Thread-safe sink: collects response lines and lets the test block
/// until a count arrives (readers deliver from their own threads).
class Collector {
 public:
  void operator()(const std::string& line) {
    const common::MutexLock lock(mutex_);
    lines_.push_back(line);
  }

  /// Waits (bounded) until at least `count` lines have arrived.
  [[nodiscard]] bool wait_for(std::size_t count) {
    for (int i = 0; i < 2000; ++i) {
      {
        const common::MutexLock lock(mutex_);
        if (lines_.size() >= count) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  [[nodiscard]] std::vector<std::string> lines() {
    const common::MutexLock lock(mutex_);
    return lines_;
  }

 private:
  common::Mutex mutex_;
  std::vector<std::string> lines_;
};

std::vector<std::string> cat_worker() { return {"/bin/cat"}; }

RouterOptions cat_fleet(int workers, std::uint64_t queue_limit = 0) {
  RouterOptions options;
  for (int i = 0; i < workers; ++i)
    options.workers.push_back(WorkerSpec::local(cat_worker()));
  options.queue_limit = queue_limit;
  return options;
}

const api::JsonValue* find_line_with_id(
    const std::vector<std::string>& lines,
    std::vector<api::JsonValue>& storage, const std::string& id) {
  for (const std::string& line : lines) {
    storage.push_back(api::JsonValue::parse(line));
    const api::JsonValue* found = storage.back().find("id");
    if (found != nullptr &&
        found->kind() == api::JsonValue::Kind::String &&
        found->as_string() == id)
      return &storage.back();
  }
  return nullptr;
}

TEST(Router, RoutesJobsAndRestoresClientIds) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  // cat workers echo the rewritten request, so the "response" proves
  // both directions of the id rewrite: the wire line carried an
  // internal id, the emitted line carries the client's again.
  for (const char* id : {"alpha", "beta", "gamma", "delta"}) {
    std::string line = "{\"id\": \"";
    line += id;
    line += "\", \"soc\": \"d695\", \"width\": 32}";
    EXPECT_TRUE(router.handle_line(line));
  }
  ASSERT_TRUE(collector->wait_for(4));
  std::vector<api::JsonValue> storage;
  const std::vector<std::string> lines = collector->lines();
  for (const char* id : {"alpha", "beta", "gamma", "delta"}) {
    const api::JsonValue* response = find_line_with_id(lines, storage, id);
    ASSERT_NE(response, nullptr) << id;
    // The job body passed through unchanged.
    EXPECT_EQ(response->find("soc")->as_string(), "d695");
    EXPECT_EQ(response->find("width")->as_int(), 32);
  }
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.routed, 4u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.respawns, 0u);
  EXPECT_EQ(counters.orphaned, 0u);
}

TEST(Router, SynthesizesIdsInArrivalOrder) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"soc\": \"d695\", \"width\": 16}"));
  EXPECT_TRUE(router.handle_line("{\"soc\": \"d695\", \"width\": 17}"));
  ASSERT_TRUE(collector->wait_for(2));
  std::vector<api::JsonValue> storage;
  const std::vector<std::string> lines = collector->lines();
  // Arrival order fixes the synthesized ids regardless of fleet size —
  // part of the N=1/2/4 byte-identity story.
  EXPECT_NE(find_line_with_id(lines, storage, "job-1"), nullptr);
  EXPECT_NE(find_line_with_id(lines, storage, "job-2"), nullptr);
}

TEST(Router, SplicesClientIdsBackEscapedLikeTheWriter) {
  // The wire line leads with the internal id whatever member order the
  // client used, so the echo does too; the router swaps the client's id
  // in, escaped exactly as the JSON writer would, and leaves every other
  // byte alone. One worker keeps the responses in submission order.
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(1),
                [collector](const std::string& line) { (*collector)(line); });
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"id": "a\"b\\c", "soc": "d695", "width": 8})",
       R"({"id": "a\"b\\c", "soc": "d695", "width": 8})"},
      // A \u escape arrives as UTF-8 and leaves as raw UTF-8.
      {"{\"width\": 9, \"id\": \"d\\u00e9sign \xE2\x9C\x93\", \"soc\": \"d695\"}",
       "{\"id\": \"d\xC3\xA9sign \xE2\x9C\x93\", \"width\": 9, \"soc\": \"d695\"}"},
      {R"({"soc": "d695", "width": 10, "id": "tab\there\u0001"})",
       R"({"id": "tab\there\u0001", "soc": "d695", "width": 10})"},
      // Id-less jobs get "job-<seq>", like wtam_serve.
      {R"({"soc": "d695", "width": 11})",
       R"({"id": "job-4", "soc": "d695", "width": 11})"},
      {R"({"id": "", "soc": "d695", "width": 12})",
       R"({"id": "job-5", "soc": "d695", "width": 12})"},
  };
  for (const auto& test_case : cases)
    EXPECT_TRUE(router.handle_line(test_case.first));
  ASSERT_TRUE(collector->wait_for(cases.size()));
  const std::vector<std::string> lines = collector->lines();
  ASSERT_EQ(lines.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i)
    EXPECT_EQ(lines[i], cases[i].second);
  EXPECT_EQ(api::JsonValue::parse(lines[0]).find("id")->as_string(),
            "a\"b\\c");
  EXPECT_EQ(router.counters().orphaned, 0u);
}

TEST(Router, WireLinesCarryTheClientsOwnBytes) {
  // A seeded differential over job lines: the id first, in the middle,
  // last, absent, or spelled "\u0069d"; nested objects; irregular
  // whitespace; a deadline_s with 17 significant digits. cat workers echo
  // each wire line, so every answer must parse to the client's id (or
  // "job-<seq>") followed by the client's other members in the client's
  // order and with the client's values: the deadline bit for bit, which a
  // 12-digit dump would round.
  common::Rng rng(22);
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  const auto space = [&rng] {
    static const char* const kSpaces[] = {"", " ", "  ", "\t", " \t "};
    return std::string(kSpaces[rng.uniform_int(0, 4)]);
  };
  struct Sent {
    std::string line;
    double deadline = 0.0;
  };
  std::map<std::string, Sent> sent;  // by the id the answer must carry
  constexpr int kLines = 200;
  for (int n = 0; n < kLines; ++n) {
    Sent job;
    job.deadline = 0.5 + static_cast<double>(rng() >> 11) * 0x1p-53;
    char deadline[40];
    std::snprintf(deadline, sizeof deadline, "%.17g", job.deadline);
    std::vector<std::string> members = {
        "\"soc\"" + space() + ":" + space() + "\"d695\"",
        "\"width\":" + space() + std::to_string(rng.uniform_int(1, 64)),
        "\"deadline_s\":" + space() + deadline,
        R"("options": {"max_tams": 4, "x": [1, {"id": "inner"}, null]})",
        R"("tag":"t\u00e9st, {\"id\": 1}")"};
    for (std::int64_t i = std::ssize(members) - 1; i > 0; --i)
      std::swap(members[static_cast<std::size_t>(i)],
                members[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    std::string id = "job-" + std::to_string(n + 1);
    const std::int64_t shape = rng.uniform_int(0, 4);  // 3: no id
    if (shape != 3) {
      id = "c" + std::to_string(n);
      const auto last = static_cast<std::int64_t>(members.size());
      const std::int64_t at = shape == 0   ? 0
                              : shape == 1 ? rng.uniform_int(1, last - 1)
                              : shape == 2 ? last
                                           : rng.uniform_int(0, last);
      members.insert(members.begin() + at,
                     std::string(shape == 4 ? R"("\u0069d")" : R"("id")") +
                         space() + ":" + space() + "\"" + id + "\"");
    }
    job.line = space() + "{" + space();
    for (std::size_t i = 0; i < members.size(); ++i)
      job.line += (i == 0 ? "" : space() + "," + space()) + members[i];
    job.line += space() + "}" + space();
    EXPECT_TRUE(router.handle_line(job.line));
    sent.emplace(id, std::move(job));
  }
  ASSERT_TRUE(collector->wait_for(kLines));
  const std::vector<std::string> lines = collector->lines();
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kLines));
  for (const std::string& line : lines) {
    const api::JsonValue answer = api::JsonValue::parse(line);
    const auto& members = answer.members();
    ASSERT_FALSE(members.empty());
    ASSERT_EQ(members.front().first, "id") << line;
    const auto it = sent.find(members.front().second.as_string());
    ASSERT_NE(it, sent.end()) << line;
    const api::JsonValue client = api::JsonValue::parse(it->second.line);
    std::vector<std::pair<std::string, std::string>> expected;
    for (const auto& [key, value] : client.members())
      if (key != "id") expected.emplace_back(key, value.dump_compact_string());
    std::vector<std::pair<std::string, std::string>> echoed;
    for (std::size_t i = 1; i < members.size(); ++i)
      echoed.emplace_back(members[i].first,
                          members[i].second.dump_compact_string());
    EXPECT_EQ(echoed, expected) << it->second.line;
    EXPECT_EQ(answer.find("deadline_s")->as_double(), it->second.deadline)
        << line;
    sent.erase(it);
  }
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(router.counters().orphaned, 0u);
}

TEST(Router, TornAndLateDuplicateResponsesAreOrphaned) {
  // Each job is answered three times: a torn prefix (what a worker
  // killed mid-write leaves behind), the whole line, and a late
  // duplicate (what a replay can produce). Only the whole line reaches
  // the client; the other two are counted and dropped. The tags put
  // braces, escaped quotes and escaped backslashes at every offset of an
  // 8-byte word, and one ends on an escaped backslash: only a check that
  // reads each escape right finds where a line's object closes.
  RouterOptions options;
  options.workers.push_back(WorkerSpec::local(
      {"/bin/sh", "-c",
       "while IFS= read -r line; do printf '%s\\n' \"${line%?}\"; "
       "printf '%s\\n%s\\n' \"$line\" \"$line\"; done"}));
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  std::vector<std::string> sent;
  for (const char* id : {"one", "two", "three"})
    sent.push_back("{\"id\": \"" + std::string(id) +
                   "\", \"soc\": \"d695\", \"width\": 16}");
  for (int offset = 0; offset < 16; ++offset)
    sent.push_back("{\"id\": \"t" + std::to_string(offset) +
                   "\", \"soc\": \"d695\", \"width\": 16, \"tag\": \"" +
                   std::string(static_cast<std::size_t>(offset), '}') +
                   R"(\"{\\\"}]\\\\\")" + std::string(8, '{') +
                   R"(\\")" + "}");
  for (const std::string& line : sent) EXPECT_TRUE(router.handle_line(line));
  ASSERT_TRUE(collector->wait_for(sent.size()));
  for (int i = 0; i < 400 && router.counters().orphaned < 2 * sent.size();
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(router.counters().orphaned, 2 * sent.size());
  EXPECT_EQ(collector->lines(), sent);
}

TEST(Router, OpLineCarryingAnIdStillAnswersTheBroadcast) {
  // An op's id is not forwarded, so no worker answer to an op can lead
  // with an id like "r1" and pass for job 1's response; the router puts
  // the id on its own answer instead. The worker echoes ops (as
  // wtam_serve echoes an op's id into its errors) and holds each job
  // until the next op, so job 1 is pending while the first op runs.
  RouterOptions options;
  options.workers.push_back(WorkerSpec::local(
      {"/bin/sh", "-c",
       "held=; while IFS= read -r line; do case \"$line\" in "
       "*'\"op\"'*) printf '%s\\n' \"$line\"; "
       "[ -n \"$held\" ] && printf '%s\\n' \"$held\"; held= ;; "
       "*) held=\"$line\" ;; esac; done"}));
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(
      router.handle_line(R"({"id": "first", "soc": "d695", "width": 16})"));
  // Job 1 ("r1" on the wire) is pending.
  EXPECT_TRUE(router.handle_line(R"({"id": "r1", "op": "frob"})"));
  ASSERT_TRUE(collector->wait_for(2));
  std::vector<std::string> lines = collector->lines();
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines[0], R"({"id": "first", "soc": "d695", "width": 16})");
  EXPECT_EQ(lines[1], R"({"id": "r1", "op": "frob"})");
  // Job 1 has been answered.
  EXPECT_TRUE(router.handle_line(R"({"op": "stats", "id": "r1"})"));
  EXPECT_TRUE(router.handle_line(R"({"op": "stats", "id": "x"})"));
  ASSERT_TRUE(collector->wait_for(4));
  lines = collector->lines();
  EXPECT_TRUE(
      lines[2].starts_with(R"({"id": "r1", "op": "stats", "workers": 1, )"))
      << lines[2];
  EXPECT_TRUE(
      lines[3].starts_with(R"({"id": "x", "op": "stats", "workers": 1, )"))
      << lines[3];
  EXPECT_EQ(router.counters().orphaned, 0u);
  EXPECT_EQ(router.counters().routed, 1u);
}

TEST(Router, MalformedClientLineIsAnsweredDirectly) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(1),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{not json"));
  EXPECT_TRUE(router.handle_line("{\"op\": 5}"));
  // Valid JSON, but no request: answered, and the router keeps going.
  EXPECT_TRUE(router.handle_line("[1, 2]"));
  EXPECT_TRUE(router.handle_line("5"));
  ASSERT_TRUE(collector->wait_for(4));
  for (const std::string& line : collector->lines()) {
    const api::JsonValue value = api::JsonValue::parse(line);
    EXPECT_NE(value.find("error"), nullptr) << line;
  }
  EXPECT_EQ(router.counters().routed, 0u);
}

TEST(Router, OpFanOutMergesAcksAndAddsRouterSections) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  // cat echoes the op line itself, which doubles as a minimal ack.
  EXPECT_TRUE(router.handle_line("{\"op\": \"stats\"}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue merged =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_EQ(merged.find("op")->as_string(), "stats");
  EXPECT_EQ(merged.find("workers")->as_int(), 2);
  ASSERT_NE(merged.find("router"), nullptr);
  EXPECT_EQ(merged.find("router")->find("routed")->as_int(), 0);
}

/// A worker that answers every metrics op with the fixed `ack` and
/// echoes every other line (so jobs come back as with cat).
WorkerSpec metrics_worker(const std::string& ack) {
  return WorkerSpec::local(
      {"/bin/sh", "-c",
       "while IFS= read -r line; do case \"$line\" in "
       "*'\"op\": \"metrics\"'*) printf '%s\\n' '" + ack + "' ;; "
       "*) printf '%s\\n' \"$line\" ;; esac; done"});
}

/// `registry`'s snapshot as wtam_serve's metrics ack line.
std::string metrics_ack(const obs::MetricsRegistry& registry) {
  return obs::metrics_response(registry.snapshot(), /*prometheus=*/false)
      .dump_compact_string();
}

TEST(Router, MetricsMergesWorkerSnapshotsExactly) {
  // Each worker holds half the samples; the fleet scrape must report
  // what one process holding all of them would, percentiles included.
  obs::MetricsRegistry halves[2];
  obs::MetricsRegistry whole;
  for (std::int64_t v = 1; v <= 41; ++v) {
    halves[v % 2].histogram("solver.solve_ns").record(v * v * 1000);
    whole.histogram("solver.solve_ns").record(v * v * 1000);
  }
  halves[0].counter("serve.jobs_completed").increment(3);
  halves[1].counter("serve.jobs_completed").increment(4);
  RouterOptions options;
  options.workers = {metrics_worker(metrics_ack(halves[0])),
                     metrics_worker(metrics_ack(halves[1]))};
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"metrics\", \"drain\": true}"));
  EXPECT_TRUE(router.handle_line(
      "{\"op\": \"metrics\", \"format\": \"prometheus\"}"));
  ASSERT_TRUE(collector->wait_for(2));

  const api::JsonValue merged =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_EQ(merged.find("op")->as_string(), "metrics");
  EXPECT_EQ(merged.find("workers")->as_int(), 2);
  EXPECT_EQ(merged.find("worker_errors"), nullptr);
  const api::JsonValue* counters = merged.find("counters");
  EXPECT_EQ(counters->find("serve.jobs_completed")->as_int(), 7);
  EXPECT_EQ(counters->find("serve.router.routed")->as_int(), 0);
  EXPECT_EQ(merged.find("histograms")->dump_compact_string(),
            obs::metrics_to_json(whole.snapshot())
                .find("histograms")
                ->dump_compact_string());

  const std::string body =
      api::JsonValue::parse(collector->lines().back()).find("body")->as_string();
  EXPECT_NE(body.find("serve_jobs_completed 7"), std::string::npos) << body;
  for (const char* q : {"0.5", "0.9", "0.95", "0.99"})
    EXPECT_NE(body.find("solver_solve_ns{quantile=\"" + std::string(q) + "\"}"),
              std::string::npos)
        << body;
}

TEST(Router, MalformedMetricsAckCountsAsAWorkerError) {
  // Regressions: a histogram without "min" used to crash the router, and
  // a string counter threw out of handle_line and ended the process.
  obs::MetricsRegistry good;
  good.counter("serve.jobs_completed").increment(2);
  const std::vector<std::string> bad_acks = {
      R"({"op": "metrics", "counters": {}, "gauges": {}, "histograms":)"
      R"( {"serve.job_ns": {"count": 1, "sum": 5, "max": 5,)"
      R"( "buckets": [[5, 1]]}}})",
      R"({"op": "metrics", "counters": {"serve.jobs_completed": "7"},)"
      R"( "gauges": {}, "histograms": {}})",
  };
  for (const std::string& bad : bad_acks) {
    RouterOptions options;
    options.workers = {metrics_worker(metrics_ack(good)),
                       metrics_worker(bad)};
    auto collector = std::make_shared<Collector>();
    Router router(std::move(options),
                  [collector](const std::string& line) { (*collector)(line); });
    EXPECT_TRUE(router.handle_line("{\"op\": \"metrics\"}"));
    ASSERT_TRUE(collector->wait_for(1));
    const api::JsonValue merged =
        api::JsonValue::parse(collector->lines().front());
    ASSERT_NE(merged.find("worker_errors"), nullptr) << bad;
    EXPECT_EQ(merged.find("worker_errors")->as_int(), 1);
    EXPECT_EQ(
        merged.find("counters")->find("serve.jobs_completed")->as_int(), 2);
    // The router is still up and routing.
    EXPECT_TRUE(router.handle_line(
        "{\"id\": \"after\", \"soc\": \"d695\", \"width\": 16}"));
    ASSERT_TRUE(collector->wait_for(2));
    std::vector<api::JsonValue> storage;
    EXPECT_NE(find_line_with_id(collector->lines(), storage, "after"),
              nullptr);
  }
}

TEST(Router, AnAckOverTheBoundEndsTheBroadcastAsAWorkerError) {
  // A worker that answers stats with a 9 MiB line: no reader takes it,
  // so its reader hands the router an empty line. The broadcast must not
  // wait for an ack that never comes: the worker's slot becomes an error,
  // counted in worker_errors, and jobs before and after are echoed. A
  // router that waited anyway is unblocked by killing the worker after
  // 60 s, which the respawn count then shows.
  const std::string pid_file = ::testing::TempDir() + "router_big_ack_" +
                               std::to_string(::getpid());
  RouterOptions options;
  options.workers = {
      WorkerSpec::local(
          {"/bin/sh", "-c",
           "echo $$ > '" + pid_file +
               "'; while IFS= read -r line; do case \"$line\" in "
               "*'\"op\": \"stats\"'*) head -c 9437184 /dev/zero | "
               "tr '\\0' x; echo ;; "
               "*) printf '%s\\n' \"$line\" ;; esac; done"}),
      WorkerSpec::local(cat_worker())};
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  std::atomic<bool> done{false};
  std::thread watchdog([&done, &pid_file] {
    for (int i = 0; i < 1200 && !done.load(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream in(pid_file);
    pid_t pid = 0;
    if (!done.load() && in >> pid) ::kill(pid, SIGKILL);
  });
  for (const char* line :
       {R"({"id": "before", "soc": "d695", "width": 16})", R"({"op": "stats"})",
        R"({"id": "after", "soc": "d695", "width": 17})"})
    EXPECT_TRUE(router.handle_line(line));
  done.store(true);
  watchdog.join();
  std::remove(pid_file.c_str());
  ASSERT_TRUE(collector->wait_for(3));
  std::vector<std::string> lines = collector->lines();
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines[0], R"({"id": "after", "soc": "d695", "width": 17})");
  EXPECT_EQ(lines[1], R"({"id": "before", "soc": "d695", "width": 16})");
  const api::JsonValue merged = api::JsonValue::parse(lines[2]);
  EXPECT_EQ(merged.find("op")->as_string(), "stats") << lines[2];
  EXPECT_EQ(merged.find("workers")->as_int(), 2);
  ASSERT_NE(merged.find("worker_errors"), nullptr) << lines[2];
  EXPECT_EQ(merged.find("worker_errors")->as_int(), 1);
  EXPECT_EQ(router.counters().respawns, 0u);
}

TEST(Router, KillWorkerAcksAfterTheRespawnCompletes) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"kill_worker\", \"worker\": 0}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue ack =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_TRUE(ack.find("ok")->as_bool());
  EXPECT_TRUE(ack.find("respawned")->as_bool());
  // Synchronous contract: by ack time the respawn is counted and the
  // slot is live again — no racing the respawn window.
  EXPECT_EQ(router.counters().respawns, 1u);
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"after\", \"soc\": \"d695\", \"width\": 16}"));
  ASSERT_TRUE(collector->wait_for(2));
  std::vector<api::JsonValue> storage;
  EXPECT_NE(find_line_with_id(collector->lines(), storage, "after"), nullptr);
}

TEST(Router, KillWorkerOutOfRangeIsAnError) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(1),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"kill_worker\", \"worker\": 7}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue value =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_NE(value.find("error"), nullptr);
}

TEST(Router, RespawnsDeadWorkerAndReplaysInFlightJobs) {
  // First incarnation: consume one line and die without answering (a
  // crash with a job in flight). The flag file makes every respawn an
  // honest echo worker, so the replay completes.
  const std::string flag =
      ::testing::TempDir() + "router_respawn_flag_" +
      std::to_string(::getpid());
  std::remove(flag.c_str());
  const std::string script = "if [ ! -e '" + flag +
                             "' ]; then : > '" + flag +
                             "'; IFS= read -r line; exit 0; "
                             "else exec /bin/cat; fi";
  RouterOptions options;
  options.workers.push_back(WorkerSpec::local({"/bin/sh", "-c", script}));
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"survivor\", \"soc\": \"d695\", \"width\": 24}"));
  // The crash eats the job; the respawned cat echoes the replayed line.
  ASSERT_TRUE(collector->wait_for(1));
  std::vector<api::JsonValue> storage;
  const api::JsonValue* response =
      find_line_with_id(collector->lines(), storage, "survivor");
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->find("width")->as_int(), 24);
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.respawns, 1u);
  EXPECT_EQ(counters.replayed, 1u);
  std::remove(flag.c_str());
}

TEST(Router, ShedsWhenTheTargetWorkerIsAtItsQueueLimit) {
  // The worker holds the first job until a second line arrives, giving
  // a deterministic window in which the queue sits at its limit — no
  // timing assumptions.
  RouterOptions options;
  options.workers.push_back(WorkerSpec::local(
      {"/bin/sh", "-c",
       "IFS= read -r a; IFS= read -r b; "
       "printf '%s\\n' \"$a\" \"$b\"; exec /bin/cat"}));
  options.queue_limit = 1;
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"held\", \"soc\": \"d695\", \"width\": 16}"));
  // Worker 0 now has one job in flight; the limit is 1 → shed.
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"refused\", \"soc\": \"d695\", \"width\": 17}"));
  ASSERT_TRUE(collector->wait_for(1));
  std::vector<api::JsonValue> storage;
  const api::JsonValue* shed =
      find_line_with_id(collector->lines(), storage, "refused");
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->find("status")->as_string(), "overloaded");
  EXPECT_NE(shed->find("error"), nullptr);
  // The op broadcast is the worker's second line: it releases the held
  // job and acks the stats, whose router section shows the shed.
  EXPECT_TRUE(router.handle_line("{\"op\": \"stats\"}"));
  ASSERT_TRUE(collector->wait_for(3));
  storage.clear();
  const api::JsonValue* released =
      find_line_with_id(collector->lines(), storage, "held");
  ASSERT_NE(released, nullptr);
  const RouterCounters counters = router.counters();
  EXPECT_EQ(counters.routed, 1u);
  EXPECT_EQ(counters.shed, 1u);
  bool saw_stats = false;
  for (const std::string& line : collector->lines()) {
    const api::JsonValue value = api::JsonValue::parse(line);
    const api::JsonValue* router_section = value.find("router");
    if (router_section == nullptr) continue;
    saw_stats = true;
    EXPECT_EQ(router_section->find("shed")->as_int(), 1);
  }
  EXPECT_TRUE(saw_stats);
}

TEST(Router, ShutdownFansOutMergesAndStopsTheFleet) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_FALSE(router.handle_line("{\"op\": \"shutdown\"}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue ack =
      api::JsonValue::parse(collector->lines().back());
  EXPECT_EQ(ack.find("op")->as_string(), "shutdown");
  EXPECT_EQ(ack.find("workers")->as_int(), 2);
  // Idempotent: a second shutdown (or the EOF path) is a no-op.
  EXPECT_FALSE(router.handle_line("{\"op\": \"shutdown\"}"));
  router.shutdown();
}

TEST(Router, EmptyFleetIsRejected) {
  EXPECT_THROW(Router(RouterOptions{}, [](const std::string&) {}),
               std::invalid_argument);
}

TEST(Router, MissingWorkerBinaryFailsTheBoot) {
  RouterOptions options;
  options.workers.push_back(
      WorkerSpec::local({"/nonexistent/worker/binary/hopefully"}));
  EXPECT_THROW(Router(std::move(options), [](const std::string&) {}),
               std::runtime_error);
}

TEST(Router, PingIsAnsweredByTheRouterItselfAndEchoesSeq) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"ping\", \"seq\": 41}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue ack =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_EQ(ack.find("op")->as_string(), "ping");
  EXPECT_TRUE(ack.find("ok")->as_bool());
  EXPECT_EQ(ack.find("seq")->as_int(), 41);
  EXPECT_EQ(ack.find("workers")->as_int(), 2);
  // cat workers never saw a line: the router answers pings itself, so a
  // busy fleet cannot make the router look dead.
  EXPECT_EQ(router.counters().routed, 0u);
}

TEST(Router, HealthThreadSeversAWorkerThatNeverPongs) {
  // cat echoes the ping line verbatim — which IS a valid pong (op ping,
  // seq echoed), so a healthy cat worker survives the health thread.
  // A worker that swallows input (sh reading forever without printing)
  // misses its deadline, is severed, and comes back as a cat.
  const std::string flag =
      ::testing::TempDir() + "router_health_flag_" +
      std::to_string(::getpid());
  std::remove(flag.c_str());
  const std::string script = "if [ ! -e '" + flag + "' ]; then : > '" +
                             flag +
                             "'; while IFS= read -r line; do :; done; "
                             "else exec /bin/cat; fi";
  RouterOptions options;
  options.workers.push_back(WorkerSpec::local({"/bin/sh", "-c", script}));
  options.workers.push_back(WorkerSpec::local(cat_worker()));
  options.ping_interval = std::chrono::milliseconds(50);
  options.ping_deadline = std::chrono::milliseconds(200);
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  // Wait (bounded) for the health thread to sever the mute worker and
  // for its replacement to boot. The respawn happens on the reader
  // thread after the sever lands, so poll for both counters.
  bool recovered = false;
  for (int i = 0; i < 2000 && !recovered; ++i) {
    const RouterCounters snap = router.counters();
    recovered = snap.health_severed >= 1 && snap.respawns >= 1;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(router.counters().pings, 1u);
  // The fleet still works end to end after the sever+respawn.
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"after-sever\", \"soc\": \"d695\", \"width\": 16}"));
  std::vector<api::JsonValue> storage;
  bool answered = false;
  for (int i = 0; i < 2000 && !answered; ++i) {
    answered = find_line_with_id(collector->lines(), storage,
                                 "after-sever") != nullptr;
    storage.clear();
    if (!answered) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(answered);
  std::remove(flag.c_str());
}

TEST(Router, ResizeWithoutAFleetFactoryIsRefused) {
  auto collector = std::make_shared<Collector>();
  Router router(cat_fleet(2),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"resize\", \"workers\": 3}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue value =
      api::JsonValue::parse(collector->lines().front());
  EXPECT_NE(value.find("error"), nullptr);
  EXPECT_EQ(router.counters().resizes, 0u);
}

TEST(Router, ResizeRebootsTheFleetAtTheNewSize) {
  RouterOptions options;
  options.workers = {WorkerSpec::local(cat_worker()),
                     WorkerSpec::local(cat_worker())};
  options.fleet_factory = [](std::size_t count) {
    std::vector<WorkerSpec> specs;
    for (std::size_t i = 0; i < count; ++i)
      specs.push_back(WorkerSpec::local(cat_worker()));
    return specs;
  };
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line("{\"op\": \"resize\", \"workers\": 3}"));
  ASSERT_TRUE(collector->wait_for(1));
  const api::JsonValue ack =
      api::JsonValue::parse(collector->lines().front());
  ASSERT_EQ(ack.find("op")->as_string(), "resize") << collector->lines().front();
  EXPECT_TRUE(ack.find("ok")->as_bool());
  EXPECT_EQ(ack.find("workers")->as_int(), 3);
  EXPECT_EQ(router.workers(), 3);
  EXPECT_EQ(router.counters().resizes, 1u);
  // The rebooted fleet routes jobs as before.
  EXPECT_TRUE(router.handle_line(
      "{\"id\": \"post-resize\", \"soc\": \"d695\", \"width\": 20}"));
  ASSERT_TRUE(collector->wait_for(2));
  std::vector<api::JsonValue> storage;
  EXPECT_NE(find_line_with_id(collector->lines(), storage, "post-resize"),
            nullptr);
}

TEST(Router, AVerbSendsTheJobLinesQueuedAheadOfIt) {
  // A batched job line waits in its worker link's queue. The resize after
  // it drains the fleet, which ends only once that job is answered, so
  // the verb must send the queue first; left queued, the job times the
  // drain out and the resize fails.
  RouterOptions options = cat_fleet(2);
  options.fleet_factory = [](std::size_t count) {
    return std::vector<WorkerSpec>(count, WorkerSpec::local(cat_worker()));
  };
  auto collector = std::make_shared<Collector>();
  Router router(std::move(options),
                [collector](const std::string& line) { (*collector)(line); });
  EXPECT_TRUE(router.handle_line(
      R"({"id": "queued", "soc": "d695", "width": 16})", /*batched=*/true));
  EXPECT_TRUE(router.handle_line(R"({"op": "resize", "workers": 1})",
                                 /*batched=*/true));
  router.flush();
  ASSERT_TRUE(collector->wait_for(2));
  std::vector<std::string> lines = collector->lines();
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines[0], R"({"id": "queued", "soc": "d695", "width": 16})");
  const api::JsonValue ack = api::JsonValue::parse(lines[1]);
  EXPECT_EQ(ack.find("op")->as_string(), "resize") << lines[1];
  EXPECT_TRUE(ack.find("ok")->as_bool()) << lines[1];
  EXPECT_EQ(router.workers(), 1);
}

// ---- real wtam_serve workers -----------------------------------------------

TEST(RouterFleet, LinesOverTheBoundAreAnsweredOnceOnPipesAndTcp) {
  // No reader takes a line over the 8 MiB framing bound, so a fleet that
  // sent one on would leave its job unanswered. "big" fits the bound but
  // its tag, echoed into the answer, does not: the worker answers with an
  // error instead. The id-less second line (job-2) fills the bound; the
  // internal id the router adds takes its wire line past it, so the
  // router answers it. Every id gets exactly one answer, over pipes and
  // over TCP alike.
  const auto sized = [](std::string head, std::size_t size) {
    head.append(size - head.size() - 2, 't');
    return head + "\"}";
  };
  const std::string big = sized(
      R"({"id": "big", "soc": "d695", "width": 16, "tag": ")", 8388574);
  const std::string routed = sized(R"({"soc": "d695", "width": 16, "tag": ")",
                                   net::Connection::kDefaultMaxLineBytes);
  const std::string small = R"({"id": "small", "soc": "d695", "width": 16})";

  const std::string port_file = testing::TempDir() + "wtam_router_bound_" +
                                std::to_string(::getpid());
  std::remove(port_file.c_str());
  common::Subprocess remote({WTAM_SERVE_BINARY, "--listen", "127.0.0.1:0",
                             "--port-file", port_file, "--quiet",
                             "--threads", "1"});
  const std::string endpoint = test_support::read_port_file(port_file);
  ASSERT_FALSE(endpoint.empty());
  std::remove(port_file.c_str());

  for (const WorkerSpec& spec :
       {WorkerSpec::local({WTAM_SERVE_BINARY, "--quiet", "--threads", "1"}),
        WorkerSpec::connect(endpoint)}) {
    SCOPED_TRACE(spec.remote() ? "tcp fleet" : "pipe fleet");
    RouterOptions options;
    options.workers = {spec};
    auto collector = std::make_shared<Collector>();
    Router router(std::move(options),
                  [collector](const std::string& line) { (*collector)(line); });
    for (const std::string* line : {&big, &routed, &small})
      EXPECT_TRUE(router.handle_line(*line));
    // Bounded: a lost answer fails the test instead of hanging it.
    EXPECT_TRUE(collector->wait_for(3));
    router.shutdown();

    std::map<std::string, std::vector<std::string>> answers;  // cut short
    for (const std::string& line : collector->lines()) {
      const api::JsonValue value = api::JsonValue::parse(line);
      const api::JsonValue* id = value.find("id");
      answers[id != nullptr ? id->as_string() : ""].push_back(
          line.substr(0, 120));
    }
    EXPECT_EQ(answers.size(), 3u);
    EXPECT_EQ(answers["big"],
              std::vector<std::string>{
                  R"({"id": "big", "error": "answer exceeds the )"
                  R"(line-length bound"})"});
    EXPECT_EQ(answers["job-2"],
              std::vector<std::string>{
                  R"({"id": "job-2", "error": "job exceeds the )"
                  R"(line-length bound once routed; not forwarded"})"});
    ASSERT_EQ(answers["small"].size(), 1u);
    EXPECT_TRUE(answers["small"].front().starts_with(
        R"({"id": "small", "status": "ok", )"));
  }
}

// ---- the wtam_router binary ------------------------------------------------

/// Job `i` of the bulk check: eight shapes in turn, four named d695
/// points and four inline SOCs, one of those CRLF-saved and commented.
std::string bulk_job(int i) {
  static const char* const kSources[] = {
      R"("soc": "d695", "backend": "rectpack", "width": 12)",
      R"("soc": "d695", "backend": "rectpack", "width": 13)",
      R"("soc": "d695", "backend": "rectpack", "width": 14)",
      R"("soc": "d695", "backend": "rectpack", "width": 15)",
      R"("soc_inline": "soc bulk_a\ncore a patterns=5 inputs=2 outputs=2 )"
      R"(scan=3,4\ncore b patterns=9 inputs=4 outputs=1 scan=\n", "width": 4)",
      R"("soc_inline": "# saved on Windows\r\nsoc bulk_a\r\ncore a )"
      R"(patterns=5 inputs=2 outputs=2 scan=3,4\r\ncore b patterns=9 )"
      R"(inputs=4 outputs=1 scan=\r\n", "width": 4)",
      R"("soc_inline": "soc bulk_b\ncore m kind=memory patterns=40 )"
      R"(inputs=8 outputs=8 scan=\ncore l patterns=12 inputs=3 outputs=5 )"
      R"(scan=6,6,2\ncore k patterns=7 inputs=1 outputs=1 scan=9\n", )"
      R"("width": 5)",
      R"("soc_inline": "soc bulk_b\ncore m kind=memory patterns=40 )"
      R"(inputs=8 outputs=8 scan=\ncore l patterns=12 inputs=3 outputs=5 )"
      R"(scan=6,6,2\ncore k patterns=7 inputs=1 outputs=1 scan=9\n", )"
      R"("width": 6)",
  };
  return "{\"id\": \"b" + std::to_string(i) + "\", " + kSources[i % 8] + "}";
}

TEST(RouterBinary, BulkStdinAnswersEveryIdExactlyOnce) {
  // The real wtam_router over two real workers: one thread writes 7200
  // jobs to its stdin, one line per write, while this thread reads its
  // stdout, so the router's main thread keeps reading while its reader
  // threads write responses. With stdio unsynced, a cin still tied to
  // cout flushes cout before every read, from the main thread and
  // outside the sink lock; responses then came back duplicated or lost.
  constexpr int kJobs = 7200;
  common::Subprocess router({WTAM_ROUTER_BINARY, "--quiet", "--workers", "2",
                             "--serve", WTAM_SERVE_BINARY});
  std::thread writer([&router] {
    for (int i = 0; i < kJobs; ++i)
      if (!router.write_line(bulk_job(i))) return;
    (void)router.write_line(R"({"op": "shutdown"})");
  });
  std::vector<int> answers(kJobs, 0);
  int unexpected = 0;
  std::string first_unexpected;
  const std::string lead = R"({"id": "b)";
  const std::string ok = R"(", "status": "ok", )";
  while (const std::optional<std::string> line = router.read_line()) {
    if (line->starts_with(R"({"op": "shutdown")")) continue;
    const std::size_t close = line->find('"', lead.size());
    int id = -1;
    if (line->starts_with(lead) && close != std::string::npos &&
        line->compare(close, ok.size(), ok) == 0)
      id = std::stoi(line->substr(lead.size(), close - lead.size()));
    if (id < 0 || id >= kJobs) {
      if (unexpected++ == 0) first_unexpected = *line;
      continue;
    }
    ++answers[static_cast<std::size_t>(id)];
  }
  writer.join();
  const int status = router.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_EQ(unexpected, 0) << first_unexpected.substr(0, 200);
  int missing = 0;
  int duplicated = 0;
  for (const int count : answers) {
    missing += count == 0 ? 1 : 0;
    duplicated += count > 1 ? count - 1 : 0;
  }
  EXPECT_EQ(missing, 0);
  EXPECT_EQ(duplicated, 0);
}

TEST(RouterBinary, BurstsAreAnsweredWithStdinHeldOpen) {
  // The router's stdin loop queues a burst's job lines per worker and
  // its reader threads queue the workers' answers: with stdin held open
  // after each one-write() burst, every queue must be sent before its
  // loop blocks. The stats verb sends the job lines queued ahead of it.
  common::Subprocess router({WTAM_ROUTER_BINARY, "--quiet", "--workers", "2",
                             "--serve", WTAM_SERVE_BINARY});
  test_support::expect_bursts_answered(router);
  router.close_stdin();
  const int status = router.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

TEST(RouterBinary, StdinLineOverTheBoundIsAnsweredAndReadingGoesOn) {
  // Router stdin is bounded like every other hop: the 9 MiB line is
  // answered with the framing error and never forwarded, and the next
  // line is served.
  common::Subprocess router({WTAM_ROUTER_BINARY, "--quiet", "--workers", "1",
                             "--serve", WTAM_SERVE_BINARY});
  EXPECT_TRUE(router.write_line(std::string(9u << 20, 'x')));
  EXPECT_TRUE(router.write_line(R"({"op": "ping", "seq": 7})"));
  router.close_stdin();
  std::vector<std::string> lines;
  while (const std::optional<std::string> line = router.read_line())
    lines.push_back(*line);
  const int status = router.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_EQ(lines,
            (std::vector<std::string>{
                R"({"error": "line 1: frame exceeds the line-length )"
                R"(bound; resynced at the next newline"})",
                R"({"op": "ping", "ok": true, "seq": 7, "workers": 1})"}));
}

TEST(RouterBinary, WorkerErrorsOverTheBoundAreAnsweredOnce) {
  // A worker's error can echo its input with extra text. Here that text
  // would take two errors past the bound: for an unknown op whose line
  // is at the bound, and for an unknown field whose routed line
  // {"id": "r1", "<key>":0} is at the bound. The worker answers each
  // with the fixed over-bound error instead, so the op's broadcast ends,
  // the job is answered, and the ping after them is served.
  const std::size_t bound = common::kDefaultMaxLineBytes;
  const std::string op = R"({"op":")" + std::string(bound - 9, 'v') + "\"}";
  const std::string job = "{\"" + std::string(bound - 18, 'k') + "\":0}";
  common::Subprocess router({WTAM_ROUTER_BINARY, "--quiet", "--workers", "1",
                             "--serve", WTAM_SERVE_BINARY});
  std::vector<std::string> lines;
  {
    // A lost answer leaves the router waiting for it forever, no longer
    // reading stdin: the watchdog then kills it, so the test fails on
    // the missing lines instead of hanging.
    const test_support::Watchdog watchdog(router);
    EXPECT_TRUE(router.write_line(op));
    EXPECT_TRUE(router.write_line(job));
    EXPECT_TRUE(router.write_line(R"({"op": "ping", "seq": 7})"));
    router.close_stdin();
    while (const std::optional<std::string> line = router.read_line())
      lines.push_back(line->substr(0, 120));  // cut short
  }
  const int status = router.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  // The job is answered from a reader thread, so it may follow the ping.
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines,
            (std::vector<std::string>{
                R"({"error": "answer exceeds the line-length bound"})",
                R"({"id": "job-1", "error": "answer exceeds the )"
                R"(line-length bound"})",
                R"({"op": "ping", "ok": true, "seq": 7, "workers": 1})"}));
}

}  // namespace
}  // namespace wtam::serve
