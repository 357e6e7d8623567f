#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "api/cache_store.hpp"
#include "api/request_key.hpp"
#include "common/subprocess.hpp"
#include "common/thread_annotations.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "one_burst.hpp"
#include "port_file.hpp"
#include "serve/service.hpp"

namespace wtam::serve {
namespace {

/// A thread-safe sink: Service answers jobs from its pool threads.
class Lines {
 public:
  void add(const std::string& line) {
    const common::MutexLock lock(mutex_);
    lines_.push_back(line);
  }

  [[nodiscard]] std::vector<std::string> take() {
    const common::MutexLock lock(mutex_);
    return std::move(lines_);
  }

 private:
  common::Mutex mutex_;
  std::vector<std::string> lines_ WTAM_GUARDED_BY(mutex_);
};

TEST(Service, JobAnswersLeadWithTheirId) {
  // The fleet router restores client ids by splicing over the leading
  // {"id": "r<seq>" of a worker's answer, without parsing it. So every
  // answer to a job line leads with the job's id: a result, a solver
  // error, a field error and a shed job alike.
  ServiceOptions options;
  options.threads = 1;
  options.queue_limit = 1;
  Service service(options);
  Lines lines;
  const Service::Sink sink = [&lines](const std::string& line) {
    lines.add(line);
  };
  const std::vector<std::string> jobs = {
      // Holds the one thread until its deadline, so of r2 and r3 (one
      // queued, one over the limit) at least one is shed.
      R"({"id": "r1", "soc": "p93791", "width": 48, "width_max": 128,)"
      R"( "max_tams": 16, "deadline_s": 0.3})",
      R"({"id": "r2", "soc": "d695", "width": 16})",
      R"({"id": "r3", "soc": "d695", "width": 24})",
      R"({"id": "r4", "soc": "d695", "width": "wide"})",
  };
  std::uint64_t line_number = 0;
  for (const std::string& job : jobs)
    EXPECT_EQ(service.handle_line(job, ++line_number, sink),
              Service::Action::Continue);
  service.drain_and_save();
  // One at a time, so neither is shed.
  for (const char* job :
       {R"({"id": "r5", "soc": "no_such.soc", "width": 16})",
        R"({"id": "r6", "soc": "d695", "width": 32})"}) {
    EXPECT_EQ(service.handle_line(job, ++line_number, sink),
              Service::Action::Continue);
    service.drain_and_save();
  }

  const std::vector<std::string> answers = lines.take();
  ASSERT_EQ(answers.size(), jobs.size() + 2);
  int shed = 0;
  std::vector<std::string> ids;
  for (const std::string& answer : answers) {
    ASSERT_TRUE(answer.starts_with("{\"id\": \"r")) << answer;
    ids.push_back(answer.substr(8, 2));
    if (answer.find("\"status\": \"overloaded\"") != std::string::npos) ++shed;
  }
  EXPECT_GE(shed, 1);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"r1", "r2", "r3", "r4", "r5",
                                           "r6"}));
  // The field error and the solver error are among them.
  const auto answer_of = [&answers](const std::string& id) {
    for (const std::string& answer : answers)
      if (answer.starts_with("{\"id\": \"" + id + "\"")) return answer;
    return std::string();
  };
  EXPECT_NE(answer_of("r4").find("\"error\""), std::string::npos);
  EXPECT_NE(answer_of("r5").find("\"status\": \"invalid_request\""),
            std::string::npos);
  EXPECT_NE(answer_of("r6").find("\"status\": \"ok\""), std::string::npos);
}

/// Sends the verb `op` and returns its answer (verbs answer inline).
api::JsonValue op_answer(Service& service, const std::string& op) {
  api::JsonValue answer;
  (void)service.handle_line(op, 0, [&answer](const std::string& line) {
    answer = api::JsonValue::parse(line);
  });
  return answer;
}

/// A count in a stats answer's `section` (the top level when empty), or a
/// counter of a JSON metrics answer (0 when never incremented).
std::int64_t count_in(const api::JsonValue& answer, const char* section,
                      const char* name) {
  const api::JsonValue* group = *section ? answer.find(section) : &answer;
  const api::JsonValue* value = group ? group->find(name) : nullptr;
  return value ? value->as_int() : 0;
}

/// Holds a one-thread Service's worker until its 1 s deadline.
constexpr const char* kBlocker =
    R"({"id": "blocker", "soc": "p93791", "width": 48, "width_max": 128,)"
    R"( "max_tams": 16, "deadline_s": 1})";

/// `answer` without its id and its trace, and with the cache outcome
/// blanked: what a hit shares byte for byte with the cold solve.
std::string payload_of(const std::string& answer) {
  std::string payload = answer.substr(answer.find("\", ") + 3);
  payload = payload.substr(0, payload.find(", \"trace\": "));
  for (const char* cache : {"\"cache\": \"hit\"", "\"cache\": \"miss\""})
    if (const std::size_t at = payload.find(cache); at != std::string::npos)
      payload.replace(at, std::string(cache).size(), "\"cache\": \"-\"");
  return payload;
}

TEST(Service, StoredJobsAreAnsweredOnTheReadingThread) {
  // A job whose every width the cache stores needs no engine: it is
  // answered before handle_line returns, ahead of the deadline-bound
  // sweep that holds the one worker thread, with the bytes and trace
  // stages of a hit. A sweep with one width missing needs an engine: it
  // waits its turn, and its probe counts nothing.
  ServiceOptions options;
  options.threads = 1;
  options.trace = true;
  Service service(options);
  Lines lines;
  const Service::Sink sink = [&lines](const std::string& line) {
    lines.add(line);
  };
  std::uint64_t line_number = 0;
  const auto send = [&](const std::string& line) {
    EXPECT_EQ(service.handle_line(line, ++line_number, sink),
              Service::Action::Continue);
  };
  const char* const kDrain = R"({"op": "metrics", "drain": true})";
  const api::JsonValue before = op_answer(service, kDrain);

  send(R"({"id": "w16", "soc": "d695", "width": 16})");
  send(R"({"id": "w17", "soc": "d695", "width": 17})");
  service.drain_and_save();
  send(kBlocker);
  send(R"({"id": "stored", "soc": "d695", "width": 16})");
  std::vector<std::string> answers = lines.take();
  ASSERT_EQ(answers.size(), 3u);
  const std::string& stored = answers[2];
  ASSERT_TRUE(stored.starts_with(R"({"id": "stored", "status": "ok", )"))
      << stored;
  EXPECT_NE(stored.find(R"("cache": "hit")"), std::string::npos);
  EXPECT_EQ(payload_of(stored), payload_of(answers[0]));
  const api::JsonValue stored_json = api::JsonValue::parse(stored);
  ASSERT_NE(stored_json.find("trace"), nullptr);
  std::vector<std::string> stages;
  for (const api::JsonValue& span : stored_json.find("trace")->elements())
    stages.push_back(span.find("stage")->as_string());
  EXPECT_EQ(stages, (std::vector<std::string>{"queue-wait", "soc-resolve",
                                              "cache-lookup"}));

  send(R"({"id": "sweep", "soc": "d695", "width": 16, "width_max": 18})");
  const api::JsonValue metrics = op_answer(service, kDrain);
  const api::JsonValue stats = op_answer(service, R"({"op": "stats"})");
  answers = lines.take();
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers[0].starts_with(
      R"({"id": "blocker", "status": "deadline_exceeded", )"));
  EXPECT_TRUE(answers[1].starts_with(R"({"id": "sweep", "status": "ok", )"));
  EXPECT_NE(answers[1].find(R"("cache": "miss")"), std::string::npos);

  // Five jobs, each counted once, in stats and in the scrape alike. The
  // cache saw w16 and w17 miss, the stored job hit, and the sweep hit
  // twice and miss once: its failed probe added nothing.
  EXPECT_EQ(count_in(stats, "", "accepted"), 5);
  EXPECT_EQ(count_in(stats, "", "completed"), 5);
  EXPECT_EQ(count_in(stats, "", "shed"), 0);
  EXPECT_EQ(count_in(stats, "cache", "hits"), 3);
  EXPECT_EQ(count_in(stats, "cache", "misses"), 3);
  EXPECT_EQ(count_in(metrics, "counters", "serve.cache.hits"), 3);
  EXPECT_EQ(count_in(metrics, "counters", "serve.cache.misses"), 3);
  const auto delta = [&](const char* name) {
    return count_in(metrics, "counters", name) -
           count_in(before, "counters", name);
  };
  EXPECT_EQ(delta("serve.jobs_accepted"), 5);
  EXPECT_EQ(delta("serve.jobs_completed"), 5);
  EXPECT_EQ(delta("solver.requests"), 5);
  EXPECT_EQ(delta("solver.cache.hit"), 1);
  EXPECT_EQ(delta("solver.cache.miss"), 3);
  EXPECT_EQ(delta("solver.cache.bypass"), 1);
  EXPECT_EQ(delta("solver.status.ok"), 4);
  EXPECT_EQ(delta("solver.status.deadline_exceeded"), 1);
  const auto job_ns_samples = [](const api::JsonValue& answer) {
    const api::JsonValue* job_ns =
        answer.find("histograms")->find("serve.job_ns");
    return job_ns ? job_ns->find("count")->as_int() : 0;
  };
  EXPECT_EQ(job_ns_samples(metrics) - job_ns_samples(before), 5);
}

TEST(Service, StoredJobsAreNeverShed) {
  // With the one worker busy and the queue at its limit, a cold job is
  // shed, but a stored job takes no queue slot and is answered.
  ServiceOptions options;
  options.threads = 1;
  options.queue_limit = 1;
  Service service(options);
  Lines lines;
  const Service::Sink sink = [&lines](const std::string& line) {
    lines.add(line);
  };
  std::uint64_t line_number = 0;
  const auto send = [&](const std::string& line) {
    EXPECT_EQ(service.handle_line(line, ++line_number, sink),
              Service::Action::Continue);
  };
  send(R"({"id": "warm", "soc": "d695", "width": 16})");
  service.drain_and_save();
  send(kBlocker);
  // Once the worker runs the blocker, one cold job fills the queue.
  for (int i = 0; i < 2000; ++i) {
    if (count_in(op_answer(service, R"({"op": "stats"})"), "", "running") > 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  send(R"({"id": "queued", "soc": "d695", "width": 24})");
  send(R"({"id": "stored", "soc": "d695", "width": 16})");
  send(R"({"id": "shed", "soc": "d695", "width": 25})");
  std::vector<std::string> answers = lines.take();
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_TRUE(answers[1].starts_with(R"({"id": "stored", "status": "ok", )"))
      << answers[1];
  EXPECT_NE(answers[1].find(R"("cache": "hit")"), std::string::npos);
  EXPECT_TRUE(
      answers[2].starts_with(R"({"id": "shed", "status": "overloaded", )"))
      << answers[2];

  service.drain_and_save();
  answers = lines.take();
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers[0].starts_with(R"({"id": "blocker", )"));
  EXPECT_TRUE(answers[1].starts_with(R"({"id": "queued", "status": "ok", )"));
  const api::JsonValue stats = op_answer(service, R"({"op": "stats"})");
  EXPECT_EQ(count_in(stats, "", "accepted"), 4);
  EXPECT_EQ(count_in(stats, "", "completed"), 4);
  EXPECT_EQ(count_in(stats, "", "shed"), 1);
}

TEST(Service, AVerbFlushesTheAnswersQueuedAheadOfIt) {
  // Given a flush, the answers made on the reading thread wait in the
  // sink's queue for the reading loop to send them. A verb may block (a
  // drain, a save), so it sends that queue before it runs: the stored
  // job's answer leaves in a flush of its own, ahead of the stats ack.
  Service service(ServiceOptions{});
  Lines warm;
  const Service::Sink warm_sink = [&warm](const std::string& line) {
    warm.add(line);
  };
  const char* const kJob = R"({"id": "w16", "soc": "d695", "width": 16})";
  EXPECT_EQ(service.handle_line(kJob, 1, warm_sink),
            Service::Action::Continue);
  service.drain_and_save();
  ASSERT_EQ(warm.take().size(), 1u);

  std::vector<std::string> queued;  // both run on this thread
  std::vector<std::vector<std::string>> flushes;
  const Service::Sink sink = [&queued](const std::string& line) {
    queued.push_back(line);
  };
  const Service::Flush flush = [&queued, &flushes] {
    if (!queued.empty()) flushes.push_back(std::exchange(queued, {}));
  };
  const char* const kStored = R"({"id": "stored", "soc": "d695", "width": 16})";
  EXPECT_EQ(service.handle_line(kStored, 2, sink, flush),
            Service::Action::Continue);
  EXPECT_TRUE(flushes.empty());  // the reading loop's flush, not this one
  EXPECT_EQ(service.handle_line(R"({"op": "stats"})", 3, sink, flush),
            Service::Action::Continue);
  flush();
  ASSERT_EQ(flushes.size(), 2u);
  ASSERT_EQ(flushes[0].size(), 1u);
  EXPECT_TRUE(flushes[0][0].starts_with(R"({"id": "stored", "status": "ok")"))
      << flushes[0][0];
  ASSERT_EQ(flushes[1].size(), 1u);
  EXPECT_TRUE(flushes[1][0].starts_with(R"({"op": "stats")")) << flushes[1][0];
}

TEST(Service, AnswersOverTheBoundBecomeTheFixedError) {
  // No reader takes a line over the bound. An answer that would exceed it
  // is replaced by one fixed error, led by the id when that still fits:
  // here errors that echo an unknown op, an unknown field, and an id.
  Service service(ServiceOptions{});
  Lines lines;
  const Service::Sink sink = [&lines](const std::string& line) {
    lines.add(line);
  };
  const std::size_t bound = common::kDefaultMaxLineBytes;
  const std::string huge(bound - 32, 'x');
  std::uint64_t line_number = 0;
  for (const std::string& line :
       {R"({"op":")" + huge + "\"}", R"({"id":"k",")" + huge + R"(":0})",
        R"({"id":")" + huge + R"(","width":"w"})"}) {
    ASSERT_LE(line.size(), bound);
    EXPECT_EQ(service.handle_line(line, ++line_number, sink),
              Service::Action::Continue);
  }
  std::vector<std::string> answers = lines.take();
  for (std::string& answer : answers)  // a wrong one is huge: cut short
    answer.resize(std::min<std::size_t>(answer.size(), 120));
  EXPECT_EQ(answers,
            (std::vector<std::string>{
                R"({"error": "answer exceeds the line-length bound"})",
                R"({"id": "k", "error": "answer exceeds the line-length )"
                R"(bound"})",
                R"({"error": "answer exceeds the line-length bound"})"}));
}

// ---- the wtam_serve binary -------------------------------------------------

TEST(ServeBinary, StdinLineOverTheBoundIsAnsweredAndReadingGoesOn) {
  // stdin is bounded like a TCP client: the 9 MiB line gets the framing
  // error and the next line is served.
  common::Subprocess serve({WTAM_SERVE_BINARY, "--quiet", "--threads", "1"});
  EXPECT_TRUE(serve.write_line(std::string(9u << 20, 'x')));
  EXPECT_TRUE(serve.write_line(R"({"op": "ping", "seq": 7})"));
  serve.close_stdin();
  std::vector<std::string> lines;
  while (const std::optional<std::string> line = serve.read_line())
    lines.push_back(*line);
  const int status = serve.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_EQ(lines, (std::vector<std::string>{
                       R"({"error": "line 1: frame exceeds the line-length )"
                       R"(bound; resynced at the next newline"})",
                       R"({"op": "ping", "ok": true, "seq": 7})"}));
}

TEST(ServeBinary, ClosedStdoutEndsTheStdinLoop) {
  // Once `head` has its one line, nobody reads the answers: the first
  // answer that fails to go out ends the stdin loop, so wtam_serve exits
  // (and the pipeline with it) instead of serving stdin to its end.
  common::Subprocess pipeline(
      {"/bin/sh", "-c",
       std::string(WTAM_SERVE_BINARY) + " --quiet --threads 1 | head -n 1"});
  ASSERT_TRUE(pipeline.write_line(R"({"op": "ping", "seq": 1})"));
  EXPECT_EQ(pipeline.read_line(), R"({"op": "ping", "ok": true, "seq": 1})");
  int written = 0;
  while (written < 100 && pipeline.write_line(R"({"op": "ping"})")) {
    ++written;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LT(written, 100);
  pipeline.close_stdin();  // ends a loop that would not end by itself
  EXPECT_EQ(pipeline.read_line(), std::nullopt);
  const int status = pipeline.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

TEST(ServeBinary, BurstsAreAnsweredWithStdinHeldOpen) {
  // Each burst arrives in one write() and stdin stays open: the reading
  // loop must send what a burst produced before it blocks for more.
  // Stored jobs and errors are answered on the reading thread, the cold
  // job from the pool.
  common::Subprocess serve({WTAM_SERVE_BINARY, "--quiet", "--threads", "1"});
  test_support::expect_bursts_answered(serve);
  serve.close_stdin();
  const int status = serve.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

/// A temporary path unique to this process; removed when destroyed.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(testing::TempDir() + name + "." + std::to_string(::getpid())) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kSignalJob = R"({"id": "j", "soc": "d695", "width": 16})";

/// SIGTERMs `serve`, expects a clean exit, and checks that the
/// --cache-file snapshot holds exactly the entry of kSignalJob.
void expect_signal_drains_and_saves(common::Subprocess& serve,
                                    const std::string& snapshot) {
  ASSERT_EQ(::kill(serve.pid(), SIGTERM), 0);
  const int status = serve.wait();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  api::ResultCache cache;
  const api::CacheLoadStats loaded = api::load_cache_file(cache, snapshot);
  EXPECT_TRUE(loaded.found);
  const auto entries = cache.export_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries.front().first ==
              api::request_keys(api::job_from_json(
                                    api::JsonValue::parse(kSignalJob)))
                  .front());
}

TEST(ServeBinary, SigtermOnStdinDrainsAndSavesTheCache) {
  const TempFile snapshot("wtam_serve_sigterm_stdin");
  common::Subprocess serve({WTAM_SERVE_BINARY, "--quiet", "--threads", "1",
                            "--cache-file", snapshot.path()});
  ASSERT_TRUE(serve.write_line(kSignalJob));
  const std::optional<std::string> answer = serve.read_line();
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(answer->starts_with(R"({"id": "j", "status": "ok", )"));
  expect_signal_drains_and_saves(serve, snapshot.path());
}

TEST(ServeBinary, SigtermWhileListeningDrainsAndSavesTheCache) {
  const TempFile snapshot("wtam_serve_sigterm_listen");
  const TempFile port_file("wtam_serve_sigterm_port");
  common::Subprocess serve({WTAM_SERVE_BINARY, "--quiet", "--threads", "1",
                            "--listen", "127.0.0.1:0", "--port-file",
                            port_file.path(), "--cache-file",
                            snapshot.path()});
  const std::string endpoint = test_support::read_port_file(port_file.path());
  ASSERT_FALSE(endpoint.empty());
  const std::unique_ptr<net::Connection> client =
      net::Connection::connect(net::parse_endpoint(endpoint));
  ASSERT_TRUE(client->write_line(kSignalJob));
  std::string answer;
  ASSERT_EQ(client->read_line(answer), net::ReadStatus::Line);
  EXPECT_TRUE(answer.starts_with(R"({"id": "j", "status": "ok", )"));
  expect_signal_drains_and_saves(serve, snapshot.path());
}

}  // namespace
}  // namespace wtam::serve
