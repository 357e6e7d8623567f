#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
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

}  // namespace
}  // namespace wtam::serve
