#include "serve/worker_link.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/subprocess.hpp"
#include "common/timer.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"

namespace wtam::serve {

WorkerSpec WorkerSpec::local(std::vector<std::string> argv,
                             std::string cache) {
  WorkerSpec spec;
  spec.command = std::move(argv);
  spec.cache_file = std::move(cache);
  return spec;
}

WorkerSpec WorkerSpec::connect(std::string endpoint) {
  WorkerSpec spec;
  spec.endpoint = std::move(endpoint);
  return spec;
}

namespace {

/// How long a remote link keeps retrying its connect.
constexpr std::chrono::milliseconds kConnectWait(5000);

class SubprocessLink final : public WorkerLink {
 public:
  explicit SubprocessLink(const std::vector<std::string>& argv)
      : process_(argv) {}

  bool write_line(std::string_view line) override {
    return process_.write_line(line);
  }
  void queue_line(std::string_view line) override {
    process_.queue_line(line);
  }
  bool flush() override { return process_.flush(); }
  std::optional<std::string> read_line() override {
    return process_.read_line();
  }
  bool has_line() override { return process_.has_line(); }
  void close_input() override { process_.close_stdin(); }
  void sever() override { process_.kill(); }
  void finish() override { (void)process_.wait(); }

 private:
  common::Subprocess process_;
};

class SocketLink final : public WorkerLink {
 public:
  explicit SocketLink(std::unique_ptr<net::Connection> connection)
      : connection_(std::move(connection)) {}

  bool write_line(std::string_view line) override {
    return connection_->write_line(line);
  }
  void queue_line(std::string_view line) override {
    connection_->queue_line(line);
  }
  bool flush() override { return connection_->flush(); }
  std::optional<std::string> read_line() override {
    std::string line;  // left empty by a TooLong frame, as a pipe's is
    if (connection_->read_line(line) == net::ReadStatus::Eof)
      return std::nullopt;
    return line;
  }
  bool has_line() override { return connection_->has_line(); }
  void close_input() override { connection_->shutdown_write(); }
  void sever() override { connection_->shutdown_both(); }
  void finish() override {}  // the remote process is not ours to reap

 private:
  std::unique_ptr<net::Connection> connection_;
};

}  // namespace

std::unique_ptr<WorkerLink> make_worker_link(const WorkerSpec& spec) {
  if (!spec.remote()) {
    if (spec.command.empty())
      throw std::invalid_argument("worker spec has neither command nor "
                                  "endpoint");
    return std::make_unique<SubprocessLink>(spec.command);
  }

  const net::Endpoint endpoint = net::parse_endpoint(spec.endpoint);
  // Doubling backoff for 5 s: covers the router booting a beat before its
  // workers and reconnects to a worker that is restarting. The final
  // attempt's error is the one reported.
  const auto deadline = common::steady_now() + kConnectWait;
  std::chrono::milliseconds backoff(25);
  for (;;) {
    try {
      return std::make_unique<SocketLink>(net::Connection::connect(endpoint));
    } catch (const std::exception&) {
      if (common::steady_now() + backoff >= deadline) throw;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(500));
    }
  }
}

}  // namespace wtam::serve
