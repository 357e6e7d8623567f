// TCP transport for the NDJSON serving protocol (the multi-host tier).
//
// The serving stack speaks newline-delimited JSON over byte streams;
// this module carries them over TCP so a router can front workers on
// other hosts. It is the ONLY place in the tree allowed to make socket
// syscalls (tools/wtam_lint.py enforces it, mirroring the raw-subprocess
// rule): address resolution and shutdown-vs-close subtleties live here.
//
//   * Connection — one connected stream, framed by common::LineReader
//     and common::LineWriter like every other hop (common/line_io.hpp).
//   * Listener — a bound, listening socket. accept() blocks in poll()
//     on the listen fd plus an internal wake pipe, so stop() (any
//     thread) unblocks it deterministically; port 0 binds an ephemeral
//     port reported by local_endpoint().
//
// Concurrency contract (same shape as Subprocess): write_line,
// queue_line and flush from any thread; read_line and has_line from at
// most one thread at a time; shutdown_both / the destructor from any
// thread — shutdown_both() forces a blocked reader to see Eof (close()
// alone would not unblock it), which is how the router severs a remote
// worker it has declared dead.

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "common/line_io.hpp"
#include "common/thread_annotations.hpp"
#include "net/endpoint.hpp"

namespace wtam::net {

/// Outcome of Connection::read_line (Eof also after a local shutdown).
using ReadStatus = common::ReadStatus;

class Connection {
 public:
  /// Maximum accepted line length (bytes, excluding the newline) unless
  /// overridden.
  static constexpr std::size_t kDefaultMaxLineBytes =
      common::kDefaultMaxLineBytes;

  /// Adopts an already-connected fd (Listener::accept's path).
  explicit Connection(int fd,
                      std::size_t max_line_bytes = kDefaultMaxLineBytes);

  /// Resolves `endpoint` (IPv4 / hostname) and connects. Throws
  /// std::runtime_error with the resolver/connect errno text on failure.
  [[nodiscard]] static std::unique_ptr<Connection> connect(
      const Endpoint& endpoint,
      std::size_t max_line_bytes = kDefaultMaxLineBytes);

  /// Shuts down and closes the socket.
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes `line` plus a trailing newline, atomically with respect to
  /// other write_line calls. Returns false when the peer is gone or the
  /// connection was shut down.
  bool write_line(std::string_view line);

  /// Queues `line` for the next write_line or flush (see
  /// common::LineWriter); any thread.
  void queue_line(std::string_view line);
  /// Writes every queued line in one send; false as write_line.
  bool flush();

  /// Blocking read of the next frame into `line`, as
  /// common::LineReader::read_line: TooLong resyncs past an overlong
  /// frame. Single reader only; see the concurrency contract above.
  [[nodiscard]] ReadStatus read_line(std::string& line);

  /// True when the next read_line returns without reading
  /// (common::LineReader::has_line). The reader's alone.
  [[nodiscard]] bool has_line();

  /// Half-close: no more writes from this side (the socket analogue of
  /// Subprocess::close_stdin — wtam_serve treats it as client EOF).
  /// Idempotent.
  void shutdown_write();

  /// Full shutdown: a blocked read_line returns Eof promptly and every
  /// later write fails. The fd itself is closed by the destructor.
  /// Idempotent, any thread — this is the "sever a dead worker" path.
  void shutdown_both();

 private:
  const int fd_;
  common::LineWriter writer_;
  common::LineReader reader_;  // the reader thread's alone
};

class Listener {
 public:
  /// Binds and listens on `endpoint` (host resolved like connect; port 0
  /// = kernel-assigned, see local_endpoint). SO_REUSEADDR is set so
  /// restarting a service does not trip over TIME_WAIT. Throws
  /// std::runtime_error on resolve/bind/listen failure.
  explicit Listener(const Endpoint& endpoint);

  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The actually-bound address — meaningful when the requested port
  /// was 0.
  [[nodiscard]] Endpoint local_endpoint() const { return local_; }

  /// Blocks for the next client; nullptr once stop() has been called.
  /// Transient accept errors (ECONNABORTED, EMFILE pressure) are
  /// retried, not surfaced. Single accepter at a time.
  [[nodiscard]] std::unique_ptr<Connection> accept(
      std::size_t max_line_bytes = Connection::kDefaultMaxLineBytes);

  /// Unblocks accept() and makes every later accept() return nullptr.
  /// Any thread; idempotent.
  void stop();

 private:
  int fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  Endpoint local_;
  common::Mutex stop_mutex_;
  bool stopped_ WTAM_GUARDED_BY(stop_mutex_) = false;
};

}  // namespace wtam::net
