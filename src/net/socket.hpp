// TCP transport for the NDJSON serving protocol (the multi-host tier).
//
// The serving stack speaks newline-delimited JSON over byte streams;
// PR 8 carried those frames over subprocess pipes, this module carries
// them over TCP so a router can front workers on other hosts. It is the
// ONLY place in the tree allowed to make socket syscalls
// (tools/wtam_lint.py enforces it, mirroring the raw-subprocess rule):
// address resolution, SIGPIPE suppression, partial-read reassembly, and
// shutdown-vs-close subtleties all live here once.
//
//   * Connection — one connected stream with line framing. Reads
//     reassemble frames split across arbitrarily many recv() calls (a
//     byte-at-a-time writer still yields whole lines) and enforce a
//     bounded line length: an overlong line comes back as
//     ReadStatus::TooLong and the connection resyncs by discarding
//     bytes through the next newline, so one hostile/buggy frame does
//     not poison the stream. Writes are whole-line, any-thread, and a
//     dead peer yields `false` (SIGPIPE is ignored process-wide), the
//     same contract as common::Subprocess::write_line.
//   * Listener — a bound, listening socket. accept() blocks in poll()
//     on the listen fd plus an internal wake pipe, so stop() (any
//     thread) unblocks it deterministically; port 0 binds an ephemeral
//     port reported by local_endpoint().
//
// Concurrency contract (same shape as Subprocess): write_line from any
// thread; read_line from at most one thread at a time; shutdown_both /
// the destructor from any thread — shutdown_both() forces a blocked
// reader to see Eof (close() alone would not unblock it), which is how
// the router severs a remote worker it has declared dead.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/thread_annotations.hpp"
#include "net/endpoint.hpp"

namespace wtam::net {

/// Outcome of Connection::read_line.
enum class ReadStatus {
  Line,     ///< a complete line was produced
  TooLong,  ///< frame exceeded the length bound; stream resynced past it
  Eof,      ///< peer closed (or the connection was shut down locally)
};

class Connection {
 public:
  /// Maximum accepted line length (bytes, excluding the newline) unless
  /// overridden: 8 MiB comfortably holds the largest result line the
  /// repo produces (p93791 schedules serialize well under 1 MiB).
  static constexpr std::size_t kDefaultMaxLineBytes = 8u << 20;

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

  /// Blocking read of the next frame into `line` (newline stripped; a
  /// final unterminated frame before EOF is returned as a Line). On
  /// TooLong the overlong frame's bytes are discarded through its
  /// terminating newline first, so the next call reads the next frame.
  /// Single reader only; see the concurrency contract above.
  [[nodiscard]] ReadStatus read_line(std::string& line);

  /// Half-close: no more writes from this side (the socket analogue of
  /// Subprocess::close_stdin — wtam_serve treats it as client EOF).
  /// Idempotent.
  void shutdown_write();

  /// Full shutdown: a blocked read_line returns Eof promptly and every
  /// later write fails. The fd itself is closed by the destructor.
  /// Idempotent, any thread — this is the "sever a dead worker" path.
  void shutdown_both();

 private:
  [[nodiscard]] bool fill_buffer();  // one recv(); false on EOF/error

  const int fd_;
  const std::size_t max_line_bytes_;

  common::Mutex write_mutex_;
  bool write_open_ WTAM_GUARDED_BY(write_mutex_) = true;

  // Reader-thread-only state (single reader by contract, so no lock).
  std::string read_buffer_;
  bool saw_eof_ = false;
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
