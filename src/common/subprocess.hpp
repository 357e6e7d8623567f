// Line-oriented child-process transport (the router's worker channel).
//
// A Subprocess is one spawned child with its stdin/stdout connected to
// the parent over pipes, wrapped for the NDJSON protocols this repo
// speaks: the parent writes request lines and reads response lines, and
// the child's exit is observable without blocking. This is the ONLY
// place in the tree allowed to call fork/exec (tools/wtam_lint.py
// enforces it): process spawning concentrates the signal handling,
// fd hygiene, and reaping subtleties that scattered popen() calls get
// wrong — stderr passes through to the parent's stderr so worker
// diagnostics stay visible.
//
// Concurrency contract (matches the router's one-writer/one-reader
// shape):
//   * write_line, queue_line and flush are safe from any thread
//     (common::LineWriter: whole lines, EINTR-retried, and a dead child
//     yields a false return, not a SIGPIPE);
//   * read_line must be called by at most ONE thread at a time — it is
//     the reader thread's blocking loop over a common::LineReader;
//   * running()/kill()/wait() are safe from any thread (child state is
//     mutex-guarded; waitpid is only ever called under that mutex, so
//     the pid is reaped exactly once).
//
// Spawn failures (missing binary, not executable) are detected reliably
// via a CLOEXEC status pipe — the constructor throws std::runtime_error
// with the child's errno text instead of leaving a zombie that dies on
// its first read.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

#include "common/line_io.hpp"
#include "common/thread_annotations.hpp"

namespace wtam::common {

class Subprocess {
 public:
  /// Spawns `argv` (argv[0] = binary path, resolved via PATH) with
  /// stdin/stdout piped to this object. Throws std::invalid_argument on
  /// an empty argv and std::runtime_error when the pipes, fork, or exec
  /// fail.
  explicit Subprocess(std::vector<std::string> argv);

  /// Kills (SIGKILL) a still-running child, closes the pipes, reaps.
  ~Subprocess();

  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Writes `line` plus a trailing newline atomically with respect to
  /// other write_line calls. Returns false when the child's stdin is
  /// gone (child exited or close_stdin() was called) — the caller
  /// decides whether that is a crash (router: respawn) or a shutdown.
  bool write_line(std::string_view line);

  /// Queues `line` for the next write_line or flush (see
  /// common::LineWriter); any thread.
  void queue_line(std::string_view line);
  /// Writes every queued line in one write; false as write_line.
  bool flush();

  /// Blocking read of the next newline-terminated line (the newline is
  /// stripped; a final unterminated line is returned as-is). A line over
  /// kDefaultMaxLineBytes comes back empty, its bytes dropped through its
  /// newline. nullopt on EOF — the child closed stdout, almost always by
  /// exiting. Single reader only; see the concurrency contract above.
  [[nodiscard]] std::optional<std::string> read_line();

  /// True when the next read_line returns a line without reading
  /// (common::LineReader::has_line). The reader thread's alone.
  [[nodiscard]] bool has_line();

  /// Closes the child's stdin — the NDJSON idiom for "no more requests"
  /// (wtam_serve treats EOF as drain-and-exit). Idempotent.
  void close_stdin();

  /// True while the child has neither exited nor been reaped. Non-
  /// blocking (WNOHANG); a child observed dead stays dead.
  [[nodiscard]] bool running();

  /// SIGKILLs the child if it still runs (no-op afterwards). The reader
  /// thread sees EOF shortly after.
  void kill();

  /// Blocks until the child exits and returns its raw waitpid status
  /// (use WIFEXITED/WEXITSTATUS). Idempotent: later calls return the
  /// recorded status.
  int wait();

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

 private:
  /// waitpid under state_mutex_; `block` chooses WNOHANG or not.
  void reap_locked(bool block) WTAM_REQUIRES(state_mutex_);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  // Set once the child runs. The reader is the reader thread's alone.
  std::optional<LineWriter> stdin_;
  std::optional<LineReader> stdout_;

  mutable Mutex state_mutex_;
  bool reaped_ WTAM_GUARDED_BY(state_mutex_) = false;
  int exit_status_ WTAM_GUARDED_BY(state_mutex_) = 0;
};

}  // namespace wtam::common
