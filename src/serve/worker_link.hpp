// How the router reaches one worker — the pipe/socket seam.
//
// PR 8's Router talked to workers exclusively through
// common::Subprocess; the multi-host tier adds workers reached over TCP
// (`wtam_serve --listen` on another host). WorkerLink abstracts exactly
// the slice of behavior the router uses, with the same concurrency
// contract both transports already honor (write_line any-thread,
// read_line single-reader, sever any-thread):
//
//   * SubprocessLink — spawns argv and speaks NDJSON over its
//     stdin/stdout. sever() SIGKILLs; a re-made link is a respawn.
//   * SocketLink — connects to host:port and speaks the same frames.
//     sever() shuts the socket down (the remote process stays alive —
//     the router cannot and should not kill it); a re-made link is a
//     reconnect, and make_worker_link retries with backoff so a worker
//     that is restarting (or whose heartbeat blip caused the sever)
//     rejoins the fleet without operator action.
//
// The router treats both identically: EOF on read_line means the worker
// is gone, make_worker_link(spec) brings the slot back, and the
// at-least-once replay machinery re-sends whatever was in flight.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wtam::serve {

/// Where one worker slot lives. Exactly one of `command` / `endpoint`
/// is set: a non-empty command spawns a local subprocess, a non-empty
/// endpoint connects a socket.
struct WorkerSpec {
  std::vector<std::string> command;  ///< argv for a local worker
  std::string endpoint;              ///< "host:port" for a remote worker
  /// The worker's --cache-file path when the router knows it (local
  /// workers it configured). Lets the resize verb re-shard snapshots;
  /// empty for remote workers (their snapshot lives on their host).
  std::string cache_file;

  [[nodiscard]] bool remote() const noexcept { return !endpoint.empty(); }
  [[nodiscard]] static WorkerSpec local(std::vector<std::string> argv,
                                        std::string cache = {});
  [[nodiscard]] static WorkerSpec connect(std::string endpoint);
};

/// One live channel to a worker. Same threading contract as
/// common::Subprocess: write_line, queue_line and flush from any thread,
/// read_line and has_line from one thread, sever()/the destructor from
/// any thread (sever unblocks a blocked read_line).
class WorkerLink {
 public:
  virtual ~WorkerLink() = default;

  /// Sends the queued frames, then this one; false when the worker is
  /// gone.
  virtual bool write_line(std::string_view line) = 0;
  /// Queues one frame for the next write_line or flush.
  virtual void queue_line(std::string_view line) = 0;
  /// Sends every queued frame in one write; false when the worker is
  /// gone.
  virtual bool flush() = 0;
  /// Next frame from the worker; nullopt on EOF (worker exited or
  /// connection severed). A frame over common::kDefaultMaxLineBytes
  /// comes back empty, a line that does not parse.
  [[nodiscard]] virtual std::optional<std::string> read_line() = 0;
  /// True when read_line returns a frame without reading.
  [[nodiscard]] virtual bool has_line() = 0;
  /// Half-close: signals EOF to the worker (a local wtam_serve drains,
  /// saves its cache file, and exits silently). Idempotent.
  virtual void close_input() = 0;
  /// Hard stop: SIGKILL (pipe) or socket shutdown (tcp). A blocked
  /// read_line returns promptly. Idempotent, any thread.
  virtual void sever() = 0;
  /// Blocks until the channel is fully torn down (process reaped for
  /// pipe links; no-op for sockets — the remote process is not ours).
  virtual void finish() = 0;
};

/// Builds the link a spec describes. Local specs spawn; remote specs
/// connect, retrying with doubling backoff for up to 5 s (covering both
/// boot-before-worker races and reconnects to a restarting worker).
/// Throws std::runtime_error when the worker cannot be reached.
[[nodiscard]] std::unique_ptr<WorkerLink> make_worker_link(
    const WorkerSpec& spec);

}  // namespace wtam::serve
