// Shard router for a fleet of wtam_serve workers — the distributed
// serving tier (ISSUE 8 tentpole, grown multi-host in ISSUE 9).
//
// One Router owns N workers — local subprocesses and/or remote
// `wtam_serve --listen` endpoints, each behind a serve::WorkerLink
// speaking the wtam_serve NDJSON protocol — and presents the same
// protocol upward: the caller feeds it one client line at a time and
// receives complete response lines through a sink callback. In between:
//
//   * jobs shard by cache identity — the job's first RequestKey (sweeps
//     expand to per-width keys; the first one routes) hashes to a
//     worker, so identical resubmissions always land on the worker that
//     cached them and the fleet's caches partition instead of
//     duplicating. Jobs whose key cannot be computed (bad SOC, bad
//     fields) route by a stable hash of the job's compact JSON, so even
//     their error responses come from a deterministic worker;
//   * ids are rewritten — each job goes out as {"id": "r<seq>", ...}
//     (seq = arrival order; the internal id always leads the wire line,
//     and the client's other members follow as the client's own bytes,
//     copied from the member spans the one parse reports) and the
//     client's id (or a synthesized "job-<seq>" for id-less jobs,
//     matching wtam_serve) is spliced back in place of the leading
//     internal id on the way out — no parse, no re-serialization, every
//     other response byte as the worker wrote it — so responses merge
//     correctly however far out of submission order the workers
//     complete;
//   * worker death is survived — a reader thread per worker detects
//     EOF, brings the slot back (respawn for pipe workers, reconnect
//     with backoff for remote ones), and replays that worker's
//     in-flight jobs in arrival order. Delivery is at-least-once (a job
//     that completed just before the crash may run twice) and solves
//     are idempotent, so the client still sees exactly one response per
//     job: late duplicates are dropped as orphans;
//   * liveness goes beyond EOF — with a nonzero ping interval, a health
//     thread sends each worker {"op": "ping"} and severs any worker
//     whose pong misses the deadline (a hung process or a dead-but-
//     not-closed TCP peer looks exactly like a crash to the reader,
//     which then replays as above);
//   * admission control sheds — with a nonzero queue limit, a job whose
//     target worker already has `limit` jobs in flight is answered
//     immediately with status "overloaded" (fixed text, byte-
//     deterministic) instead of queued, bounding fleet queue time;
//   * control verbs fan out — stats / metrics / cache_clear /
//     cache_save broadcast to every worker and the acks merge (numbers
//     sum, "ok" ANDs). The merged stats/metrics additionally carry the
//     router's own counters ("router" section / serve.router.* names).
//     Metrics acks merge as obs snapshots — workers ship histogram
//     buckets, so fleet percentiles are exact — and render through the
//     same obs functions wtam_serve uses, as JSON or, with "format":
//     "prometheus", as Prometheus text in a "body" field. A worker
//     whose ack does not parse (an older worker without buckets, or an
//     ack over the line-length bound, which reads as an empty line) is
//     counted in "worker_errors". A fanned-out op's "id" is not
//     forwarded; the merged answer leads with it instead (a worker
//     answer leading with an id would read as a job response).
//     Router-specific verbs: {"op": "ping"} answers from the router
//     itself; {"op": "kill_worker", "worker": i} severs a worker
//     (crash-recovery test hook; the ack waits for the slot to come
//     back); {"op": "resize", "workers": M} re-shards the fleet
//     (below); shutdown drains the fleet before acking;
//   * the fleet resizes hot — resize drains in-flight work, stops the
//     old fleet (local workers save their cache files on EOF), re-hashes
//     every persisted cache entry into per-worker snapshots under the
//     *new* RequestKey-hash → worker mapping, and boots the new fleet,
//     so relocated keys warm-boot on their new owner and resubmissions
//     stay cache hits (and byte-identical) across the resize.
//
// Threading: handle_line() is single-caller (the tool's stdin loop).
// Reader threads deliver worker output concurrently and the health
// thread ticks on its own cadence; all shared state sits under one
// mutex and the sink is serialized by its own lock, so sink lines never
// interleave. Writes batch per read burst: job lines the stdin loop
// reads in one burst queue on their worker links until flush(), and the
// answers a reader thread reads in one burst queue on the sink until
// that reader has no whole line left. Broadcasts, pings and replays
// write at once, and no write happens under the mutex.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/json_value.hpp"
#include "common/thread_annotations.hpp"
#include "serve/worker_link.hpp"

namespace wtam::serve {

struct RouterOptions {
  /// One spec per worker slot (size = fleet size, >= 1): local argv
  /// commands and/or remote endpoints, mixed freely.
  std::vector<WorkerSpec> workers;
  /// Per-worker in-flight cap: a job whose target worker already has
  /// this many jobs outstanding is shed with status "overloaded".
  /// 0 = never shed.
  std::uint64_t queue_limit = 0;
  /// Health-check cadence; zero disables the health thread (EOF remains
  /// the only death signal, as in PR 8).
  std::chrono::milliseconds ping_interval{0};
  /// A worker whose pong is older than this when the next tick fires is
  /// severed and its jobs replayed.
  std::chrono::milliseconds ping_deadline{2000};
  /// Builds the worker specs for a fleet of the given size — what the
  /// resize verb boots after re-sharding. Must return exactly `count`
  /// specs. Without a factory, resize is refused.
  std::function<std::vector<WorkerSpec>(std::size_t count)> fleet_factory;
};

/// Router-level counters, reported under "router" in merged stats and
/// as serve.router.* in merged metrics.
struct RouterCounters {
  std::uint64_t routed = 0;    ///< jobs forwarded to a worker
  std::uint64_t shed = 0;      ///< jobs refused by admission control
  std::uint64_t respawns = 0;  ///< dead workers restarted/reconnected
  std::uint64_t replayed = 0;  ///< in-flight jobs resent after a respawn
  std::uint64_t orphaned = 0;  ///< late/duplicate worker lines dropped
  std::uint64_t pings = 0;     ///< health-check pings sent
  std::uint64_t health_severed = 0;  ///< workers severed for missed pongs
  std::uint64_t resizes = 0;   ///< completed resize operations
};

class Router {
 public:
  /// Receives each complete response line (no trailing newline).
  /// Called from the handle_line caller and from reader threads, but
  /// never concurrently (the router serializes it).
  using Sink = std::function<void(const std::string&)>;
  /// Human-readable notices (worker died/respawned); may be empty.
  using Diag = std::function<void(const std::string&)>;
  /// Sends what the sink has queued. Given one, the sink may queue: the
  /// router calls it, serialized with the sink, from flush(), from a
  /// reader thread whose worker has no whole line left, and after the
  /// answers a failed respawn makes.
  using Flush = std::function<void()>;

  /// Spawns/connects every worker and starts its reader. Throws if a
  /// worker cannot be reached (the fleet is all-or-nothing at boot).
  Router(RouterOptions options, Sink sink, Diag diag = {}, Flush flush = {});

  /// Severs any still-running workers and joins the readers. Prefer a
  /// clean shutdown() first; the destructor is the crash path.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Processes one client request line. Returns false once a shutdown
  /// verb has been fully processed (ack emitted, workers exited) —
  /// the caller stops reading. The line's writes go out before it
  /// returns, unless `batched`: then they may wait for flush(), which
  /// the caller must run before it blocks. A control verb flushes
  /// first either way.
  [[nodiscard]] bool handle_line(const std::string& line,
                                 bool batched = false);

  /// Sends what handle_line has queued: one write per worker link that
  /// has job lines waiting, then the sink's flush. The handle_line
  /// caller's.
  void flush();

  /// EOF path: drains and stops the fleet exactly like the shutdown
  /// verb but emits no ack line. Idempotent.
  void shutdown();

  [[nodiscard]] RouterCounters counters() const;
  [[nodiscard]] int workers() const;

 private:
  struct Slot;

  /// One routed job awaiting its response: enough to restore the
  /// client's id and to replay the exact request line after a respawn.
  struct Pending {
    std::string client_id;
    std::string line;
    std::size_t worker = 0;
  };

  void reader_loop(std::size_t index);
  void health_loop();
  void handle_worker_line(std::size_t index, const std::string& line);
  /// handle_line less its final flush.
  [[nodiscard]] bool process_line(const std::string& line);
  void emit(const api::JsonValue& value);
  void emit_raw(const std::string& line);
  /// Runs the sink's flush, serialized with the sink.
  void flush_sink();
  void note(const std::string& message);

  /// Writes `line` to every worker and blocks until each has produced
  /// one op response (a dead worker's slot is filled with an error
  /// object so the wait always terminates).
  [[nodiscard]] std::vector<api::JsonValue> broadcast(
      const std::string& line);

  /// Routes one parsed job `line`; `members` are its top-level member
  /// spans, from which the wire line is spliced. The wire line is queued
  /// on its worker link for flush().
  void route_job(const std::string& line, api::JsonValue&& value,
                 const std::vector<api::JsonValue::MemberSpan>& members);
  /// The worker for job `line`, parsed as `value`, whose SOC text it
  /// takes.
  [[nodiscard]] std::size_t worker_for(const std::string& line,
                                       api::JsonValue&& value) const;
  void handle_resize(const api::JsonValue& value);
  void stop_fleet_for_shutdown();

  RouterOptions options_;
  Sink sink_;
  Diag diag_;
  Flush flush_;
  /// Links with job lines queued since the last flush(); the
  /// handle_line caller's alone.
  std::vector<std::shared_ptr<WorkerLink>> unflushed_;

  mutable common::Mutex mutex_;
  common::CondVar op_cv_;
  common::CondVar health_cv_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Routed jobs by seq (the digits of their internal id "r<seq>"), so
  /// iteration is arrival order — the order a respawn replays in.
  std::map<std::uint64_t, Pending> pending_ WTAM_GUARDED_BY(mutex_);
  std::uint64_t serial_ WTAM_GUARDED_BY(mutex_) = 0;
  std::uint64_t ping_serial_ WTAM_GUARDED_BY(mutex_) = 0;
  RouterCounters counters_ WTAM_GUARDED_BY(mutex_);
  bool shutting_down_ WTAM_GUARDED_BY(mutex_) = false;
  /// While true, readers treat EOF as the planned teardown of the old
  /// fleet (no respawn) and the health thread skips its tick.
  bool resizing_ WTAM_GUARDED_BY(mutex_) = false;
  bool op_active_ WTAM_GUARDED_BY(mutex_) = false;
  int op_remaining_ WTAM_GUARDED_BY(mutex_) = 0;
  std::vector<bool> op_filled_ WTAM_GUARDED_BY(mutex_);
  std::vector<api::JsonValue> op_responses_ WTAM_GUARDED_BY(mutex_);
  std::thread health_thread_;

  common::Mutex sink_mutex_;
};

}  // namespace wtam::serve
