// NDJSON framing over file descriptors: the one line reader and the one
// line writer behind every hop of the serving stack — common::Subprocess
// pipes, net::Connection sockets, and the stdin/stdout of wtam_serve and
// wtam_router. Both use only read, write and poll, so pipes, sockets and
// terminals frame alike; socket calls such as shutdown stay in src/net/.
// This file holds the tree's only read and write calls on a stream
// (tools/wtam_lint.py's raw-fd-io rule), so every hop goes through the
// writer's queue: a reading loop queues what one read burst produced and
// flushes it in one write once has_line() says the burst is used up.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/thread_annotations.hpp"

namespace wtam::common {

/// Longest line any hop accepts, in bytes without the newline: 8 MiB
/// comfortably holds the largest result line the repo produces (p93791
/// schedules serialize well under 1 MiB).
inline constexpr std::size_t kDefaultMaxLineBytes = std::size_t{8} << 20;

/// Outcome of LineReader::read_line.
enum class ReadStatus {
  Line,     ///< a complete line was produced
  TooLong,  ///< a line exceeded the bound; the stream resynced past it
  Eof,      ///< end of stream, a read error, or a wake
};

/// Frames lines out of one descriptor. Each read is offered at least
/// 4 KiB, and the newline search covers only bytes it has not searched
/// before, so framing time grows linearly with line length. A line over
/// the bound is dropped as it arrives, so it costs no memory.
class LineReader {
 public:
  /// Reads `fd`, which stays the caller's to close. With a `wake_fd`,
  /// every read first polls both, and a readable `wake_fd` ends the
  /// stream at once: Eof, any partial line dropped.
  explicit LineReader(int fd,
                      std::size_t max_line_bytes = kDefaultMaxLineBytes,
                      int wake_fd = -1);

  /// Blocks for the next line and stores it, newline stripped, in `line`;
  /// a final line without a newline counts. TooLong leaves `line` empty,
  /// and the next call reads past the over-long line's newline. After
  /// Eof every call returns Eof. One thread at a time.
  [[nodiscard]] ReadStatus read_line(std::string& line);

  /// True when a whole line is already buffered, so the next read_line
  /// returns without reading: what a reading loop asks before it
  /// flushes. Never reads; one thread at a time, with read_line.
  [[nodiscard]] bool has_line();

 private:
  /// Compacts the buffer and appends one read's bytes; false at end of
  /// stream, on a read error, or on a wake.
  bool fill();

  int fd_;
  int wake_fd_;
  std::size_t max_line_bytes_;
  std::string buffer_;       // bytes [begin_, end_) are unconsumed
  std::size_t begin_ = 0;
  std::size_t scanned_ = 0;  // [begin_, scanned_) holds no newline
  std::size_t end_ = 0;
  bool eof_ = false;
  bool too_long_ = false;    // dropping an over-long line up to its newline
};

/// Writes whole lines to one descriptor from any thread. Lines can also
/// wait in a queue that the next write_line or flush sends first, in
/// order, so a burst of lines leaves in one write. SIGPIPE is ignored
/// process-wide when the first writer is made, so a peer that hangs up
/// shows as a failed write.
class LineWriter {
 public:
  /// Writes to `fd`, which stays the caller's to close.
  explicit LineWriter(int fd);

  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  /// Writes the queued lines, then `line` plus '\n', in one write, never
  /// interleaved with another thread's line; EINTR is retried. False
  /// once a write has failed (the peer is gone) or release() has run.
  bool write_line(std::string_view line);

  /// Appends `line` plus '\n' to the queue without writing. The caller
  /// must flush before it blocks, so no line waits for a later one.
  void queue_line(std::string_view line);

  /// Writes every queued line in one write; no write when none is
  /// queued. Returns as write_line does.
  bool flush();

  /// Ends writing: waits out a write in progress and fails every later
  /// one. Returns the descriptor on the first call, for the caller to
  /// close or shut down, and -1 after.
  [[nodiscard]] int release();

 private:
  /// Writes and empties the queue.
  bool send_queued() WTAM_REQUIRES(mutex_);

  Mutex mutex_;
  int fd_ WTAM_GUARDED_BY(mutex_);
  bool open_ WTAM_GUARDED_BY(mutex_) = true;
  std::string queued_ WTAM_GUARDED_BY(mutex_);  // whole lines, newlines kept
};

}  // namespace wtam::common
