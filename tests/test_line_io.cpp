// The one NDJSON framer, common::LineReader, against a reference split
// of the same bytes. Seeded random frames of every kind the bound tells
// apart (empty, short, exactly at the bound, one byte over, far over,
// and an unterminated tail) go through a pipe in random chunk sizes from
// a writer thread; the framer must report the reference's sequence of
// Line / TooLong / Eof. Every hop (Subprocess pipes, net::Connection,
// the stdin of wtam_serve and wtam_router) frames through this reader.
// Then the flush rule's two halves: LineReader::has_line, which tells a
// reading loop its burst is used up, and LineWriter's queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "common/line_io.hpp"
#include "common/rng.hpp"

namespace wtam::common {
namespace {

struct Frame {
  ReadStatus status = ReadStatus::Eof;
  std::string line;

  bool operator==(const Frame&) const = default;
};

/// What any correct framer makes of `bytes` under `max_line_bytes`.
std::vector<Frame> reference_split(const std::string& bytes,
                                   std::size_t max_line_bytes) {
  std::vector<Frame> frames;
  const auto add = [&](std::size_t begin, std::size_t end) {
    if (end - begin > max_line_bytes)
      frames.push_back({ReadStatus::TooLong, ""});
    else
      frames.push_back({ReadStatus::Line, bytes.substr(begin, end - begin)});
  };
  std::size_t begin = 0;
  for (std::size_t newline = bytes.find('\n'); newline != std::string::npos;
       newline = bytes.find('\n', begin)) {
    add(begin, newline);
    begin = newline + 1;
  }
  if (begin < bytes.size()) add(begin, bytes.size());
  frames.push_back({ReadStatus::Eof, ""});
  return frames;
}

/// A random line body of one of the lengths the bound tells apart. Any
/// byte but '\n', so '\r' and '\0' ride along.
std::string random_body(Rng& rng, std::size_t max_line_bytes) {
  std::size_t length = 0;
  switch (rng.uniform_int(0, 5)) {
    case 0: length = 0; break;
    case 1:
      length = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(max_line_bytes)));
      break;
    case 2: length = max_line_bytes; break;
    case 3: length = max_line_bytes + 1; break;
    case 4:
      length = max_line_bytes * static_cast<std::size_t>(rng.uniform_int(2, 9));
      break;
    default: length = static_cast<std::size_t>(rng.uniform_int(1, 3)); break;
  }
  std::string body(length, ' ');
  for (char& byte : body) {
    const auto value = static_cast<char>(rng.uniform_int(0, 254));
    byte = value == '\n' ? '\xff' : value;
  }
  return body;
}

/// Frames `bytes` through a pipe written in random chunks by another
/// thread, calling read_line until it reports Eof twice.
std::vector<Frame> frame_through_pipe(const std::string& bytes,
                                      std::size_t max_line_bytes,
                                      std::uint64_t chunk_seed) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&bytes, fd = fds[1], chunk_seed] {
    Rng rng(chunk_seed);
    for (std::size_t sent = 0; sent < bytes.size();) {
      const std::size_t chunk = std::min<std::size_t>(
          bytes.size() - sent,
          static_cast<std::size_t>(rng.uniform_int(1, 9000)));
      const ssize_t n = ::write(fd, bytes.data() + sent, chunk);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  LineReader reader(fds[0], max_line_bytes);
  std::vector<Frame> frames;
  for (;;) {
    Frame frame;
    frame.status = reader.read_line(frame.line);
    frames.push_back(frame);
    if (frame.status == ReadStatus::Eof) break;
  }
  std::string line;
  EXPECT_EQ(reader.read_line(line), ReadStatus::Eof);  // Eof stays Eof
  writer.join();
  ::close(fds[0]);
  return frames;
}

TEST(LineReader, MatchesAReferenceSplitOnRandomFramesAndChunks) {
  Rng rng(20261018);
  for (int round = 0; round < 300; ++round) {
    const std::size_t max_line_bytes =
        std::vector<std::size_t>{1, 2, 17, 64, 4097, 10000}[
            static_cast<std::size_t>(rng.uniform_int(0, 5))];
    std::string bytes;
    const int lines = static_cast<int>(rng.uniform_int(0, 30));
    for (int i = 0; i < lines; ++i) {
      bytes += random_body(rng, max_line_bytes);
      bytes += '\n';
    }
    if (rng.uniform_int(0, 1) == 1)
      bytes += random_body(rng, max_line_bytes);  // unterminated tail
    const std::vector<Frame> expected = reference_split(bytes, max_line_bytes);
    const std::vector<Frame> got =
        frame_through_pipe(bytes, max_line_bytes, rng());
    ASSERT_EQ(got.size(), expected.size()) << "round " << round;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_TRUE(got[i] == expected[i])
          << "round " << round << ", frame " << i << " of " << got.size()
          << ", max " << max_line_bytes;
  }
}

TEST(LineReader, AWakeEndsTheStreamWithoutThePartialLine) {
  int data[2] = {-1, -1};
  int wake[2] = {-1, -1};
  ASSERT_EQ(::pipe(data), 0);
  ASSERT_EQ(::pipe(wake), 0);
  LineReader reader(data[0], kDefaultMaxLineBytes, wake[0]);
  ASSERT_EQ(::write(data[1], "first\n", 6), 6);
  std::string line;
  ASSERT_EQ(reader.read_line(line), ReadStatus::Line);
  EXPECT_EQ(line, "first");
  ASSERT_EQ(::write(data[1], "partial", 7), 7);
  ASSERT_EQ(::write(wake[1], "w", 1), 1);
  EXPECT_EQ(reader.read_line(line), ReadStatus::Eof);
  EXPECT_EQ(reader.read_line(line), ReadStatus::Eof);
  for (const int fd : {data[0], data[1], wake[0], wake[1]}) ::close(fd);
}

TEST(LineReader, HasLineSaysWhetherTheNextLineNeedsARead) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  LineReader reader(fds[0]);
  EXPECT_FALSE(reader.has_line());  // nothing buffered yet
  ASSERT_EQ(::write(fds[1], "first\nsec", 9), 9);
  std::string line;
  ASSERT_EQ(reader.read_line(line), ReadStatus::Line);
  EXPECT_EQ(line, "first");
  EXPECT_FALSE(reader.has_line());  // "sec" is a partial line
  ASSERT_EQ(::write(fds[1], "ond\na\nb\n", 8), 8);
  EXPECT_FALSE(reader.has_line());  // has_line never reads
  ASSERT_EQ(reader.read_line(line), ReadStatus::Line);
  EXPECT_EQ(line, "second");
  EXPECT_TRUE(reader.has_line());  // the read took "a" and "b" too
  ASSERT_EQ(reader.read_line(line), ReadStatus::Line);
  EXPECT_EQ(line, "a");
  EXPECT_TRUE(reader.has_line());
  ASSERT_EQ(reader.read_line(line), ReadStatus::Line);
  EXPECT_EQ(line, "b");
  EXPECT_FALSE(reader.has_line());
  for (const int fd : fds) ::close(fd);
}

/// Whatever `fd` holds right now, read without blocking.
std::string drain(int fd) {
  std::string bytes;
  pollfd ready = {fd, POLLIN, 0};
  while (::poll(&ready, 1, 0) == 1) {
    char buffer[256];
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n <= 0) break;
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
  return bytes;
}

TEST(LineWriter, QueuedLinesWaitForAFlushAndLeaveInOrder) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  LineWriter writer(fds[1]);
  EXPECT_TRUE(writer.flush());  // nothing queued: nothing written
  writer.queue_line("one");
  writer.queue_line("two");
  EXPECT_EQ(drain(fds[0]), "");
  EXPECT_TRUE(writer.flush());
  EXPECT_EQ(drain(fds[0]), "one\ntwo\n");
  EXPECT_TRUE(writer.flush());
  EXPECT_EQ(drain(fds[0]), "");
  // write_line sends what is queued first.
  writer.queue_line("three");
  EXPECT_TRUE(writer.write_line("four"));
  EXPECT_EQ(drain(fds[0]), "three\nfour\n");
  // After release nothing goes out.
  writer.queue_line("five");
  EXPECT_EQ(writer.release(), fds[1]);
  EXPECT_FALSE(writer.flush());
  EXPECT_FALSE(writer.write_line("six"));
  EXPECT_EQ(drain(fds[0]), "");
  for (const int fd : fds) ::close(fd);
}

}  // namespace
}  // namespace wtam::common
