#include "common/line_io.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <utility>

#include <poll.h>
#include <unistd.h>

namespace wtam::common {

namespace {

constexpr std::size_t kMinRead = 4096;  // the least space a read is offered

}  // namespace

LineReader::LineReader(int fd, std::size_t max_line_bytes, int wake_fd)
    : fd_(fd), wake_fd_(wake_fd), max_line_bytes_(max_line_bytes) {}

ReadStatus LineReader::read_line(std::string& line) {
  for (;;) {
    const char* const data = buffer_.data();
    if (const void* found =
            std::memchr(data + scanned_, '\n', end_ - scanned_)) {
      const auto newline =
          static_cast<std::size_t>(static_cast<const char*>(found) - data);
      const std::size_t begin = std::exchange(begin_, newline + 1);
      scanned_ = begin_;
      if (std::exchange(too_long_, false) ||
          newline - begin > max_line_bytes_) {
        line.clear();
        return ReadStatus::TooLong;
      }
      line.assign(data + begin, newline - begin);
      return ReadStatus::Line;
    }
    scanned_ = end_;
    if (too_long_ || end_ - begin_ > max_line_bytes_) {
      // Over the bound and no newline yet: drop what arrived, and keep
      // dropping until the newline shows up.
      too_long_ = true;
      begin_ = end_;
    }
    if (eof_) {
      line.clear();
      if (std::exchange(too_long_, false)) return ReadStatus::TooLong;
      if (begin_ == end_) return ReadStatus::Eof;
      line.assign(data + begin_, end_ - begin_);
      begin_ = end_;
      return ReadStatus::Line;
    }
    eof_ = !fill();
  }
}

bool LineReader::has_line() {
  // Whatever this search passes over is newline-free, so read_line's
  // search starts where this one stopped.
  const char* const data = buffer_.data();
  const void* found = std::memchr(data + scanned_, '\n', end_ - scanned_);
  scanned_ = found == nullptr ? end_
                              : static_cast<std::size_t>(
                                    static_cast<const char*>(found) - data);
  return found != nullptr;
}

bool LineReader::fill() {
  if (begin_ != 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    scanned_ -= begin_;
    begin_ = 0;
  }
  if (buffer_.size() - end_ < kMinRead)
    buffer_.resize(std::max(2 * buffer_.size(), 2 * kMinRead));
  for (;;) {
    if (wake_fd_ >= 0) {
      pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
      if (::poll(fds, 2, -1) < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (fds[1].revents != 0) {
        begin_ = scanned_ = end_;
        too_long_ = false;
        return false;
      }
    }
    const ssize_t n =
        ::read(fd_, buffer_.data() + end_, buffer_.size() - end_);
    if (n > 0) {
      end_ += static_cast<std::size_t>(n);
      return true;
    }
    if (n == 0 || errno != EINTR) return false;  // an error reads as EOF
  }
}

LineWriter::LineWriter(int fd) : fd_(fd) {
  static const auto ignored = ::signal(SIGPIPE, SIG_IGN);  // once, thread-safe
  (void)ignored;
}

bool LineWriter::write_line(std::string_view line) {
  const MutexLock lock(mutex_);
  queued_.append(line);
  queued_ += '\n';
  return send_queued();
}

void LineWriter::queue_line(std::string_view line) {
  const MutexLock lock(mutex_);
  if (!open_) return;
  queued_.append(line);
  queued_ += '\n';
}

bool LineWriter::flush() {
  const MutexLock lock(mutex_);
  return send_queued();
}

bool LineWriter::send_queued() {
  for (std::size_t written = 0; open_ && written < queued_.size();) {
    const ssize_t n =
        ::write(fd_, queued_.data() + written, queued_.size() - written);
    if (n > 0)
      written += static_cast<std::size_t>(n);
    else if (n == 0 || errno != EINTR)
      open_ = false;  // EPIPE (the peer is gone) or an I/O error
  }
  queued_.clear();
  return open_;
}

int LineWriter::release() {
  const MutexLock lock(mutex_);
  open_ = false;
  return std::exchange(fd_, -1);
}

}  // namespace wtam::common
