// Deliberately-bad fixture: raw descriptor reads and writes outside
// src/common/line_io.cpp. Streams are framed by common::LineReader and
// written by common::LineWriter, whose queue sends a read burst's lines
// in one write; a raw write would bypass the bound and the batching.

#include <unistd.h>

void echo_one_line(int in, int out) {
  char buffer[64];
  const ssize_t n = ::read(in, buffer, sizeof buffer);  // bad: raw read
  if (n > 0) (void)::write(out, buffer, static_cast<size_t>(n));  // bad
}
