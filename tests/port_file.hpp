// Shared by the tests that start `wtam_serve --listen 127.0.0.1:0
// --port-file PATH` and need the port the kernel picked.

#pragma once

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

namespace wtam::test_support {

/// Waits (bounded, about 10 s) for `wtam_serve --port-file` to publish
/// its endpoint; empty when it never does.
inline std::string read_port_file(const std::string& path) {
  for (int i = 0; i < 1000; ++i) {
    std::ifstream in(path);
    std::string endpoint;
    if (in >> endpoint) return endpoint;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return {};
}

}  // namespace wtam::test_support
