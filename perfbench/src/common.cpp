#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxProblems = 5;

/// Shortest round-trip decimal: the value with every digit as measured.
std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[32];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, end.ptr);
}

std::span<const MetricSpec> metric_table(bool traced) {
  if (traced) return kPerLayer;
  return kEndToEnd;
}

/// Fields of a process's stat line after the parenthesized command name
/// (which may hold spaces); element 0 is field 3, the state.
std::vector<std::string> stat_fields(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<std::string> fields;
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return fields;
  std::istringstream rest(text.substr(close + 1));
  for (std::string field; rest >> field;) fields.push_back(field);
  return fields;
}

}  // namespace

void Tally::fail(std::string why) {
  ++failed;
  if (problems.size() < kMaxProblems) problems.push_back(std::move(why));
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& problem : other.problems)
    if (problems.size() < kMaxProblems) problems.push_back(problem);
}

void Report::set(const std::string& name, double value) {
  for (const bool traced : {false, true})
    for (const MetricSpec& spec : metric_table(traced))
      if (name == spec.name) {
        values_[name] = value;
        return;
      }
  throw std::logic_error("Report::set: unknown metric " + name);
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, json_quote(value));
}

void Report::meta(const std::string& key, double value) {
  meta_.emplace_back(key, json_number(value));
}

void Report::require(bool condition, const std::string& what) {
  if (!condition) broken_.push_back(what);
}

int Report::print(bool traced) const {
  for (const std::string& problem : tally_.problems)
    std::cerr << "perfbench: failed request: " << problem << "\n";
  for (const std::string& check : broken_)
    std::cerr << "perfbench: self-check failed: " << check << "\n";
  const bool correct =
      tally_.attempted > 0 && tally_.failed == 0 && broken_.empty();

  std::vector<std::pair<std::string, std::string>> meta = meta_;
  meta.emplace_back("nproc", json_number(static_cast<double>(
                                 wtam::common::ThreadPool::hardware_threads())));
  meta.emplace_back("compiler", json_quote(PERFBENCH_COMPILER));
  meta.emplace_back("build_type", json_quote(PERFBENCH_BUILD_TYPE));
  meta.emplace_back("sent", std::to_string(tally_.attempted));
  meta.emplace_back("ok", std::to_string(tally_.attempted -
                                         std::min(tally_.attempted,
                                                  tally_.failed)));
  meta.emplace_back("failed", std::to_string(tally_.failed));
  std::string meta_line = "{\"meta\": {";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    if (i > 0) meta_line += ", ";
    meta_line += json_quote(meta[i].first) + ": " + meta[i].second;
  }
  meta_line += "}}";

  std::string result = "{\"correct\": ";
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(tally_.attempted);
  result += ", \"failed\": " + std::to_string(tally_.failed);
  result += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : metric_table(traced)) {
    const auto it = values_.find(spec.name);
    if (!first) result += ", ";
    first = false;
    result += json_quote(spec.name) + ": {\"value\": " +
              json_number(it == values_.end() ? 0.0 : it->second) +
              ", \"unit\": " + json_quote(spec.unit) + "}";
  }
  result += "}}";
  std::cout << meta_line << "\n" << result << std::endl;
  return correct ? 0 : 1;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  return values[lower] + (values[upper] - values[lower]) *
                             (position - static_cast<double>(lower));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double thread_cpu_s() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

ProcUsage proc_usage(pid_t pid) {
  ProcUsage usage;
  const std::vector<std::string> fields = stat_fields(std::to_string(pid));
  // utime and stime are fields 14 and 15, in clock ticks.
  if (fields.size() > 12)
    usage.cpu_s = (std::stod(fields[11]) + std::stod(fields[12])) /
                  static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      usage.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;  // kB
  return usage;
}

std::vector<pid_t> child_pids(pid_t parent) {
  std::vector<pid_t> children;
  const std::string wanted = std::to_string(parent);
  std::error_code error;
  for (std::filesystem::directory_iterator it("/proc", error), end;
       !error && it != end; it.increment(error)) {
    const std::string name = it->path().filename().string();
    if (name.empty() || !std::all_of(name.begin(), name.end(), [](char c) {
          return c >= '0' && c <= '9';
        }))
      continue;
    const std::vector<std::string> fields = stat_fields(name);
    if (fields.size() > 1 && fields[1] == wanted)
      children.push_back(static_cast<pid_t>(std::stol(name)));
  }
  return children;
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += escaped;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

double LayerTimes::get(const std::string& layer) const {
  const auto it = ns.find(layer);
  return it == ns.end() ? 0.0 : it->second;
}

LayerTimes layer_times(const std::vector<Span>& spans) {
  LayerTimes times;
  if (spans.empty()) return times;
  times.wall_ns = static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    self[i] += duration;
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= duration;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::string layer = spans[i].name;
    if (layer == "request" || layer == "backend.optimize") {
      times.residual_ns += self[i];
      continue;
    }
    if (layer.rfind("walker:", 0) == 0)
      layer = "pack.walker";
    else if (layer == "partition-search")
      layer = "core.partition_search";
    else if (layer == "exact-step")
      layer = "core.exact_step";
    times.ns[layer] += self[i];
  }
  return times;
}

void write_spans(
    const std::string& path,
    const std::vector<std::pair<std::size_t, const std::vector<Span>*>>&
        requests) {
  std::ofstream out(path);
  for (const auto& [position, spans] : requests) {
    out << "{\"request\": " << position << ", \"residual_ns\": "
        << json_number(layer_times(*spans).residual_ns) << ", \"spans\": [";
    for (std::size_t i = 0; i < spans->size(); ++i) {
      const Span& span = (*spans)[i];
      out << (i > 0 ? ", " : "") << "{\"name\": " << json_quote(span.name)
          << ", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
          << "}";
    }
    out << "]}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
