#include "api/job_io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace wtam::api {

namespace {

[[noreturn]] void bad_job(const std::string& what) {
  throw std::runtime_error("jobs json: " + what);
}

int as_bounded_int(const JsonValue& value, const char* key, std::int64_t lo,
                   std::int64_t hi) {
  std::int64_t parsed = 0;
  try {
    parsed = value.as_int();
  } catch (const std::exception&) {
    bad_job(std::string("field '") + key + "' must be an integer");
  }
  if (parsed < lo || parsed > hi)
    bad_job(std::string("field '") + key + "' out of range [" +
            std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(parsed);
}

std::string as_string_field(const JsonValue& value, const char* key) {
  try {
    return value.as_string();
  } catch (const std::exception&) {
    bad_job(std::string("field '") + key + "' must be a string");
  }
}

/// Non-negative 64-bit value (for RNG seeds). JSON integers cap at
/// int64, so seeds above 2^63-1 are not representable in a jobs file —
/// job_to_json enforces the same bound on the writing side.
std::uint64_t as_seed(const JsonValue& value, const char* key) {
  std::int64_t parsed = 0;
  try {
    parsed = value.as_int();
  } catch (const std::exception&) {
    bad_job(std::string("field '") + key + "' must be an integer");
  }
  if (parsed < 0)
    bad_job(std::string("field '") + key + "' must be >= 0");
  return static_cast<std::uint64_t>(parsed);
}

/// Reads an array of fixed-arity integer tuples ("precedence": [[0,2]]).
/// `arity` is 2 or 3; every element must be an array of that many
/// integers.
std::vector<std::vector<std::int64_t>> as_tuple_array(const JsonValue& value,
                                                      const char* key,
                                                      std::size_t arity) {
  if (!value.is_array())
    bad_job(std::string("constraints field '") + key +
            "' must be an array of [" +
            (arity == 2 ? "a, b" : "a, b, c") + "] entries");
  std::vector<std::vector<std::int64_t>> tuples;
  tuples.reserve(value.elements().size());
  for (const JsonValue& entry : value.elements()) {
    if (!entry.is_array() || entry.elements().size() != arity)
      bad_job(std::string("constraints field '") + key +
              "' entries must be arrays of " + std::to_string(arity) +
              " integers");
    std::vector<std::int64_t> tuple;
    tuple.reserve(arity);
    for (const JsonValue& element : entry.elements()) {
      try {
        tuple.push_back(element.as_int());
      } catch (const std::exception&) {
        bad_job(std::string("constraints field '") + key +
                "' entries must be arrays of " + std::to_string(arity) +
                " integers");
      }
    }
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

int as_core_index(std::int64_t value, const char* key) {
  if (value < 0 || value > std::numeric_limits<int>::max())
    bad_job(std::string("constraints field '") + key +
            "' has a core index out of range");
  return static_cast<int>(value);
}

int as_wire_index(std::int64_t value, const char* key) {
  if (value < 0 || value > 256)
    bad_job(std::string("constraints field '") + key +
            "' has a wire index outside [0, 256]");
  return static_cast<int>(value);
}

}  // namespace

core::ScheduleConstraints constraints_from_json(const JsonValue& value) {
  if (!value.is_object()) bad_job("'constraints' must be an object");
  core::ScheduleConstraints constraints;
  for (const auto& [key, field] : value.members()) {
    if (key == "power") {
      if (!field.is_array())
        bad_job("constraints field 'power' must be an array of integers");
      for (const JsonValue& entry : field.elements()) {
        try {
          constraints.power.push_back(entry.as_int());
        } catch (const std::exception&) {
          bad_job("constraints field 'power' must be an array of integers");
        }
      }
    } else if (key == "power_budget") {
      try {
        constraints.power_budget = field.as_int();
      } catch (const std::exception&) {
        bad_job("constraints field 'power_budget' must be an integer");
      }
      if (constraints.power_budget < 0)
        bad_job("constraints field 'power_budget' must be >= 0");
    } else if (key == "precedence") {
      for (const auto& pair : as_tuple_array(field, "precedence", 2))
        constraints.precedence.push_back(
            {as_core_index(pair[0], "precedence"),
             as_core_index(pair[1], "precedence")});
    } else if (key == "fixed") {
      for (const auto& triple : as_tuple_array(field, "fixed", 3))
        constraints.fixed.push_back(
            {as_core_index(triple[0], "fixed"),
             {as_wire_index(triple[1], "fixed"),
              as_wire_index(triple[2], "fixed")}});
    } else if (key == "forbidden") {
      for (const auto& triple : as_tuple_array(field, "forbidden", 3))
        constraints.forbidden.push_back(
            {as_core_index(triple[0], "forbidden"),
             {as_wire_index(triple[1], "forbidden"),
              as_wire_index(triple[2], "forbidden")}});
    } else if (key == "earliest_start") {
      for (const auto& pair : as_tuple_array(field, "earliest_start", 2)) {
        if (pair[1] < 0)
          bad_job("constraints field 'earliest_start' cycles must be >= 0");
        constraints.earliest.push_back(
            {as_core_index(pair[0], "earliest_start"), pair[1]});
      }
    } else {
      bad_job("unknown constraints field '" + key + "'");
    }
  }
  return constraints;
}

JsonValue constraints_to_json(const core::ScheduleConstraints& constraints) {
  JsonValue block = JsonValue::object();
  if (!constraints.power.empty()) {
    JsonValue power = JsonValue::array();
    for (const std::int64_t p : constraints.power)
      power.push(JsonValue::number(p));
    block.set("power", std::move(power));
  }
  if (constraints.power_budget != 0)
    block.set("power_budget", JsonValue::number(constraints.power_budget));
  const auto push_pair = [](JsonValue& array, std::int64_t a, std::int64_t b) {
    JsonValue pair = JsonValue::array();
    pair.push(JsonValue::number(a));
    pair.push(JsonValue::number(b));
    array.push(std::move(pair));
  };
  if (!constraints.precedence.empty()) {
    JsonValue precedence = JsonValue::array();
    for (const auto& pair : constraints.precedence)
      push_pair(precedence, pair.before, pair.after);
    block.set("precedence", std::move(precedence));
  }
  const auto set_intervals =
      [](JsonValue& block_ref, const char* key,
         const std::vector<core::CoreWireInterval>& intervals) {
        if (intervals.empty()) return;
        JsonValue array = JsonValue::array();
        for (const auto& entry : intervals) {
          JsonValue triple = JsonValue::array();
          triple.push(
              JsonValue::number(static_cast<std::int64_t>(entry.core)));
          triple.push(
              JsonValue::number(static_cast<std::int64_t>(entry.wires.lo)));
          triple.push(
              JsonValue::number(static_cast<std::int64_t>(entry.wires.hi)));
          array.push(std::move(triple));
        }
        block_ref.set(key, std::move(array));
      };
  set_intervals(block, "fixed", constraints.fixed);
  set_intervals(block, "forbidden", constraints.forbidden);
  if (!constraints.earliest.empty()) {
    JsonValue earliest = JsonValue::array();
    for (const auto& entry : constraints.earliest)
      push_pair(earliest, entry.core, entry.cycle);
    block.set("earliest_start", std::move(earliest));
  }
  return block;
}

JsonValue job_to_json(const SolveRequest& request) {
  if (request.soc_value.has_value())
    throw std::invalid_argument(
        "job_to_json: in-memory soc_value is not serializable; use soc or "
        "soc_inline");
  JsonValue job = JsonValue::object();
  if (!request.id.empty()) job.set("id", JsonValue::string(request.id));
  if (!request.soc.empty()) job.set("soc", JsonValue::string(request.soc));
  if (!request.soc_inline.empty())
    job.set("soc_inline", JsonValue::string(request.soc_inline));
  job.set("width", JsonValue::number(static_cast<std::int64_t>(request.width)));
  if (request.width_max != 0)
    job.set("width_max",
            JsonValue::number(static_cast<std::int64_t>(request.width_max)));
  job.set("backend", JsonValue::string(request.backend));
  const core::BackendOptions defaults;
  if (request.options.min_tams != defaults.min_tams)
    job.set("min_tams", JsonValue::number(
                            static_cast<std::int64_t>(request.options.min_tams)));
  if (request.options.max_tams != defaults.max_tams)
    job.set("max_tams", JsonValue::number(
                            static_cast<std::int64_t>(request.options.max_tams)));
  if (request.options.threads != defaults.threads)
    job.set("threads", JsonValue::number(
                           static_cast<std::int64_t>(request.options.threads)));
  if (request.options.run_final_step != defaults.run_final_step)
    job.set("run_final_step",
            JsonValue::boolean(request.options.run_final_step));
  if (request.options.rectpack.local_search_iterations !=
      defaults.rectpack.local_search_iterations)
    job.set("rectpack_iterations",
            JsonValue::number(static_cast<std::int64_t>(
                request.options.rectpack.local_search_iterations)));
  if (request.options.rectpack.seed != defaults.rectpack.seed) {
    if (request.options.rectpack.seed >
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
      throw std::invalid_argument(
          "job_to_json: rectpack seed exceeds the JSON integer range "
          "(2^63-1)");
    job.set("rectpack_seed",
            JsonValue::number(
                static_cast<std::int64_t>(request.options.rectpack.seed)));
  }
  if (!request.options.constraints.empty())
    job.set("constraints", constraints_to_json(request.options.constraints));
  if (request.deadline_s.has_value())
    job.set("deadline_s", JsonValue::number(*request.deadline_s));
  if (request.priority != 0)
    job.set("priority",
            JsonValue::number(static_cast<std::int64_t>(request.priority)));
  if (!request.tag.empty()) job.set("tag", JsonValue::string(request.tag));
  return job;
}

namespace {

/// Both job_from_json forms: every field checked and read but the
/// soc_inline text, which each form takes its own way.
SolveRequest job_without_inline_text(const JsonValue& value) {
  if (!value.is_object()) bad_job("each job must be an object");
  SolveRequest request;
  for (const auto& [key, field] : value.members()) {
    if (key == "id") {
      request.id = as_string_field(field, "id");
    } else if (key == "soc") {
      request.soc = as_string_field(field, "soc");
    } else if (key == "soc_inline") {
      if (field.kind() != JsonValue::Kind::String)
        bad_job("field 'soc_inline' must be a string");
    } else if (key == "width") {
      request.width = as_bounded_int(field, "width", 1, 256);
    } else if (key == "width_max") {
      request.width_max = as_bounded_int(field, "width_max", 0, 256);
    } else if (key == "backend") {
      request.backend = as_string_field(field, "backend");
    } else if (key == "min_tams") {
      request.options.min_tams = as_bounded_int(field, "min_tams", 1, 256);
    } else if (key == "max_tams") {
      request.options.max_tams = as_bounded_int(field, "max_tams", 1, 256);
    } else if (key == "threads") {
      request.options.threads = as_bounded_int(field, "threads", 0, 4096);
    } else if (key == "run_final_step") {
      try {
        request.options.run_final_step = field.as_bool();
      } catch (const std::exception&) {
        bad_job("field 'run_final_step' must be a boolean");
      }
    } else if (key == "rectpack_iterations") {
      request.options.rectpack.local_search_iterations = as_bounded_int(
          field, "rectpack_iterations", 0, std::numeric_limits<int>::max());
    } else if (key == "rectpack_seed") {
      request.options.rectpack.seed = as_seed(field, "rectpack_seed");
    } else if (key == "constraints") {
      request.options.constraints = constraints_from_json(field);
    } else if (key == "deadline_s") {
      double deadline = 0.0;
      try {
        deadline = field.as_double();
      } catch (const std::exception&) {
        bad_job("field 'deadline_s' must be a number");
      }
      if (!(deadline > 0.0)) bad_job("field 'deadline_s' must be > 0");
      request.deadline_s = deadline;
    } else if (key == "priority") {
      request.priority = as_bounded_int(field, "priority", -1'000'000,
                                        1'000'000);
    } else if (key == "tag") {
      request.tag = as_string_field(field, "tag");
    } else {
      bad_job("unknown field '" + key + "'");
    }
  }
  if (request.width == 0) bad_job("field 'width' is required");
  return request;
}

}  // namespace

SolveRequest job_from_json(const JsonValue& value) {
  SolveRequest request = job_without_inline_text(value);
  if (const JsonValue* text = value.find("soc_inline"))
    request.soc_inline = text->as_string();
  return request;
}

SolveRequest job_from_json(JsonValue&& value) {
  SolveRequest request = job_without_inline_text(value);
  if (JsonValue* text = value.find("soc_inline"))
    request.soc_inline = std::move(*text).as_string();
  return request;
}

std::vector<SolveRequest> parse_jobs(const std::string& text) {
  const JsonValue document = JsonValue::parse(text);
  const JsonValue* jobs = &document;
  if (document.is_object()) {
    jobs = document.find("jobs");
    if (jobs == nullptr) bad_job("top-level object must have a 'jobs' array");
  }
  if (!jobs->is_array()) bad_job("'jobs' must be an array");
  std::vector<SolveRequest> requests;
  requests.reserve(jobs->elements().size());
  for (std::size_t i = 0; i < jobs->elements().size(); ++i) {
    try {
      requests.push_back(job_from_json(jobs->elements()[i]));
    } catch (const std::exception& e) {
      throw std::runtime_error("job " + std::to_string(i + 1) + ": " +
                               e.what());
    }
  }
  return requests;
}

std::vector<SolveRequest> load_jobs_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open jobs file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_jobs(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string jobs_to_json(const std::vector<SolveRequest>& jobs) {
  JsonValue array = JsonValue::array();
  for (const SolveRequest& job : jobs) array.push(job_to_json(job));
  JsonValue document = JsonValue::object();
  document.set("jobs", std::move(array));
  return document.dump_string();
}

namespace {

/// Writes one compact JSON object member by member, in the bytes
/// JsonValue::dump_compact_string gives the same object. Its closing
/// brace is written when it goes out of scope.
class CompactObject {
 public:
  explicit CompactObject(std::string& out) : out_(out) { out_ += '{'; }
  CompactObject(const CompactObject&) = delete;
  CompactObject& operator=(const CompactObject&) = delete;
  ~CompactObject() { out_ += '}'; }

  /// Starts the member `name`; the caller appends its value.
  std::string& key(std::string_view name) {
    if (!empty_) out_ += ", ";
    empty_ = false;
    append_json_string(out_, name);
    out_ += ": ";
    return out_;
  }
  void string(std::string_view name, std::string_view value) {
    append_json_string(key(name), value);
  }
  void number(std::string_view name, std::int64_t value) {
    append_json_number(key(name), value);
  }
  void number(std::string_view name, double value) {
    append_json_number(key(name), value);
  }
  void boolean(std::string_view name, bool value) {
    key(name) += value ? "true" : "false";
  }

 private:
  std::string& out_;
  bool empty_ = true;
};

void append_details(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& details) {
  CompactObject object(out);
  for (auto it = details.begin(); it != details.end(); ++it) {
    const auto same_key = [&it](const auto& detail) {
      return detail.first == it->first;
    };
    // A repeated key keeps its first place and its last value, as
    // JsonValue::set does.
    if (std::any_of(details.begin(), it, same_key)) continue;
    object.string(it->first,
                  std::find_if(details.rbegin(), details.rend(), same_key)
                      ->second);
  }
}

void append_trace(std::string& out, const std::vector<obs::TraceSpan>& spans) {
  out += '[';
  for (const obs::TraceSpan& span : spans) {
    if (&span != &spans.front()) out += ", ";
    CompactObject object(out);
    object.string("stage", span.stage);
    object.number("start_ns", span.start_ns);
    object.number("duration_ns", span.duration_ns);
  }
  out += ']';
}

}  // namespace

std::string result_line(const SolveResult& result,
                        const ResultsWriteOptions& options) {
  std::string line;
  {
    CompactObject entry(line);
    entry.string("id", result.id);  // first: see result_line's contract
    if (!result.tag.empty()) entry.string("tag", result.tag);
    entry.string("status", to_string(result.status));
    if (!result.error.empty()) entry.string("error", result.error);
    if (!result.soc_name.empty()) {
      entry.string("soc", result.soc_name);
      entry.number("core_count", std::int64_t{result.core_count});
    }
    entry.string("backend", result.backend);
    if (result.has_outcome()) {
      const core::BackendOutcome& outcome = *result.outcome;
      entry.number("width", std::int64_t{result.width});
      entry.number("widths_tried", std::int64_t{result.widths_tried});
      entry.number("testing_time", outcome.testing_time);
      entry.number("lower_bound", result.lower_bound);
      if (result.lower_bound > 0)
        entry.number("gap", result.optimality_gap());
      if (outcome.architecture.has_value())
        entry.number("tam_count",
                     std::int64_t{outcome.architecture->tam_count()});
      entry.boolean("schedule_valid", result.schedule_valid);
      append_details(entry.key("details"), outcome.details);
      if (options.include_timing) entry.number("cpu_s", outcome.cpu_s);
    }
    if (options.include_cache) entry.string("cache", to_string(result.cache));
    if (options.include_timing) entry.number("wall_s", result.wall_s);
    if (options.include_trace && !result.trace.empty())
      append_trace(entry.key("trace"), result.trace);
  }
  return line;
}

JsonValue result_to_json(const SolveResult& result,
                         const ResultsWriteOptions& options) {
  return JsonValue::parse(result_line(result, options));
}

std::string results_to_json(const std::vector<SolveResult>& results,
                            const ResultsWriteOptions& options) {
  JsonValue document = JsonValue::object();
  document.set("schema", JsonValue::string("wtam-batch-results-v1"));
  document.set("jobs",
               JsonValue::number(static_cast<std::int64_t>(results.size())));
  JsonValue array = JsonValue::array();
  for (const SolveResult& result : results)
    array.push(result_to_json(result, options));
  document.set("results", std::move(array));
  return document.dump_string();
}

void write_results_file(const std::string& path,
                        const std::vector<SolveResult>& results,
                        const ResultsWriteOptions& options) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << results_to_json(results, options) << '\n';
  if (!out) throw std::runtime_error("write failed for " + path);
}

}  // namespace wtam::api
