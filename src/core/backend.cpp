#include "core/backend.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/co_optimizer.hpp"
#include "core/power.hpp"

namespace wtam::core {

namespace {

/// Names the constraint classes in `constraints` outside `supported`
/// (a comma-separated list) — empty when everything is supported.
std::string unsupported_classes(const ScheduleConstraints& constraints,
                                bool supports_power) {
  std::string classes;
  const auto add = [&classes](const char* name) {
    if (!classes.empty()) classes += ", ";
    classes += name;
  };
  if (constraints.has_power() && !supports_power) add("power");
  if (!constraints.precedence.empty()) add("precedence");
  if (!constraints.fixed.empty()) add("fixed wire intervals");
  if (!constraints.forbidden.empty()) add("forbidden wire intervals");
  if (!constraints.earliest.empty()) add("earliest_start");
  return classes;
}

class EnumerativeBackend final : public OptimizerBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "enumerative";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "Partition_evaluate over all width partitions + one exact "
           "re-optimization (the source paper's two-step flow)";
  }
  [[nodiscard]] BackendOutcome optimize(
      const TestTimeTable& table, int total_width,
      const BackendOptions& options,
      const SolveContext& context) const override {
    const ScheduleConstraints& constraints = options.constraints;
    if (const std::string classes =
            unsupported_classes(constraints, /*supports_power=*/true);
        !classes.empty())
      throw UnsupportedConstraintError(std::string(name()), classes);

    CoOptimizeOptions co;
    co.search.min_tams = options.min_tams;
    co.search.max_tams = options.max_tams;
    co.search.threads = options.threads;
    co.search.context = &context;
    co.run_final_step = options.run_final_step;
    const auto result = co_optimize(table, total_width, co);

    BackendOutcome outcome;
    outcome.backend = std::string(name());
    outcome.testing_time = result.architecture.testing_time;
    outcome.schedule = pack::from_architecture(table, result.architecture);
    outcome.architecture = result.architecture;
    outcome.cpu_s = result.total_cpu_s();
    outcome.interrupt = result.interrupt;
    outcome.details.emplace_back(
        "partition", format_partition(result.architecture.widths));
    outcome.details.emplace_back(
        "assignment", format_assignment(result.architecture.assignment));
    outcome.details.emplace_back(
        "heuristic time", std::to_string(result.heuristic.best.testing_time));

    if (constraints.has_power()) {
      // Honor the budget on the architecture the power-blind search
      // chose: the sessions on its static TAM lanes are delayed just
      // enough (greedy list scheduling, core/power.hpp). The makespan can
      // only grow.
      PowerConstrainedResult limited = schedule_with_power_limit(
          table, result.architecture, constraints.power,
          constraints.power_budget);
      if (!limited.feasible)
        // validate_constraints rejects single cores above the budget, so
        // this only fires for callers that skipped validation.
        throw std::invalid_argument(
            "enumerative backend: power budget infeasible (a single core "
            "exceeds it)");
      outcome.schedule = std::move(limited.schedule);
      outcome.testing_time = outcome.schedule.makespan;
      outcome.details.emplace_back("power budget",
                                   std::to_string(constraints.power_budget));
      outcome.details.emplace_back("peak power",
                                   std::to_string(limited.peak));
      outcome.details.emplace_back("power idle cycles",
                                   std::to_string(limited.idle_cycles));
    }
    return outcome;
  }
};

class RectPackBackend final : public OptimizerBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rectpack";
  }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "bottom-left skyline packing of Pareto wrapper rectangles with "
           "width-adjust-and-repack local search (arXiv:1008.3320 model)";
  }
  [[nodiscard]] BackendOutcome optimize(
      const TestTimeTable& table, int total_width,
      const BackendOptions& options,
      const SolveContext& context) const override {
    pack::RectPackOptions rectpack = options.rectpack;
    rectpack.context = &context;
    rectpack.threads = options.threads;
    rectpack.constraints = options.constraints;
    const auto result = pack::rectpack_schedule(table, total_width, rectpack);

    BackendOutcome outcome;
    outcome.backend = std::string(name());
    outcome.testing_time = result.makespan;
    outcome.schedule = result.schedule;
    outcome.cpu_s = result.cpu_s;
    outcome.interrupt = result.interrupt;
    outcome.details.emplace_back("seed ordering", result.seed_ordering);
    outcome.details.emplace_back("repacks", std::to_string(result.repacks));
    if (!options.constraints.empty())
      outcome.details.emplace_back(
          "constraints", canonical_constraints(options.constraints));
    std::ostringstream utilization;
    utilization << static_cast<int>(
                       pack::strip_utilization(result.schedule) * 100.0 + 0.5)
                << "%";
    outcome.details.emplace_back("strip utilization", utilization.str());
    return outcome;
  }
};

}  // namespace

BackendRegistry::BackendRegistry() {
  register_backend(std::make_unique<EnumerativeBackend>());
  register_backend(std::make_unique<RectPackBackend>());
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

bool BackendRegistry::register_backend(
    std::unique_ptr<OptimizerBackend> backend) {
  if (backend == nullptr)
    throw std::invalid_argument("register_backend: null backend");
  if (const OptimizerBackend* existing = find(backend->name())) {
    // Same name + same description: idempotent re-registration (tests and
    // plugins may register unconditionally). A different backend under an
    // existing name is a programming error worth naming precisely.
    if (existing->description() == backend->description()) return false;
    throw std::invalid_argument(
        "register_backend: backend '" + std::string(backend->name()) +
        "' is already registered as \"" + std::string(existing->description()) +
        "\"");
  }
  backends_.push_back(std::move(backend));
  return true;
}

const OptimizerBackend* BackendRegistry::find(std::string_view name) const {
  for (const auto& backend : backends_)
    if (backend->name() == name) return backend.get();
  return nullptr;
}

const OptimizerBackend& BackendRegistry::at(std::string_view name) const {
  if (const OptimizerBackend* backend = find(name)) return *backend;
  std::ostringstream out;
  out << "unknown backend '" << name << "' (registered:";
  for (const auto& known : names()) out << " " << known;
  out << ")";
  throw std::invalid_argument(out.str());
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(backends_.size());
  for (const auto& backend : backends_)
    result.emplace_back(backend->name());
  return result;
}

std::vector<const OptimizerBackend*> BackendRegistry::backends() const {
  std::vector<const OptimizerBackend*> result;
  result.reserve(backends_.size());
  for (const auto& backend : backends_) result.push_back(backend.get());
  return result;
}

}  // namespace wtam::core
