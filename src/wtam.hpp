// Umbrella header: the full public API of the wrapper/TAM co-optimization
// library. Fine-grained headers remain available for selective inclusion.

#pragma once

#include "api/job_io.hpp"           // IWYU pragma: export
#include "api/json_value.hpp"       // IWYU pragma: export
#include "api/request_key.hpp"      // IWYU pragma: export
#include "api/result_cache.hpp"     // IWYU pragma: export
#include "api/solver.hpp"           // IWYU pragma: export
#include "common/hash.hpp"          // IWYU pragma: export
#include "common/rng.hpp"           // IWYU pragma: export
#include "common/table.hpp"         // IWYU pragma: export
#include "common/thread_pool.hpp"   // IWYU pragma: export
#include "common/timer.hpp"         // IWYU pragma: export
#include "core/assignment_exact.hpp"    // IWYU pragma: export
#include "core/backend.hpp"             // IWYU pragma: export
#include "core/co_optimizer.hpp"        // IWYU pragma: export
#include "core/constraints.hpp"         // IWYU pragma: export
#include "core/core_assign.hpp"         // IWYU pragma: export
#include "core/daisy_chain.hpp"         // IWYU pragma: export
#include "core/exhaustive.hpp"          // IWYU pragma: export
#include "core/lower_bounds.hpp"        // IWYU pragma: export
#include "core/partition_evaluate.hpp"  // IWYU pragma: export
#include "core/power.hpp"               // IWYU pragma: export
#include "core/solve_context.hpp"       // IWYU pragma: export
#include "core/tam_types.hpp"           // IWYU pragma: export
#include "core/test_time_table.hpp"     // IWYU pragma: export
#include "ilp/branch_and_bound.hpp"     // IWYU pragma: export
#include "lp/simplex.hpp"               // IWYU pragma: export
#include "obs/metrics.hpp"              // IWYU pragma: export
#include "obs/metrics_json.hpp"         // IWYU pragma: export
#include "obs/trace.hpp"                // IWYU pragma: export
#include "pack/packed_schedule.hpp"     // IWYU pragma: export
#include "pack/rect_model.hpp"          // IWYU pragma: export
#include "pack/rectpack.hpp"            // IWYU pragma: export
#include "pack/skyline.hpp"             // IWYU pragma: export
#include "partition/partition.hpp"      // IWYU pragma: export
#include "soc/benchmarks.hpp"           // IWYU pragma: export
#include "soc/generator.hpp"            // IWYU pragma: export
#include "soc/load.hpp"                 // IWYU pragma: export
#include "soc/soc.hpp"                  // IWYU pragma: export
#include "soc/soc_io.hpp"               // IWYU pragma: export
#include "wrapper/wrapper.hpp"          // IWYU pragma: export
