# Exit-status contract of the wtam_opt CLI, exercised as a ctest:
#   0 — success,
#   1 — runtime error (unreadable/bad --soc files, ...), with a clean
#       "error: ..." message instead of std::terminate,
#   2 — usage error (unknown flags, missing/invalid values),
# plus the wtam_serve NDJSON protocol smoke check (requests in, results
# out, cache hits on resubmission, control verbs, clean shutdown) and a
# metrics-verb scrape whose counters must equal the jobs submitted.
# Run via:  cmake -DWTAM_OPT=<binary> -DWTAM_SERVE=<binary>
#                 -DWORK_DIR=<dir> -P cli_checks.cmake

if(NOT DEFINED WTAM_OPT OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DWTAM_OPT=<binary> -DWORK_DIR=<dir>")
endif()

function(expect_run expected_code stderr_pattern)
  execute_process(COMMAND ${WTAM_OPT} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected_code})
    message(FATAL_ERROR "wtam_opt ${ARGN}: exit ${code}, expected "
                        "${expected_code}\nstderr: ${err}")
  endif()
  if(NOT "${stderr_pattern}" STREQUAL "" AND NOT err MATCHES "${stderr_pattern}")
    message(FATAL_ERROR "wtam_opt ${ARGN}: stderr does not match "
                        "'${stderr_pattern}'\nstderr: ${err}")
  endif()
endfunction()

# Usage errors exit 2 and print usage.
expect_run(2 "unknown option" --bogus)
expect_run(2 "--soc is required" --width 16)
expect_run(2 "missing value for --width" --soc d695 --width)
expect_run(2 "--width must be in" --soc d695 --width 0)
expect_run(2 "unknown backend" --soc d695 --width 16 --backend annealing)
# Numeric flag values must parse whole: garbage is not 0, "32x" is not 32,
# and an out-of-range integer is an error, not undefined behaviour.
expect_run(2 "invalid value 'abc' for --threads" --threads abc)
expect_run(2 "invalid value '32x' for --width" --soc d695 --width 32x)
expect_run(2 "invalid value '99999999999' for --threads"
             --soc d695 --width 16 --threads 99999999999)
# wtam_router and wtam_serve share that parser. `--workers x` used to read
# as 0 workers; the quoted "" reaches the tool as an empty argument.
execute_process(COMMAND ${WTAM_ROUTER} --workers x
                INPUT_FILE /dev/null
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "invalid value 'x' for --workers")
  message(FATAL_ERROR "wtam_router --workers x: exit ${code}, expected 2\n"
                      "stderr: ${err}")
endif()
execute_process(COMMAND ${WTAM_SERVE} --queue-limit ""
                INPUT_FILE /dev/null
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "invalid value '' for --queue-limit")
  message(FATAL_ERROR "wtam_serve --queue-limit '': exit ${code}, expected 2\n"
                      "stderr: ${err}")
endif()

# Runtime errors exit 1 with a clean "error:" line (no std::terminate).
expect_run(1 "error: cannot open soc file" --soc ${WORK_DIR}/no_such.soc --width 16)
file(WRITE ${WORK_DIR}/cli_bad.soc "soc x\ncore y patterns=zz inputs=1 outputs=1\n")
expect_run(1 "error: soc parse error at line 2" --soc ${WORK_DIR}/cli_bad.soc --width 16)

# Success paths exit 0.
expect_run(0 "" --list-backends)
expect_run(0 "" --soc d695 --width 16 --backend rectpack --quiet)
# A CRLF-saved .soc file (Windows editors) parses fine.
file(WRITE ${WORK_DIR}/cli_crlf.soc
     "soc crlf\r\ncore a patterns=5 inputs=2 outputs=2 scan=3,4\r\n")
expect_run(0 "" --soc ${WORK_DIR}/cli_crlf.soc --width 8 --quiet)

# ---- batch mode (api::Solver round trip) -----------------------------------

# Usage/runtime errors first.
expect_run(2 "cannot be combined" --batch x.json --soc d695 --width 8)
expect_run(2 "requires --batch" --soc d695 --width 8 --out x.json)
expect_run(1 "error: cannot open jobs file" --batch ${WORK_DIR}/no_such_jobs.json)
file(WRITE ${WORK_DIR}/cli_bad_jobs.json "{\"jobs\": [{\"soc\": \"d695\", \"width\": 8, \"bogus\": 1}]}")
expect_run(1 "unknown field 'bogus'" --batch ${WORK_DIR}/cli_bad_jobs.json)

# Round trip: submit 3 jobs, check the results JSON parses and every
# status is "ok" — then re-run at another thread count and require the
# byte-identical artifact the batch determinism contract promises.
file(WRITE ${WORK_DIR}/cli_jobs.json "{\"jobs\": [
  {\"id\": \"a\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"},
  {\"id\": \"b\", \"soc\": \"d695\", \"width\": 24, \"backend\": \"enumerative\", \"max_tams\": 4},
  {\"id\": \"c\", \"soc\": \"d695\", \"width\": 16, \"width_max\": 20, \"backend\": \"enumerative\", \"max_tams\": 3}
]}")
expect_run(0 "" --batch ${WORK_DIR}/cli_jobs.json --threads 4
             --out ${WORK_DIR}/cli_results.json --quiet)
file(READ ${WORK_DIR}/cli_results.json results)
string(JSON result_count LENGTH "${results}" results)
if(NOT result_count EQUAL 3)
  message(FATAL_ERROR "expected 3 results, got ${result_count}")
endif()
math(EXPR last "${result_count} - 1")
foreach(i RANGE ${last})
  string(JSON status GET "${results}" results ${i} status)
  if(NOT status STREQUAL "ok")
    message(FATAL_ERROR "result ${i}: status '${status}', expected 'ok'")
  endif()
  string(JSON valid GET "${results}" results ${i} schedule_valid)
  if(NOT valid STREQUAL "ON")  # CMake renders JSON true as ON
    message(FATAL_ERROR "result ${i}: schedule_valid '${valid}'")
  endif()
endforeach()
expect_run(0 "" --batch ${WORK_DIR}/cli_jobs.json --threads 1
             --out ${WORK_DIR}/cli_results_serial.json --quiet)
file(READ ${WORK_DIR}/cli_results_serial.json results_serial)
if(NOT results STREQUAL results_serial)
  message(FATAL_ERROR "batch results differ between --threads 4 and --threads 1")
endif()

# A deadline-bound job on p93791 comes back deadline_exceeded with a
# validator-clean best-so-far schedule (not an error).
file(WRITE ${WORK_DIR}/cli_deadline_jobs.json "{\"jobs\": [
  {\"id\": \"slow\", \"soc\": \"p93791\", \"width\": 48, \"max_tams\": 16, \"deadline_s\": 0.01}
]}")
expect_run(0 "" --batch ${WORK_DIR}/cli_deadline_jobs.json
             --out ${WORK_DIR}/cli_deadline_results.json --quiet)
file(READ ${WORK_DIR}/cli_deadline_results.json deadline_results)
string(JSON status GET "${deadline_results}" results 0 status)
if(NOT status STREQUAL "deadline_exceeded")
  message(FATAL_ERROR "deadline job: status '${status}', expected 'deadline_exceeded'")
endif()
string(JSON valid GET "${deadline_results}" results 0 schedule_valid)
if(NOT valid STREQUAL "ON")
  message(FATAL_ERROR "deadline job: best-so-far schedule did not validate")
endif()

# A cached re-run of the same jobs file produces the byte-identical
# results artifact (cache provenance stays off the canonical bytes).
expect_run(0 "" --batch ${WORK_DIR}/cli_jobs.json --threads 2 --cache
             --out ${WORK_DIR}/cli_results_cached.json --quiet)
file(READ ${WORK_DIR}/cli_results_cached.json results_cached)
if(NOT results STREQUAL results_cached)
  message(FATAL_ERROR "batch results differ with --cache on")
endif()

# Observability is reporting, not behavior: the same batch with
# --metrics/--trace on must still produce the byte-identical results
# file (spans and scrapes go to stderr only).
expect_run(0 "# TYPE solver_requests counter"
             --batch ${WORK_DIR}/cli_jobs.json --threads 2 --metrics --trace
             --out ${WORK_DIR}/cli_results_obs.json --quiet)
file(READ ${WORK_DIR}/cli_results_obs.json results_obs)
if(NOT results STREQUAL results_obs)
  message(FATAL_ERROR "batch results differ with --metrics/--trace on")
endif()

# ---- constrained batch round trip ------------------------------------------
# Same SOC/width/backend with and without a power budget, plus an exact
# resubmission of the constrained job. Cold run (no cache) and warm run
# (cache, serial so the resubmission hits the stored entry) must produce
# byte-identical results files; the cache summary must report exactly one
# hit and two misses — i.e. constrained and unconstrained jobs have
# different cache keys, and the constrained resubmission reuses its own.
file(WRITE ${WORK_DIR}/cli_constrained_jobs.json "{\"jobs\": [
  {\"id\": \"plain\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"},
  {\"id\": \"power\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\",
   \"constraints\": {\"power\": [100,100,100,100,100,100,100,100,100,100],
                     \"power_budget\": 100}},
  {\"id\": \"power-again\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\",
   \"constraints\": {\"power\": [100,100,100,100,100,100,100,100,100,100],
                     \"power_budget\": 100}}
]}")
expect_run(0 "" --batch ${WORK_DIR}/cli_constrained_jobs.json --threads 2
             --out ${WORK_DIR}/cli_constrained_cold.json --quiet)
file(READ ${WORK_DIR}/cli_constrained_cold.json constrained_cold)
foreach(i RANGE 2)
  string(JSON status GET "${constrained_cold}" results ${i} status)
  string(JSON valid GET "${constrained_cold}" results ${i} schedule_valid)
  if(NOT status STREQUAL "ok" OR NOT valid STREQUAL "ON")
    message(FATAL_ERROR "constrained batch result ${i}: status '${status}', "
                        "schedule_valid '${valid}'")
  endif()
endforeach()
string(JSON plain_time GET "${constrained_cold}" results 0 testing_time)
string(JSON power_time GET "${constrained_cold}" results 1 testing_time)
if(NOT power_time GREATER plain_time)
  message(FATAL_ERROR "power-budget job (${power_time}) should be slower "
                      "than the unconstrained job (${plain_time})")
endif()
expect_run(0 "cache: 1 hits, 2 misses"
             --batch ${WORK_DIR}/cli_constrained_jobs.json --threads 1 --cache
             --out ${WORK_DIR}/cli_constrained_warm.json)
file(READ ${WORK_DIR}/cli_constrained_warm.json constrained_warm)
if(NOT constrained_cold STREQUAL constrained_warm)
  message(FATAL_ERROR "constrained batch results differ between the cold "
                      "run and the warm --cache run")
endif()

message(STATUS "wtam_opt CLI exit-status contract holds (incl. --batch and "
               "constrained jobs)")

# ---- wtam_serve (NDJSON service smoke check) -------------------------------

if(NOT DEFINED WTAM_SERVE)
  message(FATAL_ERROR "pass -DWTAM_SERVE=<binary>")
endif()

# 4 distinct requests (one carrying an inline constraints block), a
# resubmission of the first (must be served from the cache), a stats
# probe, and a shutdown. Responses may arrive out of submission order;
# ids correlate them.
file(WRITE ${WORK_DIR}/serve_session.ndjson
"{\"id\": \"a\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"}
{\"id\": \"b\", \"soc\": \"d695\", \"width\": 24, \"backend\": \"rectpack\"}
{\"id\": \"c\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"enumerative\", \"max_tams\": 4}
{\"id\": \"d\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\", \"constraints\": {\"power\": [100,100,100,100,100,100,100,100,100,100], \"power_budget\": 200}}
{\"id\": \"a-again\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"}
{\"op\": \"stats\"}
{\"op\": \"shutdown\"}
")
execute_process(COMMAND ${WTAM_SERVE} --quiet --threads 2
                INPUT_FILE ${WORK_DIR}/serve_session.ndjson
                OUTPUT_VARIABLE serve_out
                ERROR_VARIABLE serve_err
                RESULT_VARIABLE serve_code)
if(NOT serve_code EQUAL 0)
  message(FATAL_ERROR "wtam_serve: exit ${serve_code}\nstderr: ${serve_err}")
endif()
string(REGEX REPLACE "\n+$" "" serve_out "${serve_out}")
# Response bodies may contain literal ';' (the canonical constraints
# detail), which would split CMake lists — hide them before splitting
# on newlines, restore per line.
string(REPLACE ";" "<semi>" serve_escaped "${serve_out}")
string(REPLACE "\n" ";" serve_lines "${serve_escaped}")
list(LENGTH serve_lines serve_line_count)
if(NOT serve_line_count EQUAL 7)
  message(FATAL_ERROR "wtam_serve: expected 7 response lines, got "
                      "${serve_line_count}:\n${serve_out}")
endif()
set(seen_ids "")
foreach(line IN LISTS serve_lines)
  string(REPLACE "<semi>" ";" line "${line}")
  string(JSON op ERROR_VARIABLE no_op GET "${line}" op)
  if(no_op STREQUAL "NOTFOUND")
    continue()  # control response (stats/shutdown), checked below
  endif()
  string(JSON id GET "${line}" id)
  string(JSON status GET "${line}" status)
  if(NOT status STREQUAL "ok")
    message(FATAL_ERROR "wtam_serve: job ${id} status '${status}':\n${line}")
  endif()
  string(JSON cache_state GET "${line}" cache)
  if(id STREQUAL "a-again" AND NOT cache_state STREQUAL "hit")
    message(FATAL_ERROR "wtam_serve: resubmitted job reported cache "
                        "'${cache_state}', expected 'hit':\n${line}")
  endif()
  list(APPEND seen_ids ${id})
endforeach()
list(SORT seen_ids)
if(NOT seen_ids STREQUAL "a;a-again;b;c;d")
  message(FATAL_ERROR "wtam_serve: job ids '${seen_ids}' incomplete")
endif()
if(NOT serve_out MATCHES "\"op\": \"stats\"")
  message(FATAL_ERROR "wtam_serve: no stats response:\n${serve_out}")
endif()
if(NOT serve_out MATCHES "\"op\": \"shutdown\"")
  message(FATAL_ERROR "wtam_serve: no shutdown ack:\n${serve_out}")
endif()

# Soak: 102 piped requests (34 x 3 unique points) + shutdown. Exercises
# the pool, the coalescing path, and (in the sanitizer job) memory
# hygiene under sustained traffic; every duplicate id must report the
# identical testing time (deterministic per-id results).
set(soak_lines "")
foreach(i RANGE 1 34)
  string(APPEND soak_lines "{\"id\": \"x${i}\", \"soc\": \"d695\", \"width\": 12, \"backend\": \"rectpack\"}\n")
  string(APPEND soak_lines "{\"id\": \"y${i}\", \"soc\": \"d695\", \"width\": 14, \"backend\": \"rectpack\"}\n")
  string(APPEND soak_lines "{\"id\": \"z${i}\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"}\n")
endforeach()
string(APPEND soak_lines "{\"op\": \"shutdown\"}\n")
file(WRITE ${WORK_DIR}/serve_soak.ndjson "${soak_lines}")
execute_process(COMMAND ${WTAM_SERVE} --quiet --threads 4
                INPUT_FILE ${WORK_DIR}/serve_soak.ndjson
                OUTPUT_VARIABLE soak_out
                ERROR_VARIABLE soak_err
                RESULT_VARIABLE soak_code)
if(NOT soak_code EQUAL 0)
  message(FATAL_ERROR "wtam_serve soak: exit ${soak_code}\nstderr: ${soak_err}")
endif()
string(REGEX REPLACE "\n+$" "" soak_out "${soak_out}")
string(REPLACE "\n" ";" soak_lines_out "${soak_out}")
set(ok_count 0)
set(x_time "")
set(y_time "")
set(z_time "")
foreach(line IN LISTS soak_lines_out)
  string(JSON op ERROR_VARIABLE no_op GET "${line}" op)
  if(no_op STREQUAL "NOTFOUND")
    continue()
  endif()
  string(JSON status GET "${line}" status)
  if(NOT status STREQUAL "ok")
    message(FATAL_ERROR "wtam_serve soak: non-ok result:\n${line}")
  endif()
  math(EXPR ok_count "${ok_count} + 1")
  string(JSON id GET "${line}" id)
  string(JSON t GET "${line}" testing_time)
  string(SUBSTRING ${id} 0 1 family)
  if("${${family}_time}" STREQUAL "")
    set(${family}_time ${t})
  elseif(NOT ${family}_time EQUAL ${t})
    message(FATAL_ERROR "wtam_serve soak: ${id} returned ${t}, other "
                        "'${family}' requests returned ${${family}_time}")
  endif()
endforeach()
if(NOT ok_count EQUAL 102)
  message(FATAL_ERROR "wtam_serve soak: ${ok_count} ok results, expected 102")
endif()

# ---- wtam_serve metrics verb (scrape smoke) --------------------------------
# A fresh session: three jobs (one a duplicate of the first, so the
# cache serves it), one malformed line (counted by serve.errors), then a
# drained metrics scrape in both formats. The acceptance criterion: the
# scraped job counters equal exactly the jobs this check submitted.
file(WRITE ${WORK_DIR}/serve_metrics.ndjson
"{\"id\": \"m1\", \"soc\": \"d695\", \"width\": 12, \"backend\": \"rectpack\"}
{\"id\": \"m2\", \"soc\": \"d695\", \"width\": 14, \"backend\": \"rectpack\"}
{\"id\": \"m3\", \"soc\": \"d695\", \"width\": 12, \"backend\": \"rectpack\"}
this is not json
{\"op\": \"metrics\", \"drain\": true}
{\"op\": \"metrics\", \"drain\": true, \"format\": \"prometheus\"}
{\"op\": \"shutdown\"}
")
execute_process(COMMAND ${WTAM_SERVE} --quiet --threads 2
                INPUT_FILE ${WORK_DIR}/serve_metrics.ndjson
                OUTPUT_VARIABLE metrics_out
                ERROR_VARIABLE metrics_err
                RESULT_VARIABLE metrics_code)
if(NOT metrics_code EQUAL 0)
  message(FATAL_ERROR "wtam_serve metrics: exit ${metrics_code}\n"
                      "stderr: ${metrics_err}")
endif()
string(REGEX REPLACE "\n+$" "" metrics_out "${metrics_out}")
string(REPLACE ";" "<semi>" metrics_escaped "${metrics_out}")
string(REPLACE "\n" ";" metrics_lines "${metrics_escaped}")
set(json_scrape "")
set(prom_body "")
foreach(line IN LISTS metrics_lines)
  string(REPLACE "<semi>" ";" line "${line}")
  string(JSON op ERROR_VARIABLE no_op GET "${line}" op)
  if(NOT no_op STREQUAL "NOTFOUND")
    continue()  # job result or the error-line response
  endif()
  if(NOT op STREQUAL "metrics")
    continue()  # shutdown ack
  endif()
  string(JSON body ERROR_VARIABLE no_body GET "${line}" body)
  if(no_body STREQUAL "NOTFOUND")
    set(prom_body "${body}")
  else()
    set(json_scrape "${line}")
  endif()
endforeach()
if(json_scrape STREQUAL "" OR prom_body STREQUAL "")
  message(FATAL_ERROR "wtam_serve metrics: missing scrape response(s):\n"
                      "${metrics_out}")
endif()
# Drained counters must equal what was submitted: 3 jobs, 1 error line.
string(JSON accepted GET "${json_scrape}" counters serve.jobs_accepted)
string(JSON completed GET "${json_scrape}" counters serve.jobs_completed)
string(JSON errors GET "${json_scrape}" counters serve.errors)
if(NOT accepted EQUAL 3 OR NOT completed EQUAL 3)
  message(FATAL_ERROR "wtam_serve metrics: jobs_accepted=${accepted} "
                      "jobs_completed=${completed}, expected 3/3")
endif()
if(NOT errors EQUAL 1)
  message(FATAL_ERROR "wtam_serve metrics: serve.errors=${errors}, expected 1")
endif()
string(JSON inflight GET "${json_scrape}" gauges serve.inflight_jobs)
string(JSON queue_depth GET "${json_scrape}" gauges serve.queue_depth)
if(NOT inflight EQUAL 0 OR NOT queue_depth EQUAL 0)
  message(FATAL_ERROR "wtam_serve metrics: drained scrape reports "
                      "inflight=${inflight} queue_depth=${queue_depth}")
endif()
string(JSON job_samples GET "${json_scrape}" histograms serve.job_ns count)
if(NOT job_samples EQUAL 3)
  message(FATAL_ERROR "wtam_serve metrics: serve.job_ns count "
                      "${job_samples}, expected 3")
endif()
# The Prometheus exposition reports the same totals under sanitized names.
if(NOT prom_body MATCHES "serve_jobs_accepted 3")
  message(FATAL_ERROR "wtam_serve metrics: prometheus body lacks "
                      "'serve_jobs_accepted 3':\n${prom_body}")
endif()
if(NOT prom_body MATCHES "# TYPE serve_job_ns summary")
  message(FATAL_ERROR "wtam_serve metrics: prometheus body lacks the "
                      "serve_job_ns summary:\n${prom_body}")
endif()

message(STATUS "wtam_serve NDJSON protocol holds (smoke + 102-request soak "
               "+ metrics scrape)")

# ---- wtam_serve --cache-file (persistence smoke) ---------------------------
# A cold session solves two jobs and snapshots its cache on shutdown;
# a warm session boots from that snapshot and must serve both jobs from
# the cache with the identical testing times. The shutdown ack of the
# cold run reports the entries it persisted.
set(serve_cache ${WORK_DIR}/serve_cache.bin)
file(REMOVE ${serve_cache})
file(WRITE ${WORK_DIR}/serve_persist.ndjson
"{\"id\": \"p1\", \"soc\": \"d695\", \"width\": 18, \"backend\": \"rectpack\"}
{\"id\": \"p2\", \"soc\": \"d695\", \"width\": 20, \"backend\": \"rectpack\"}
{\"op\": \"shutdown\"}
")
foreach(phase cold warm)
  execute_process(COMMAND ${WTAM_SERVE} --quiet --threads 2
                          --cache-file ${serve_cache}
                  INPUT_FILE ${WORK_DIR}/serve_persist.ndjson
                  OUTPUT_VARIABLE persist_out
                  ERROR_VARIABLE persist_err
                  RESULT_VARIABLE persist_code)
  if(NOT persist_code EQUAL 0)
    message(FATAL_ERROR "wtam_serve ${phase} persistence run: exit "
                        "${persist_code}\nstderr: ${persist_err}")
  endif()
  if(NOT EXISTS ${serve_cache})
    message(FATAL_ERROR "wtam_serve ${phase} persistence run: no snapshot "
                        "at ${serve_cache}")
  endif()
  string(REGEX REPLACE "\n+$" "" persist_out "${persist_out}")
  string(REPLACE "\n" ";" persist_lines "${persist_out}")
  foreach(line IN LISTS persist_lines)
    string(JSON op ERROR_VARIABLE no_op GET "${line}" op)
    if(no_op STREQUAL "NOTFOUND")
      continue()  # shutdown ack
    endif()
    string(JSON id GET "${line}" id)
    string(JSON status GET "${line}" status)
    string(JSON cache_state GET "${line}" cache)
    string(JSON t GET "${line}" testing_time)
    if(NOT status STREQUAL "ok")
      message(FATAL_ERROR "wtam_serve ${phase} persistence run: job ${id} "
                          "status '${status}':\n${line}")
    endif()
    if(phase STREQUAL "cold")
      set(persist_${id}_time ${t})
    else()
      if(NOT cache_state STREQUAL "hit")
        message(FATAL_ERROR "wtam_serve warm-boot run: job ${id} reported "
                            "cache '${cache_state}', expected 'hit':\n${line}")
      endif()
      if(NOT persist_${id}_time EQUAL ${t})
        message(FATAL_ERROR "wtam_serve warm-boot run: job ${id} testing "
                            "time ${t} differs from the cold run's "
                            "${persist_${id}_time}")
      endif()
    endif()
  endforeach()
endforeach()

message(STATUS "wtam_serve --cache-file persistence holds (cold store -> "
               "warm-boot hits, identical results)")

# ---- wtam_serve answers stored jobs on the reading thread ------------------
# A warm --threads 1 session reads a blocker that holds the one solve
# thread until its 1 s deadline, then p1, which the snapshot above
# stores. p1 needs no engine, so it is answered on the reading thread,
# first and as a hit, instead of after the blocker.
file(WRITE ${WORK_DIR}/serve_inline.ndjson
"{\"id\": \"blocker\", \"soc\": \"p93791\", \"width\": 48, \"width_max\": 128, \"max_tams\": 16, \"deadline_s\": 1}
{\"id\": \"p1\", \"soc\": \"d695\", \"width\": 18, \"backend\": \"rectpack\"}
{\"op\": \"shutdown\"}
")
execute_process(COMMAND ${WTAM_SERVE} --quiet --threads 1
                        --cache-file ${serve_cache}
                INPUT_FILE ${WORK_DIR}/serve_inline.ndjson
                OUTPUT_VARIABLE inline_out
                ERROR_VARIABLE inline_err
                RESULT_VARIABLE inline_code)
if(NOT inline_code EQUAL 0)
  message(FATAL_ERROR "wtam_serve stored-job run: exit ${inline_code}\n"
                      "stderr: ${inline_err}")
endif()
string(REGEX REPLACE "\n+$" "" inline_out "${inline_out}")
string(REPLACE ";" "<semi>" inline_escaped "${inline_out}")
string(REPLACE "\n" ";" inline_lines "${inline_escaped}")
list(LENGTH inline_lines inline_count)
if(NOT inline_count EQUAL 3)
  message(FATAL_ERROR "wtam_serve stored-job run: ${inline_count} lines, "
                      "expected 3:\n${inline_out}")
endif()
list(GET inline_lines 0 inline_first)
list(GET inline_lines 1 inline_second)
string(REPLACE "<semi>" ";" inline_first "${inline_first}")
string(REPLACE "<semi>" ";" inline_second "${inline_second}")
string(JSON first_id GET "${inline_first}" id)
string(JSON first_cache GET "${inline_first}" cache)
string(JSON second_id GET "${inline_second}" id)
string(JSON second_status GET "${inline_second}" status)
if(NOT first_id STREQUAL "p1" OR NOT first_cache STREQUAL "hit" OR
   NOT second_id STREQUAL "blocker" OR
   NOT second_status STREQUAL "deadline_exceeded")
  message(FATAL_ERROR "wtam_serve stored-job run: expected p1 first as a "
                      "cache hit, then the blocker at its deadline:\n"
                      "${inline_out}")
endif()

message(STATUS "wtam_serve answers a stored job ahead of a running blocker")

# ---- wtam_router (fleet smoke + crash replay) ------------------------------

if(NOT DEFINED WTAM_ROUTER)
  message(FATAL_ERROR "pass -DWTAM_ROUTER=<binary>")
endif()

# Two runs over the same seven jobs (six distinct + one resubmission).
# The clean run establishes the per-id reference responses; the crash
# run SIGKILLs worker 0 mid-batch via the kill_worker verb and must
# still answer every id with the identical result — replay makes the
# crash invisible apart from cache provenance, which the comparison
# strips (a replayed solve recomputes what the dead worker had cached).
# The clean run also scrapes the fleet's merged metrics, drained so
# every job is counted, in both formats.
set(fleet_jobs
"{\"id\": \"f1\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"}
{\"id\": \"f2\", \"soc\": \"d695\", \"width\": 17, \"backend\": \"rectpack\"}
{\"id\": \"f3\", \"soc\": \"d695\", \"width\": 18, \"backend\": \"rectpack\"}
")
set(fleet_jobs_tail
"{\"id\": \"f4\", \"soc\": \"d695\", \"width\": 19, \"backend\": \"rectpack\"}
{\"id\": \"f5\", \"soc\": \"d695\", \"width\": 20, \"backend\": \"rectpack\"}
{\"id\": \"f6\", \"soc\": \"d695\", \"width\": 21, \"backend\": \"rectpack\"}
{\"id\": \"f1again\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"}
")
set(fleet_metrics_ops
"{\"op\": \"metrics\", \"drain\": true}
{\"op\": \"metrics\", \"format\": \"prometheus\"}
")
set(fleet_control
"{\"op\": \"stats\"}
{\"op\": \"shutdown\"}
")
file(WRITE ${WORK_DIR}/fleet_clean.ndjson
     "${fleet_jobs}${fleet_jobs_tail}${fleet_metrics_ops}${fleet_control}")
file(WRITE ${WORK_DIR}/fleet_crash.ndjson
     "${fleet_jobs}{\"op\": \"kill_worker\", \"worker\": 0}\n${fleet_jobs_tail}${fleet_control}")

foreach(phase clean crash)
  execute_process(COMMAND ${WTAM_ROUTER} --quiet --workers 2
                          --serve ${WTAM_SERVE}
                  INPUT_FILE ${WORK_DIR}/fleet_${phase}.ndjson
                  OUTPUT_VARIABLE fleet_out
                  ERROR_VARIABLE fleet_err
                  RESULT_VARIABLE fleet_code)
  if(NOT fleet_code EQUAL 0)
    message(FATAL_ERROR "wtam_router ${phase} run: exit ${fleet_code}\n"
                        "stderr: ${fleet_err}")
  endif()
  string(REGEX REPLACE "\n+$" "" fleet_out "${fleet_out}")
  string(REPLACE ";" "<semi>" fleet_escaped "${fleet_out}")
  string(REPLACE "\n" ";" fleet_lines "${fleet_escaped}")
  set(fleet_ok_count 0)
  foreach(line IN LISTS fleet_lines)
    string(REPLACE "<semi>" ";" line "${line}")
    string(JSON op ERROR_VARIABLE no_op GET "${line}" op)
    if(no_op STREQUAL "NOTFOUND")
      if(op STREQUAL "metrics")
        string(JSON body ERROR_VARIABLE no_body GET "${line}" body)
        if(no_body STREQUAL "NOTFOUND")
          set(fleet_prom_body "${body}")
        else()
          set(fleet_metrics "${line}")
        endif()
        continue()
      endif()
      if(NOT op STREQUAL "stats")
        continue()  # kill_worker / shutdown ack
      endif()
      string(JSON fleet_workers GET "${line}" workers)
      string(JSON fleet_routed GET "${line}" router routed)
      string(JSON fleet_respawns GET "${line}" router respawns)
      if(NOT fleet_workers EQUAL 2)
        message(FATAL_ERROR "wtam_router ${phase} run: stats reports "
                            "${fleet_workers} workers, expected 2")
      endif()
      if(NOT fleet_routed EQUAL 7)
        message(FATAL_ERROR "wtam_router ${phase} run: stats reports "
                            "${fleet_routed} routed jobs, expected 7")
      endif()
      set(fleet_${phase}_respawns ${fleet_respawns})
      continue()
    endif()
    string(JSON id GET "${line}" id)
    string(JSON status GET "${line}" status)
    if(NOT status STREQUAL "ok")
      message(FATAL_ERROR "wtam_router ${phase} run: job ${id} status "
                          "'${status}':\n${line}")
    endif()
    math(EXPR fleet_ok_count "${fleet_ok_count} + 1")
    # The resubmission shards to the worker that cached the original,
    # so the clean run must serve it from the fleet's cache.
    if(phase STREQUAL "clean" AND id STREQUAL "f1again")
      string(JSON cache_state GET "${line}" cache)
      if(NOT cache_state STREQUAL "hit")
        message(FATAL_ERROR "wtam_router clean run: resubmitted job "
                            "reported cache '${cache_state}', expected "
                            "'hit':\n${line}")
      endif()
    endif()
    # Cache provenance is the one legitimate difference between the
    # runs (a respawned worker recomputes), so strip it before the
    # per-id byte comparison.
    string(REGEX REPLACE "\"cache\": \"[a-z]+\"" "\"cache\": \"-\""
           stripped "${line}")
    set(fleet_${phase}_${id} "${stripped}")
  endforeach()
  if(NOT fleet_ok_count EQUAL 7)
    message(FATAL_ERROR "wtam_router ${phase} run: ${fleet_ok_count} ok "
                        "results, expected 7:\n${fleet_out}")
  endif()
endforeach()

foreach(id f1 f2 f3 f4 f5 f6 f1again)
  if(NOT fleet_clean_${id} STREQUAL fleet_crash_${id})
    message(FATAL_ERROR "wtam_router: job ${id} differs between the clean "
                        "and the crash run\nclean: ${fleet_clean_${id}}\n"
                        "crash: ${fleet_crash_${id}}")
  endif()
endforeach()
if(NOT fleet_clean_respawns EQUAL 0)
  message(FATAL_ERROR "wtam_router clean run: ${fleet_clean_respawns} "
                      "respawns, expected 0")
endif()
if(NOT fleet_crash_respawns GREATER 0)
  message(FATAL_ERROR "wtam_router crash run: no respawn recorded after "
                      "kill_worker")
endif()

# The clean run's merged scrape: counters sum over the workers, and
# every histogram keeps its percentiles (workers ship buckets, which
# the router merges exactly).
if(NOT DEFINED fleet_metrics OR NOT DEFINED fleet_prom_body)
  message(FATAL_ERROR "wtam_router clean run: missing metrics scrape(s)")
endif()
string(JSON fleet_completed GET "${fleet_metrics}" counters
       serve.jobs_completed)
string(JSON fleet_solves GET "${fleet_metrics}" histograms solver.solve_ns
       count)
if(NOT fleet_completed EQUAL 7 OR NOT fleet_solves EQUAL 7)
  message(FATAL_ERROR "wtam_router metrics: serve.jobs_completed="
                      "${fleet_completed}, solver.solve_ns count="
                      "${fleet_solves}, expected 7/7:\n${fleet_metrics}")
endif()
string(JSON fleet_histograms LENGTH "${fleet_metrics}" histograms)
math(EXPR fleet_last_histogram "${fleet_histograms} - 1")
foreach(i RANGE ${fleet_last_histogram})
  string(JSON name MEMBER "${fleet_metrics}" histograms ${i})
  foreach(p p50 p90 p95 p99)
    string(JSON value ERROR_VARIABLE no_value GET "${fleet_metrics}"
           histograms ${name} ${p})
    if(NOT no_value STREQUAL "NOTFOUND")
      message(FATAL_ERROR "wtam_router metrics: histogram ${name} has no "
                          "${p}:\n${fleet_metrics}")
    endif()
  endforeach()
endforeach()
foreach(p p50 p99)
  string(JSON value GET "${fleet_metrics}" histograms solver.solve_ns ${p})
  if(NOT value GREATER 0)
    message(FATAL_ERROR "wtam_router metrics: solver.solve_ns ${p} is "
                        "'${value}', expected > 0")
  endif()
endforeach()
string(FIND "${fleet_prom_body}" "solver_solve_ns{quantile=\"0.99\"}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "wtam_router metrics: prometheus body lacks the "
                      "solver_solve_ns quantile lines:\n${fleet_prom_body}")
endif()

message(STATUS "wtam_router fleet smoke holds (7 jobs over 2 workers, "
               "crash replay byte-identical modulo cache provenance, "
               "merged metrics with percentiles)")

# ---- --queue-limit (admission control in wtam_serve and wtam_router) -------
# A blocker that always runs to its 1 s deadline (p93791 swept over
# widths 48..128; one width alone takes ~0.5 s in Release) holds the one
# slot while two more jobs arrive, then a drained metrics scrape and a
# stats probe count the sheds.
#   * wtam_serve --threads 1 --queue-limit 1: whether the blocker has
#     started when j2 is read is a race, so which job is shed is not
#     asserted — at least one is, and the counters match the responses.
#   * wtam_router --workers 1 --queue-limit 1: the blocker is in flight
#     on the only worker, so both j2 and j3 are shed at the router.
file(WRITE ${WORK_DIR}/shed_session.ndjson
"{\"id\": \"blocker\", \"soc\": \"p93791\", \"width\": 48, \"width_max\": 128, \"max_tams\": 16, \"deadline_s\": 1}
{\"id\": \"j2\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"}
{\"id\": \"j3\", \"soc\": \"d695\", \"width\": 17, \"backend\": \"rectpack\"}
{\"op\": \"metrics\", \"drain\": true}
{\"op\": \"stats\"}
{\"op\": \"shutdown\"}
")
# tier -> command, shed counter in the scrape, shed count in stats, and
# the fewest overloaded responses it must give.
set(shed_serve_cmd ${WTAM_SERVE} --quiet --threads 1 --queue-limit 1)
set(shed_serve_counter serve.jobs_shed)
set(shed_serve_stats shed)
set(shed_serve_min 1)
set(shed_router_cmd ${WTAM_ROUTER} --quiet --workers 1 --queue-limit 1
                    --serve ${WTAM_SERVE})
set(shed_router_counter serve.router.shed)
set(shed_router_stats router shed)
set(shed_router_min 2)
foreach(tier serve router)
  execute_process(COMMAND ${shed_${tier}_cmd}
                  INPUT_FILE ${WORK_DIR}/shed_session.ndjson
                  OUTPUT_VARIABLE shed_out
                  ERROR_VARIABLE shed_err
                  RESULT_VARIABLE shed_code)
  if(NOT shed_code EQUAL 0)
    message(FATAL_ERROR "${tier} --queue-limit run: exit ${shed_code}\n"
                        "stderr: ${shed_err}")
  endif()
  string(REGEX REPLACE "\n+$" "" shed_out "${shed_out}")
  string(REPLACE ";" "<semi>" shed_escaped "${shed_out}")
  string(REPLACE "\n" ";" shed_lines "${shed_escaped}")
  set(shed_ids "")
  set(shed_overloaded 0)
  foreach(line IN LISTS shed_lines)
    string(REPLACE "<semi>" ";" line "${line}")
    string(JSON op ERROR_VARIABLE no_op GET "${line}" op)
    if(no_op STREQUAL "NOTFOUND")
      set(shed_${op} "${line}")  # metrics / stats / shutdown ack
      continue()
    endif()
    string(JSON id GET "${line}" id)
    string(JSON status GET "${line}" status)
    list(APPEND shed_ids ${id})
    if(id STREQUAL "blocker")
      string(JSON valid GET "${line}" schedule_valid)
      if(NOT status STREQUAL "deadline_exceeded" OR NOT valid STREQUAL "ON")
        message(FATAL_ERROR "${tier} --queue-limit run: blocker status "
                            "'${status}', schedule_valid '${valid}', expected "
                            "deadline_exceeded with a valid schedule:\n${line}")
      endif()
    elseif(status STREQUAL "overloaded")
      math(EXPR shed_overloaded "${shed_overloaded} + 1")
    elseif(NOT status STREQUAL "ok")
      message(FATAL_ERROR "${tier} --queue-limit run: job ${id} status "
                          "'${status}':\n${line}")
    endif()
  endforeach()
  list(SORT shed_ids)
  if(NOT shed_ids STREQUAL "blocker;j2;j3")
    message(FATAL_ERROR "${tier} --queue-limit run: answered ids "
                        "'${shed_ids}', expected each of blocker/j2/j3 "
                        "once:\n${shed_out}")
  endif()
  if(shed_overloaded LESS shed_${tier}_min)
    message(FATAL_ERROR "${tier} --queue-limit run: ${shed_overloaded} "
                        "overloaded responses, expected at least "
                        "${shed_${tier}_min}:\n${shed_out}")
  endif()
  if(NOT DEFINED shed_metrics OR NOT DEFINED shed_stats)
    message(FATAL_ERROR "${tier} --queue-limit run: missing metrics or "
                        "stats response:\n${shed_out}")
  endif()
  string(JSON scraped GET "${shed_metrics}" counters ${shed_${tier}_counter})
  string(JSON counted GET "${shed_stats}" ${shed_${tier}_stats})
  if(NOT scraped EQUAL shed_overloaded OR NOT counted EQUAL shed_overloaded)
    message(FATAL_ERROR "${tier} --queue-limit run: ${shed_${tier}_counter}="
                        "${scraped}, stats ${shed_${tier}_stats}=${counted}, "
                        "expected ${shed_overloaded} (the overloaded "
                        "responses)")
  endif()
  unset(shed_metrics)
  unset(shed_stats)
endforeach()

message(STATUS "--queue-limit sheds end to end (wtam_serve and wtam_router; "
               "scrape and stats count every shed response)")

# ---- multi-host fleet (TCP workers, kill mid-batch, hot resize) ------------
# Four fleets answer the same five jobs and must agree byte for byte
# (modulo cache provenance): a single local worker (the baseline), four
# local workers, a mixed fleet of one pipe + one TCP worker, and a
# two-TCP-worker fleet whose worker 0 is killed mid-batch (the
# sever/reconnect/replay path).
# Then an all-local fleet resizes 2 -> 3 mid-session and must serve the
# resubmitted jobs from the re-sharded caches — hits, byte-identical.

# Launches a wtam_serve TCP worker in the background on an ephemeral
# port; await_endpoint() blocks until its --port-file reports where.
function(launch_tcp_worker tag)
  file(REMOVE ${WORK_DIR}/mh_${tag}.port)
  execute_process(COMMAND sh -c "'${WTAM_SERVE}' --listen 127.0.0.1:0 --port-file '${WORK_DIR}/mh_${tag}.port' --quiet > '${WORK_DIR}/mh_${tag}.log' 2>&1 &"
                  RESULT_VARIABLE launch_code)
  if(NOT launch_code EQUAL 0)
    message(FATAL_ERROR "multi-host: cannot launch TCP worker ${tag}")
  endif()
endfunction()

function(await_endpoint tag out_var)
  set(port_file ${WORK_DIR}/mh_${tag}.port)
  foreach(i RANGE 100)
    if(EXISTS ${port_file})
      break()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  endforeach()
  if(NOT EXISTS ${port_file})
    message(FATAL_ERROR "multi-host: worker ${tag} never wrote its port file "
                        "(see ${WORK_DIR}/mh_${tag}.log)")
  endif()
  file(READ ${port_file} endpoint)
  string(STRIP "${endpoint}" endpoint)
  set(${out_var} ${endpoint} PARENT_SCOPE)
endfunction()

set(mh_jobs
"{\"id\": \"m1\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"}
{\"id\": \"m2\", \"soc\": \"d695\", \"width\": 17, \"backend\": \"rectpack\"}
{\"id\": \"m3\", \"soc\": \"d695\", \"width\": 18, \"backend\": \"rectpack\"}
")
set(mh_jobs_tail
"{\"id\": \"m4\", \"soc\": \"d695\", \"width\": 19, \"backend\": \"rectpack\"}
{\"id\": \"m5\", \"soc\": \"d695\", \"width\": 20, \"backend\": \"rectpack\"}
{\"op\": \"stats\"}
{\"op\": \"shutdown\"}
")
file(WRITE ${WORK_DIR}/mh_session.ndjson "${mh_jobs}${mh_jobs_tail}")
file(WRITE ${WORK_DIR}/mh_kill.ndjson
     "${mh_jobs}{\"op\": \"kill_worker\", \"worker\": 0}\n${mh_jobs_tail}")

# Workers for the mixed fleet (one TCP) and the kill fleet (two TCP).
launch_tcp_worker(w1)
launch_tcp_worker(w2)
launch_tcp_worker(w3)
await_endpoint(w1 mh_ep1)
await_endpoint(w2 mh_ep2)
await_endpoint(w3 mh_ep3)

# phase -> router flags + input + expected fleet size.
set(mh_baseline_args --workers 1)
set(mh_local4_args --workers 4)
set(mh_mixed_args --workers 1 --worker ${mh_ep1})
set(mh_kill_args --worker ${mh_ep2} --worker ${mh_ep3})
foreach(phase baseline local4 mixed kill)
  if(phase STREQUAL "kill")
    set(mh_input ${WORK_DIR}/mh_kill.ndjson)
  else()
    set(mh_input ${WORK_DIR}/mh_session.ndjson)
  endif()
  execute_process(COMMAND ${WTAM_ROUTER} --quiet --serve ${WTAM_SERVE}
                          ${mh_${phase}_args}
                  INPUT_FILE ${mh_input}
                  OUTPUT_VARIABLE mh_out
                  ERROR_VARIABLE mh_err
                  RESULT_VARIABLE mh_code)
  if(NOT mh_code EQUAL 0)
    message(FATAL_ERROR "multi-host ${phase} run: exit ${mh_code}\n"
                        "stderr: ${mh_err}")
  endif()
  string(REGEX REPLACE "\n+$" "" mh_out "${mh_out}")
  string(REPLACE ";" "<semi>" mh_escaped "${mh_out}")
  string(REPLACE "\n" ";" mh_lines "${mh_escaped}")
  set(mh_ok_count 0)
  foreach(line IN LISTS mh_lines)
    string(REPLACE "<semi>" ";" line "${line}")
    string(JSON op ERROR_VARIABLE no_op GET "${line}" op)
    if(no_op STREQUAL "NOTFOUND")
      if(NOT op STREQUAL "stats")
        continue()  # kill_worker / shutdown ack
      endif()
      string(JSON mh_workers GET "${line}" workers)
      string(JSON mh_respawns GET "${line}" router respawns)
      set(mh_${phase}_workers ${mh_workers})
      set(mh_${phase}_respawns ${mh_respawns})
      continue()
    endif()
    string(JSON id GET "${line}" id)
    string(JSON status GET "${line}" status)
    if(NOT status STREQUAL "ok")
      message(FATAL_ERROR "multi-host ${phase} run: job ${id} status "
                          "'${status}':\n${line}")
    endif()
    math(EXPR mh_ok_count "${mh_ok_count} + 1")
    string(REGEX REPLACE "\"cache\": \"[a-z]+\"" "\"cache\": \"-\""
           stripped "${line}")
    set(mh_${phase}_${id} "${stripped}")
  endforeach()
  if(NOT mh_ok_count EQUAL 5)
    message(FATAL_ERROR "multi-host ${phase} run: ${mh_ok_count} ok results, "
                        "expected 5:\n${mh_out}")
  endif()
endforeach()

foreach(id m1 m2 m3 m4 m5)
  foreach(phase local4 mixed kill)
    if(NOT mh_baseline_${id} STREQUAL mh_${phase}_${id})
      message(FATAL_ERROR "multi-host: job ${id} differs between the "
                          "baseline and the ${phase} fleet\nbaseline: "
                          "${mh_baseline_${id}}\n${phase}: ${mh_${phase}_${id}}")
    endif()
  endforeach()
endforeach()
if(NOT mh_local4_workers EQUAL 4 OR NOT mh_mixed_workers EQUAL 2
   OR NOT mh_kill_workers EQUAL 2)
  message(FATAL_ERROR "multi-host: fleets report ${mh_local4_workers}/"
                      "${mh_mixed_workers}/${mh_kill_workers} workers, "
                      "expected 4/2/2")
endif()
foreach(phase local4 mixed)
  if(NOT mh_${phase}_respawns EQUAL 0)
    message(FATAL_ERROR "multi-host ${phase} run: ${mh_${phase}_respawns} "
                        "respawns, expected 0")
  endif()
endforeach()
if(NOT mh_kill_respawns GREATER 0)
  message(FATAL_ERROR "multi-host kill run: no reconnect recorded after "
                      "kill_worker severed the TCP worker")
endif()

# Hot resize: four jobs warm a 2-worker fleet's caches, the fleet
# resizes to 3 (re-dealing the persisted entries to their new owners),
# and the identical resubmissions must all be cache hits with
# byte-identical responses.
set(mh_resize_cache ${WORK_DIR}/mh_resize_cache.bin)
file(REMOVE ${mh_resize_cache}.w0 ${mh_resize_cache}.w1 ${mh_resize_cache}.w2)
set(mh_resize_jobs
"{\"id\": \"r1\", \"soc\": \"d695\", \"width\": 16, \"backend\": \"rectpack\"}
{\"id\": \"r2\", \"soc\": \"d695\", \"width\": 17, \"backend\": \"rectpack\"}
{\"id\": \"r3\", \"soc\": \"d695\", \"width\": 18, \"backend\": \"rectpack\"}
{\"id\": \"r4\", \"soc\": \"d695\", \"width\": 19, \"backend\": \"rectpack\"}
")
file(WRITE ${WORK_DIR}/mh_resize.ndjson
     "${mh_resize_jobs}{\"op\": \"resize\", \"workers\": 3}\n${mh_resize_jobs}{\"op\": \"stats\"}\n{\"op\": \"shutdown\"}\n")
execute_process(COMMAND ${WTAM_ROUTER} --quiet --workers 2
                        --serve ${WTAM_SERVE}
                        --cache-file ${mh_resize_cache}
                INPUT_FILE ${WORK_DIR}/mh_resize.ndjson
                OUTPUT_VARIABLE resize_out
                ERROR_VARIABLE resize_err
                RESULT_VARIABLE resize_code)
if(NOT resize_code EQUAL 0)
  message(FATAL_ERROR "multi-host resize run: exit ${resize_code}\n"
                      "stderr: ${resize_err}")
endif()
string(REGEX REPLACE "\n+$" "" resize_out "${resize_out}")
string(REPLACE ";" "<semi>" resize_escaped "${resize_out}")
string(REPLACE "\n" ";" resize_lines "${resize_escaped}")
set(resize_acked FALSE)
foreach(line IN LISTS resize_lines)
  string(REPLACE "<semi>" ";" line "${line}")
  string(JSON op ERROR_VARIABLE no_op GET "${line}" op)
  if(no_op STREQUAL "NOTFOUND")
    if(op STREQUAL "resize")
      string(JSON resize_ok GET "${line}" ok)
      string(JSON resize_workers GET "${line}" workers)
      string(JSON resize_entries GET "${line}" resharded_entries)
      if(NOT resize_ok STREQUAL "ON" OR NOT resize_workers EQUAL 3
         OR NOT resize_entries EQUAL 4)
        message(FATAL_ERROR "multi-host resize ack wrong (ok=${resize_ok} "
                            "workers=${resize_workers} "
                            "resharded=${resize_entries}):\n${line}")
      endif()
      set(resize_acked TRUE)
    elseif(op STREQUAL "stats")
      string(JSON resize_count GET "${line}" router resizes)
      if(NOT resize_count EQUAL 1)
        message(FATAL_ERROR "multi-host resize run: router counted "
                            "${resize_count} resizes, expected 1")
      endif()
    endif()
    continue()
  endif()
  string(JSON id GET "${line}" id)
  string(JSON status GET "${line}" status)
  if(NOT status STREQUAL "ok")
    message(FATAL_ERROR "multi-host resize run: job ${id} status "
                        "'${status}':\n${line}")
  endif()
  string(JSON cache_state GET "${line}" cache)
  string(REGEX REPLACE "\"cache\": \"[a-z]+\"" "\"cache\": \"-\""
         stripped "${line}")
  if(NOT DEFINED resize_first_${id})
    set(resize_first_${id} "${stripped}")
  else()
    if(NOT cache_state STREQUAL "hit")
      message(FATAL_ERROR "multi-host resize run: resubmitted ${id} "
                          "reported cache '${cache_state}', expected 'hit' "
                          "from the re-sharded snapshot:\n${line}")
    endif()
    if(NOT resize_first_${id} STREQUAL stripped)
      message(FATAL_ERROR "multi-host resize run: ${id} differs across the "
                          "resize\nbefore: ${resize_first_${id}}\n"
                          "after:  ${stripped}")
    endif()
    set(resize_second_${id} "${stripped}")
  endif()
endforeach()
if(NOT resize_acked)
  message(FATAL_ERROR "multi-host resize run: no resize ack:\n${resize_out}")
endif()
foreach(id r1 r2 r3 r4)
  if(NOT DEFINED resize_second_${id})
    message(FATAL_ERROR "multi-host resize run: no post-resize response "
                        "for ${id}:\n${resize_out}")
  endif()
endforeach()

message(STATUS "multi-host fleet holds (4 local workers and pipe+TCP "
               "byte-identical to the baseline, kill mid-batch replayed, "
               "resize 2->3 re-sharded to cache hits)")
