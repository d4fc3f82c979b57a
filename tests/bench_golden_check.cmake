# A bench's printed tables must match its checked-in golden: runs the
# bench once (one rep, no BENCH artifact) in WORK_DIR and compares its
# stdout up to the `benchmark cases` line, where the timings start, byte
# for byte with GOLDEN. TRIALS, when given, is exported as
# ANALOCK_BENCH_TRIALS (the bench's workload budget).
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<bench/goldens/<name>.txt> \
#         -DWORK_DIR=<scratch dir> [-DTRIALS=<n>] \
#         -P tests/bench_golden_check.cmake

set(trials_env "")
if(DEFINED TRIALS)
  set(trials_env "ANALOCK_BENCH_TRIALS=${TRIALS}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env ANALOCK_BENCH_REPS=1
          ANALOCK_BENCH_WARMUP=0 ANALOCK_BENCH_JSON=0 ${trials_env}
          "${BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}\n${out}${err}")
endif()
string(FIND "${out}" "benchmark cases" cut)
if(cut EQUAL -1)
  message(FATAL_ERROR "no `benchmark cases` line in the output:\n${out}")
endif()
string(SUBSTRING "${out}" 0 ${cut} head)
string(FIND "${head}" "\n" line_start REVERSE)
math(EXPR keep "${line_start} + 1")
string(SUBSTRING "${head}" 0 ${keep} tables)
file(READ "${GOLDEN}" golden)
if(NOT tables STREQUAL golden)
  file(WRITE "${WORK_DIR}/actual.txt" "${tables}")
  message(FATAL_ERROR "printed tables differ from ${GOLDEN}; "
                      "got ${WORK_DIR}/actual.txt")
endif()
