# tools/bench_compare.py must refuse a baseline case measured over fewer
# than three reps: a self-diff of a fixture with one such case exits 2
# and names that case.
#
#   cmake -DPYTHON=<python3> -DSCRIPT=<tools/bench_compare.py> \
#         -DFIXTURE=<BENCH_one_rep.json> -P tests/bench_compare_thin_check.cmake

execute_process(
  COMMAND "${PYTHON}" "${SCRIPT}" "${FIXTURE}" "${FIXTURE}" --warn-only
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2 for a one-rep baseline, got ${rc}\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "fixture:one_rep has wall_ms.n = 1")
  message(FATAL_ERROR "the failure does not name the one-rep case:\n${err}")
endif()
if(err MATCHES "five_reps")
  message(FATAL_ERROR "the failure names the five-rep case:\n${err}")
endif()
