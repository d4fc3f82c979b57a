# Scans the fixture tree at ANALOCK_THREADS=1 and =4 and requires
# byte-identical SARIF logs: the parse fans out over the thread pool,
# everything after it is serial, so the pool width must not show.
#
#   cmake -DVERIFY=<analock_verify> -DROOT=<fixture dir> \
#         -DWORK_DIR=<scratch dir> -P tests/verify_thread_invariance.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(threads 1 4)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env ANALOCK_THREADS=${threads}
            "${VERIFY}" --root "${ROOT}"
            --sarif "${WORK_DIR}/threads_${threads}.sarif" --exit-zero
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "analock_verify at ANALOCK_THREADS=${threads} "
                        "exited ${rc}")
  endif()
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK_DIR}/threads_1.sarif" "${WORK_DIR}/threads_4.sarif"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "SARIF logs differ between ANALOCK_THREADS=1 and =4")
endif()
