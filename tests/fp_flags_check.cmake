# Drives analock_check_fp_flags() (cmake/fp_flags.cmake) through real
# configures of throwaway projects: each value-unsafe FP flag, set the way
# a build would set it from a subdirectory, must fail the configure, and
# a clean flag set must pass.
#
#   cmake -DANALOCK_SOURCE_DIR=<repo> -DWORK_DIR=<scratch dir> \
#         -P tests/fp_flags_check.cmake

set(rejected_cases
  # A directory option and a CMAKE_CXX_FLAGS append, as build files
  # usually spell them.
  "add_compile_options(-ffast-math)"
  "set(CMAKE_CXX_FLAGS \"\${CMAKE_CXX_FLAGS} -ffp-contract=fast\")"
  "set(CMAKE_CXX_FLAGS_RELEASE \"-O2 -funsafe-math-optimizations\")"
  "target_compile_options(lanes INTERFACE -Ofast)"
  "set_property(TARGET lanes APPEND PROPERTY COMPILE_OPTIONS /fp:fast)")
set(clean_case
  "add_compile_options(-O2 -fno-fast-math -ffp-contract=off)
set(CMAKE_CXX_FLAGS \"\${CMAKE_CXX_FLAGS} -g -Wall\")
target_compile_options(lanes INTERFACE -Wconversion)")

# Configures a project whose subdirectory runs `body`; sets `rc` and
# `log` in the caller.
function(configure_case name body)
  set(dir "${WORK_DIR}/${name}")
  file(REMOVE_RECURSE "${dir}")
  file(WRITE "${dir}/CMakeLists.txt"
    "cmake_minimum_required(VERSION 3.16)\n"
    "project(fp_flags_case NONE)\n"
    "include(\"${ANALOCK_SOURCE_DIR}/cmake/fp_flags.cmake\")\n"
    "add_subdirectory(sub)\n"
    "analock_check_fp_flags()\n")
  file(WRITE "${dir}/sub/CMakeLists.txt"
    "add_library(lanes INTERFACE)\n${body}\n")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -S "${dir}" -B "${dir}/build"
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(rc "${result}" PARENT_SCOPE)
  set(log "${out}${err}" PARENT_SCOPE)
endfunction()

set(failures 0)
set(index 0)
foreach(body IN LISTS rejected_cases)
  math(EXPR index "${index} + 1")
  configure_case("rejected_${index}" "${body}")
  if(rc EQUAL 0 OR NOT log MATCHES "bit-exactness contract")
    message(SEND_ERROR "not rejected: ${body}\n${log}")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "rejected as expected: ${body}")
  endif()
endforeach()

configure_case(clean "${clean_case}")
if(NOT rc EQUAL 0)
  message(SEND_ERROR "clean flag set rejected:\n${log}")
  math(EXPR failures "${failures} + 1")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} FP-flag case(s) failed")
endif()
