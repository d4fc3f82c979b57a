# Configure-time guard for the batch engine's bit-exactness contract.
#
# The batched SNR engine promises results bit-identical to the scalar
# path at any thread count. Value-unsafe floating-point modes
# (-ffast-math, -funsafe-math-optimizations, -ffp-contract=fast, -Ofast,
# /fp:fast) reassociate or contract arithmetic and void that promise
# silently. analock_check_fp_flags() fails the configure when one of them
# reaches the build. The source-level switch, `#pragma STDC FP_CONTRACT
# ON`, is analock-verify's fp-contract rule.

# Matches the values of flag variables and compile-option properties.
set(ANALOCK_UNSAFE_FP_FLAGS
  "-ffast-math|-funsafe-math-optimizations|-ffp-contract=fast|-Ofast|[/-]fp:fast")

# Appends "<where>: <flags>" to `offenders` when `value` carries a
# value-unsafe flag.
macro(_analock_fp_probe where value)
  string(REGEX MATCHALL "${ANALOCK_UNSAFE_FP_FLAGS}" _analock_hits "${value}")
  if(_analock_hits)
    list(JOIN _analock_hits " " _analock_hits)
    list(APPEND offenders "${where}: ${_analock_hits}")
  endif()
endmacro()

# Walks the calling directory, every directory below it and every target
# they define. It reads the values the build uses, not the text of the
# CMake files: each CMAKE_CXX_FLAGS* variable as each directory sees it,
# each directory's COMPILE_OPTIONS, and each target's COMPILE_OPTIONS,
# INTERFACE_COMPILE_OPTIONS and COMPILE_FLAGS. Call it after the last
# add_subdirectory().
function(analock_check_fp_flags)
  set(offenders "")
  set(dirs "${CMAKE_CURRENT_SOURCE_DIR}")
  while(dirs)
    list(POP_FRONT dirs dir)
    file(RELATIVE_PATH rel "${CMAKE_CURRENT_SOURCE_DIR}" "${dir}")
    if(rel STREQUAL "")
      set(rel ".")
    endif()
    get_directory_property(vars DIRECTORY "${dir}" VARIABLES)
    list(FILTER vars INCLUDE REGEX "^CMAKE_CXX_FLAGS")
    foreach(var IN LISTS vars)
      get_directory_property(value DIRECTORY "${dir}" DEFINITION "${var}")
      _analock_fp_probe("${var} in ${rel}" "${value}")
    endforeach()
    get_directory_property(value DIRECTORY "${dir}" COMPILE_OPTIONS)
    _analock_fp_probe("COMPILE_OPTIONS of directory ${rel}" "${value}")
    get_directory_property(targets DIRECTORY "${dir}" BUILDSYSTEM_TARGETS)
    foreach(target IN LISTS targets)
      foreach(prop COMPILE_OPTIONS INTERFACE_COMPILE_OPTIONS COMPILE_FLAGS)
        get_target_property(value ${target} ${prop})
        _analock_fp_probe("${prop} of target ${target}" "${value}")
      endforeach()
    endforeach()
    get_directory_property(subdirs DIRECTORY "${dir}" SUBDIRECTORIES)
    list(APPEND dirs ${subdirs})
  endwhile()
  if(offenders)
    list(JOIN offenders "\n  " offenders)
    message(FATAL_ERROR
      "value-unsafe floating-point flags would break the batch engine's "
      "bit-exactness contract (results would differ from the scalar path "
      "and across thread counts):\n  ${offenders}")
  endif()
endfunction()
