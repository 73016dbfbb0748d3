# Checks that the x86-64 binaries use the POPCNT instruction: fails if
# `objdump -d` of any binary shows a call to libgcc's __popcountdi2, the
# software popcount a build without -mpopcnt falls back to.  Run by ctest
#   cmake -DOBJDUMP=<objdump> -DX86_64=ON|OFF
#         -DBINARIES=<bin>;<bin>... -P popcnt_check.cmake
# When the build is not for x86-64 (X86_64 OFF), or without objdump, it
# prints "popcnt_check: skipped" and ctest reports the test as skipped.

if(NOT BINARIES)
  message(FATAL_ERROR "usage: cmake -DOBJDUMP=<objdump> -DX86_64=ON|OFF "
                      "-DBINARIES=<bin>;<bin>... -P popcnt_check.cmake")
endif()

if(NOT X86_64)
  message("popcnt_check: skipped (not an x86-64 build)")
  return()
endif()
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("popcnt_check: skipped (objdump not found)")
  return()
endif()

set(failed "")
foreach(binary IN LISTS BINARIES)
  execute_process(COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${binary}"
                  OUTPUT_VARIABLE listing
                  ERROR_VARIABLE error
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "objdump -d ${binary} exited with ${status}:\n${error}")
  endif()
  string(REGEX MATCHALL "call[^\n]*<__popcountdi2[^\n]*" calls "${listing}")
  list(LENGTH calls n)
  get_filename_component(name "${binary}" NAME)
  message("${name}: ${n} call(s) to __popcountdi2")
  if(n GREATER 0)
    list(APPEND failed "${name}")
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "software popcount calls in: ${failed} (is -mpopcnt "
                      "missing from the x86-64 build?)")
endif()
