# Golden-counter gate: same answers, same counters.
#
#   cmake -DLAZYMC_BIN=<lazymc> -DGOLDEN=<file> [-DREPS=auto;bitset]
#         [-DMODE=check|write] -P golden_counters.cmake
#
# Solves the 28 gen:NAME:medium suite graphs at --threads 1 under each
# --rep in REPS (default: all four) and renders every report as one block
# of "key value" lines: omega, the two heuristic omegas, a hash of the
# witness clique, and every count in the report (search, kernels,
# lazy_graph, heuristic_degree, degradations).  Timings are left out.  At
# one thread all of these are deterministic.
#
# MODE=check (default) compares the blocks of the requested reps with the
# golden file and fails on any difference, listing the first 50 differing
# lines.  MODE=write rewrites the golden file from scratch (all four reps
# unless REPS says otherwise); tools/golden_counters.sh wraps both modes.

cmake_minimum_required(VERSION 3.20)

if(NOT LAZYMC_BIN OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DLAZYMC_BIN=<lazymc> -DGOLDEN=<file> "
                      "[-DREPS=auto;bitset] [-DMODE=check|write] "
                      "-P golden_counters.cmake")
endif()
if(NOT MODE)
  set(MODE check)
endif()
if(NOT REPS)
  set(REPS auto bitset hash sorted)
endif()

# src/graph/suite.cpp's instances, in its order.
set(graphs USAroad CAroad sinaweibo friendster webcc soflow talk patents
    LiveJournal flickr yahoo warwiki topcats pokec orkut higgs uk-union
    dimacs hudong dblp it hollywood uk WormNet HS-CX mouse human-1 human-2)

# Report keys that are not counts: timings, the header fields and arrays.
set(skip_keys graph solver threads load_path clique phases improvements
    time_to_first_solution fault_injection)

# Appends "prefix.key value" for every scalar member of the JSON object
# `json`, recursing into nested objects.
function(flatten json prefix out_var)
  set(lines "")
  string(JSON count LENGTH "${json}")
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON key MEMBER "${json}" ${i})
      if(key IN_LIST skip_keys OR key MATCHES "seconds$")
        continue()
      endif()
      string(JSON type TYPE "${json}" "${key}")
      string(JSON value GET "${json}" "${key}")
      if(type STREQUAL "OBJECT")
        flatten("${value}" "${prefix}${key}." nested)
        list(APPEND lines ${nested})
      elseif(type STREQUAL "BOOLEAN")
        if(value)
          list(APPEND lines "${prefix}${key} true")
        else()
          list(APPEND lines "${prefix}${key} false")
        endif()
      elseif(NOT type STREQUAL "ARRAY")
        list(APPEND lines "${prefix}${key} ${value}")
      endif()
    endforeach()
  endif()
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

# Solves the grid under one rep and sets `out_var` to its block lines.
function(render_rep rep out_var)
  set(args "")
  foreach(g IN LISTS graphs)
    list(APPEND args --graph "gen:${g}:medium")
  endforeach()
  execute_process(COMMAND "${LAZYMC_BIN}" ${args} --threads 1 --rep ${rep}
                  OUTPUT_VARIABLE output ERROR_VARIABLE error
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "lazymc --rep ${rep} exited with ${status}:\n${error}")
  endif()
  # Batch mode prints one JSON object per line.  Each line's brackets are
  # balanced, so the list split below keeps every object whole.
  string(STRIP "${output}" output)
  string(REPLACE "\n" ";" reports "${output}")
  list(LENGTH reports num_reports)
  list(LENGTH graphs num_graphs)
  if(NOT num_reports EQUAL num_graphs)
    message(FATAL_ERROR "lazymc --rep ${rep}: expected ${num_graphs} "
                        "reports, got ${num_reports}:\n${output}")
  endif()
  set(lines "")
  foreach(report IN LISTS reports)
    string(JSON graph GET "${report}" graph)
    if(NOT report MATCHES "\"clique\":\\[([0-9,]*)\\]")
      message(FATAL_ERROR "no witness in the report for ${graph}:\n${report}")
    endif()
    string(SHA256 witness "${CMAKE_MATCH_1}")
    string(SUBSTRING "${witness}" 0 16 witness)
    flatten("${report}" "" counts)
    list(APPEND lines "== ${graph} --rep ${rep} --threads 1"
         "witness_sha256 ${witness}" ${counts})
  endforeach()
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

if(MODE STREQUAL "write")
  string(CONCAT text
         "# Golden counters: one block per gen:NAME:medium graph and --rep,\n"
         "# solved at --threads 1.  Rewrite with tools/golden_counters.sh;\n"
         "# the golden_counters ctest checks the auto and bitset blocks.\n")
  foreach(rep IN LISTS REPS)
    render_rep(${rep} lines)
    foreach(line IN LISTS lines)
      if(line MATCHES "^== ")
        string(APPEND text "\n")
      endif()
      string(APPEND text "${line}\n")
    endforeach()
  endforeach()
  file(WRITE "${GOLDEN}" "${text}")
  message(STATUS "golden_counters: wrote ${GOLDEN} (${REPS})")
  return()
elseif(NOT MODE STREQUAL "check")
  message(FATAL_ERROR "MODE must be check or write (got '${MODE}')")
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "golden file ${GOLDEN} does not exist")
endif()
file(STRINGS "${GOLDEN}" golden_lines)
foreach(rep IN LISTS REPS)
  # The golden file's blocks for this rep, in file order.
  set(expected "")
  set(in_rep OFF)
  foreach(line IN LISTS golden_lines)
    if(line STREQUAL "")
      continue()
    endif()
    if(line MATCHES "^== .* --rep ([a-z]+) ")
      if(CMAKE_MATCH_1 STREQUAL rep)
        set(in_rep ON)
      else()
        set(in_rep OFF)
      endif()
    endif()
    if(in_rep)
      list(APPEND expected "${line}")
    endif()
  endforeach()
  if(NOT expected)
    message(FATAL_ERROR "${GOLDEN} has no blocks for --rep ${rep}")
  endif()

  render_rep(${rep} actual)
  list(LENGTH expected num_expected)
  list(LENGTH actual num_actual)
  set(diffs "")
  set(num_diffs 0)
  set(block "")
  set(i 0)
  foreach(line IN LISTS actual)
    if(line MATCHES "^== ")
      set(block "${line}")
    endif()
    set(want "<missing>")
    if(i LESS num_expected)
      list(GET expected ${i} want)
    endif()
    if(NOT line STREQUAL want)
      math(EXPR num_diffs "${num_diffs} + 1")
      if(num_diffs LESS_EQUAL 50)
        string(APPEND diffs
               "  ${block}\n    golden: ${want}\n    now:    ${line}\n")
      endif()
    endif()
    math(EXPR i "${i} + 1")
  endforeach()
  if(NOT num_actual EQUAL num_expected)
    math(EXPR num_diffs "${num_diffs} + 1")
    string(APPEND diffs "  --rep ${rep}: ${num_actual} lines now, "
                        "${num_expected} in the golden file\n")
  endif()
  if(num_diffs GREATER 0)
    message(FATAL_ERROR "golden counters changed under --rep ${rep} "
                        "(${num_diffs} lines differ):\n${diffs}"
                        "If the change is intended, rewrite the file with "
                        "tools/golden_counters.sh and list each changed "
                        "counter in CHANGES.md.")
  endif()
  message(STATUS "golden_counters: --rep ${rep} matches (${num_actual} lines)")
endforeach()
