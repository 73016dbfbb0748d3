# End-to-end smoke test for the `lazymc` CLI driver, run by ctest as
#   cmake -DLAZYMC_BIN=... -DWORK_DIR=... -P cli_smoke.cmake
# Exercises both graph sources (synthetic-suite generator and a DIMACS
# file) and both output modes, and checks the reported omega.  With
# -DLAZYMC_CONVERT_BIN / -DLAZYMCD_BIN it also covers lazymc-convert and
# the count flags of lazymc-convert and lazymcd.

if(NOT LAZYMC_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DLAZYMC_BIN=<lazymc> -DWORK_DIR=<dir> "
                      "-P cli_smoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_lazymc out_var)
  execute_process(COMMAND "${LAZYMC_BIN}" ${ARGN}
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE error
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "lazymc ${ARGN} exited with ${status}:\n${error}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

function(expect output pattern what)
  if(NOT output MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: expected /${pattern}/ in:\n${output}")
  endif()
endfunction()

# 1. Generator instance, JSON output, full lazymc instrumentation.
run_lazymc(json_out --graph gen:dimacs:tiny --solver lazymc --threads 2
           --time-limit 300 --json)
expect("${json_out}" "\"omega\":[0-9]+" "generator JSON omega")
expect("${json_out}" "\"verification\":\"ok\"" "generator JSON verification")
expect("${json_out}" "\"phases\":" "generator JSON phase times")
expect("${json_out}" "\"search\":" "generator JSON search stats")
expect("${json_out}" "\"lazy_graph\":" "generator JSON lazy-graph stats")
expect("${json_out}" "\"load_seconds\":[0-9]" "generator JSON load time")
expect("${json_out}" "\"load_path\":\"gen\"" "generator JSON load path")

# 2. DIMACS file: K4 on vertices 1-4 plus an isolated vertex 5 (omega 4,
# and the declared n=5 must survive the read).
set(clq "${WORK_DIR}/smoke_k4.clq")
file(WRITE "${clq}" "c smoke instance\np edge 5 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")

run_lazymc(text_out --graph "${clq}" --solver lazymc)
expect("${text_out}" "omega: +4" "DIMACS text omega")
expect("${text_out}" "5 vertices" "DIMACS declared vertex count")
expect("${text_out}" "verification: ok" "DIMACS text witness verification")
expect("${text_out}" "loaded in [0-9.]+s via parse" "DIMACS text load path")

# 3. Same file through a baseline solver, JSON output.
run_lazymc(ref_out --graph "${clq}" --solver reference --json)
expect("${ref_out}" "\"omega\":4" "DIMACS reference omega")
expect("${ref_out}" "\"verification\":\"ok\"" "reference witness verification")

# 3b. Binary graph store: convert the DIMACS file and a generator
# instance to .lmg, solve straight off the mmap, and check the reported
# load path plus zero-copy row adoption (no lazily built rows).
if(LAZYMC_CONVERT_BIN)
  set(k4_lmg "${WORK_DIR}/smoke_k4.lmg")
  execute_process(COMMAND "${LAZYMC_CONVERT_BIN}" "${clq}" "${k4_lmg}"
                          --with-rows --verify
                  OUTPUT_VARIABLE conv_out ERROR_VARIABLE conv_err
                  RESULT_VARIABLE conv_status)
  if(NOT conv_status EQUAL 0)
    message(FATAL_ERROR "lazymc-convert exited with ${conv_status}:"
                        "\n${conv_out}\n${conv_err}")
  endif()
  expect("${conv_out}" "verified" "converter round-trip verification")
  run_lazymc(lmg_out --graph "${k4_lmg}" --solver lazymc --json)
  expect("${lmg_out}" "\"omega\":4" "mmap-loaded omega")
  expect("${lmg_out}" "\"load_path\":\"mmap\"" "mmap load path in report")
  expect("${lmg_out}" "\"verification\":\"ok\"" "mmap-loaded verification")

  set(webcc_lmg "${WORK_DIR}/smoke_webcc.lmg")
  execute_process(COMMAND "${LAZYMC_CONVERT_BIN}" gen:webcc:tiny
                          "${webcc_lmg}" --rows-omega 1 --verify
                  RESULT_VARIABLE conv_status)
  if(NOT conv_status EQUAL 0)
    message(FATAL_ERROR "lazymc-convert gen:webcc:tiny exited with "
                        "${conv_status}")
  endif()
  run_lazymc(rows_out --graph "${webcc_lmg}" --solver lazymc --rep bitset
             --json)
  expect("${rows_out}" "\"load_path\":\"mmap\"" "store load path")
  expect("${rows_out}" "\"rows_prebuilt\":[1-9]" "prebuilt rows adopted")
  expect("${rows_out}" "\"bitset_built\":0" "no rows built")
  run_lazymc(gen_rows_out --graph gen:webcc:tiny --solver lazymc
             --rep bitset --json)
  string(REGEX MATCH "\"omega\":[0-9]+" lmg_omega "${rows_out}")
  string(REGEX MATCH "\"omega\":[0-9]+" gen_omega "${gen_rows_out}")
  if(NOT lmg_omega STREQUAL gen_omega)
    message(FATAL_ERROR "store vs parse omega diverged: ${lmg_omega} vs "
                        "${gen_omega}")
  endif()

  # A truncated store must be an input error (exit 3), not a crash.
  set(trunc_lmg "${WORK_DIR}/smoke_trunc.lmg")
  execute_process(
      COMMAND sh -c "head -c 150 '${k4_lmg}' > '${trunc_lmg}'")
  execute_process(COMMAND "${LAZYMC_BIN}" --graph "${trunc_lmg}"
                  OUTPUT_VARIABLE trunc_out ERROR_VARIABLE trunc_err
                  RESULT_VARIABLE trunc_status)
  if(NOT trunc_status EQUAL 3)
    message(FATAL_ERROR "truncated store should exit 3, got "
                        "${trunc_status}:\n${trunc_out}\n${trunc_err}")
  endif()
endif()

# 4. Batch mode: a manifest plus a repeated --graph stream one JSON object
# per instance (JSON implied, no --json needed).
set(manifest "${WORK_DIR}/smoke_manifest.txt")
file(WRITE "${manifest}" "# smoke manifest\ngen:webcc:tiny\n\n${clq} # trailing comment\n")
run_lazymc(batch_out --manifest "${manifest}" --graph gen:talk:tiny
           --threads 2)
string(REGEX MATCHALL "\"omega\":[0-9]+" batch_omegas "${batch_out}")
list(LENGTH batch_omegas batch_count)
if(NOT batch_count EQUAL 3)
  message(FATAL_ERROR "batch mode: expected 3 JSON objects, got "
                      "${batch_count}:\n${batch_out}")
endif()
expect("${batch_out}" "smoke_k4" "batch mode ran the manifest's file spec")

# 5. A failing instance emits a machine-readable error object and the
# batch-with-failures exit code (5), without aborting the rest of the
# batch.
execute_process(COMMAND "${LAZYMC_BIN}" --graph gen:webcc:tiny
                        --graph /nonexistent.clq
                OUTPUT_VARIABLE fail_out ERROR_VARIABLE fail_err
                RESULT_VARIABLE fail_status)
if(NOT fail_status EQUAL 5)
  message(FATAL_ERROR "batch with a bad instance should exit 5, got "
                      "${fail_status}:\n${fail_out}\n${fail_err}")
endif()
expect("${fail_out}" "\"omega\":" "good instance still solved in failing batch")
expect("${fail_out}" "\"error\":" "bad instance reported as an error object")
expect("${fail_out}" "\"error_kind\":\"input\"" "error object carries its kind")
expect("${fail_out}" "\"attempts\":1" "error object counts attempts")

# --- exit-code contract (documented in --help and the README) -----------

function(expect_exit expected what)
  execute_process(COMMAND "${LAZYMC_BIN}" ${ARGN}
                  OUTPUT_VARIABLE output ERROR_VARIABLE error
                  RESULT_VARIABLE status)
  if(NOT status EQUAL ${expected})
    message(FATAL_ERROR "${what}: expected exit ${expected}, got ${status}:"
                        "\n${output}\n${error}")
  endif()
  set(last_out "${output}" PARENT_SCOPE)
endfunction()

# 6. 0 = solved; 2 = timed out (best-so-far is still verified); 3 = input
# error (unreadable graph, bad flag).
expect_exit(0 "solved exit code" --graph "${clq}")
expect_exit(2 "timed-out exit code"
            --graph gen:human-2:small --time-limit 0.001 --json)
expect("${last_out}" "\"timed_out\":true" "timeout flagged in report")
expect("${last_out}" "\"verification\":\"ok\"" "timed-out witness verified")
expect_exit(3 "missing-file exit code" --graph /nonexistent.clq)
expect_exit(3 "bad-flag exit code" --graph "${clq}" --no-such-flag)
expect_exit(3 "removed --rep hybrid" --graph "${clq}" --rep hybrid)
expect_exit(3 "removed --solver mce" --graph "${clq}" --solver mce)
expect_exit(3 "removed --pre-density" --graph "${clq}" --pre-density)
expect_exit(3 "bad-manifest exit code" --manifest /nonexistent.manifest)

# 7. Counts from the command line are parsed strictly, and thread and
# executor counts are capped, before any pool or broker exists.  Every
# call below also omits a required argument, so a parser that let the
# count through would still stop before spawning anything (and fail the
# message check instead).
function(expect_count_rejected bin flag)
  execute_process(COMMAND "${bin}" ${ARGN}
                  OUTPUT_VARIABLE output ERROR_VARIABLE error
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 3 OR NOT error MATCHES "${flag} expects an integer")
    message(FATAL_ERROR "${bin} ${ARGN}: expected exit 3 naming ${flag}, "
                        "got ${status}:\n${output}\n${error}")
  endif()
endfunction()
foreach(bad 1025 -1 abc 2x 99999999999999999999)
  expect_count_rejected("${LAZYMC_BIN}" --threads --threads ${bad})
endforeach()
expect_count_rejected("${LAZYMC_BIN}" --retries --retries -3)
if(LAZYMC_CONVERT_BIN)
  foreach(bad 1025 -1 abc)
    expect_count_rejected("${LAZYMC_CONVERT_BIN}" --threads --threads ${bad})
  endforeach()
  expect_count_rejected("${LAZYMC_CONVERT_BIN}" --rows-omega
                        --rows-omega 4294967296)
endif()
if(LAZYMCD_BIN)
  foreach(flag --threads --executors)
    foreach(bad 1025 -1 abc)
      expect_count_rejected("${LAZYMCD_BIN}" ${flag} ${flag} ${bad})
    endforeach()
  endforeach()
endif()

# 8. Crash-safe batch: a journaled sweep records completed instances; a
# --resume re-run skips them (solving only what is missing) and exits 0.
set(journal "${WORK_DIR}/smoke_journal.jsonl")
file(REMOVE "${journal}")
run_lazymc(j1_out --graph gen:webcc:tiny --graph gen:talk:tiny
           --journal "${journal}")
file(READ "${journal}" journal_text)
expect("${journal_text}" "\"spec\":\"gen:webcc:tiny\"" "first spec journaled")
expect("${journal_text}" "\"spec\":\"gen:talk:tiny\"" "second spec journaled")
expect("${journal_text}" "\"status\":\"ok\"" "journal records completion")

# Simulate a sweep killed halfway: keep only the first journal line, then
# resume a three-instance sweep.  Only the two missing instances may run.
string(REGEX REPLACE "\n.*" "\n" half_journal "${journal_text}")
file(WRITE "${journal}" "${half_journal}")
run_lazymc(resume_out --graph gen:webcc:tiny --graph gen:talk:tiny
           --graph "${clq}" --journal "${journal}" --resume)
if(resume_out MATCHES "gen:webcc:tiny")
  message(FATAL_ERROR "resume re-solved a journaled instance:\n${resume_out}")
endif()
string(REGEX MATCHALL "\"omega\":[0-9]+" resume_omegas "${resume_out}")
list(LENGTH resume_omegas resume_count)
if(NOT resume_count EQUAL 2)
  message(FATAL_ERROR "resume: expected 2 solves, got ${resume_count}:"
                      "\n${resume_out}")
endif()
file(READ "${journal}" journal_text)
expect("${journal_text}" "smoke_k4" "resumed sweep journaled the file spec")

# --resume without --journal is an input error.
expect_exit(3 "resume-without-journal exit code" --graph "${clq}" --resume)

# 9. SIGINT during a long solve: the driver reports best-so-far with
# "interrupted": true and exits with the documented code (6).  The
# reference solver's dense B&B over the medium worm network runs far
# longer than the kill delay; it also honours --time-limit.
if(UNIX)
  execute_process(
      COMMAND sh -c "'${LAZYMC_BIN}' --solver reference \
--graph gen:WormNet:medium --json > '${WORK_DIR}/ref_interrupt.json' & \
pid=$!; sleep 1; kill -INT $pid; wait $pid; exit $?"
      RESULT_VARIABLE ref_int_status)
  if(NOT ref_int_status EQUAL 6)
    message(FATAL_ERROR "interrupted reference solve: expected exit 6, got "
                        "${ref_int_status}")
  endif()
  file(READ "${WORK_DIR}/ref_interrupt.json" ref_int_out)
  expect("${ref_int_out}" "\"interrupted\":true"
         "reference interrupt flagged in report")
  expect("${ref_int_out}" "\"omega\":[1-9]"
         "interrupted reference solve kept best-so-far")
endif()
expect_exit(2 "reference timed-out exit code" --solver reference
            --graph gen:WormNet:medium --time-limit 0.5 --json)
expect("${last_out}" "\"timed_out\":true" "reference timeout flagged")
expect("${last_out}" "\"verification\":\"ok\"" "reference witness verified")

message(STATUS "cli_smoke passed")
