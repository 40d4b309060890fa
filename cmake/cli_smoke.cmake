# CLI smoke test: run `zolcsim sweep` on one kernel and validate the CSV
# schema against the checked-in golden header, then run one checked-in
# scenario suite through `sweep --from-file`, exercise `run --mode`, and
# pin the exit codes of rejected flags and commands, of a removed suite
# member and of `bench --compare`. Invoked by
# CTest as
#   cmake -DCLI=<zolcsim> -DGOLDEN=<sweep_header.csv> -DOUT=<scratch.csv>
#        -DSUITE=<scenarios/fig2_cycles.json> -P cli_smoke.cmake
# Guards the CLI wiring end-to-end (arg parsing -> sweep engine -> CSV
# emitter) and pins the paper-default CSV schema.
if(NOT CLI OR NOT GOLDEN OR NOT OUT OR NOT SUITE)
  message(FATAL_ERROR
      "cli_smoke.cmake needs -DCLI=, -DGOLDEN=, -DOUT=, -DSUITE=")
endif()

execute_process(
  COMMAND ${CLI} sweep --kernels=dotprod --machines=XRdefault,ZOLClite
          --threads=1 --out=${OUT}
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr_text
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "zolcsim sweep failed (${rc}): ${stderr_text}")
endif()

file(STRINGS ${OUT} produced LIMIT_COUNT 1)
file(STRINGS ${GOLDEN} expected LIMIT_COUNT 1)
if(NOT produced STREQUAL expected)
  message(FATAL_ERROR
      "CSV header drifted from the golden schema\n  produced: ${produced}\n"
      "  expected: ${expected}")
endif()

# The sweep must have produced one row per (kernel, machine) cell.
file(STRINGS ${OUT} all_lines)
list(LENGTH all_lines line_count)
if(NOT line_count EQUAL 3)
  message(FATAL_ERROR "expected header + 2 cells, got ${line_count} lines")
endif()

# Suite mode: the checked-in fig2 scenario must run clean, which also
# re-verifies its golden CSV digest (the runner fails on any mismatch).
execute_process(
  COMMAND ${CLI} sweep --from-file=${SUITE} --threads=1 --out=${OUT}.suite
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr_text
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "zolcsim sweep --from-file failed (${rc}): ${stderr_text}")
endif()
file(STRINGS ${OUT}.suite suite_header LIMIT_COUNT 1)
if(NOT suite_header STREQUAL expected)
  message(FATAL_ERROR
      "suite CSV header drifted from the golden schema\n"
      "  produced: ${suite_header}\n  expected: ${expected}")
endif()

# Runs the CLI with the remaining arguments and fails unless it exits with
# `expected_rc`.
function(expect_exit expected_rc)
  execute_process(COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE stderr_text)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
        "zolcsim ${ARGN}: exit ${rc}, expected ${expected_rc}\n${stderr_text}")
  endif()
endfunction()

# One spelling of the execution mode; the removed flags are unknown.
expect_exit(0 run dotprod --machine=ZOLCfull --mode=iss-fast --tenants=2)
expect_exit(2 run dotprod --engine=iss)
expect_exit(2 run dotprod --fast-path)
expect_exit(2 run dotprod --no-predecode)
expect_exit(2 run dotprod --mode=iss --preempt-every=97 --preempt-serialize)

# The on-disk unit store has no CLI surface: its command, its directory
# flag on every verb, the zero-compile gate of `bench` and the daemon's
# store request are all unknown.
expect_exit(2 store stat --store-dir=x)
expect_exit(2 sweep --kernels=dotprod --store-dir=x)
expect_exit(2 bench --suite-dir=x --store-dir=x)
expect_exit(2 serve --socket=/nonexistent/zolcsim.sock --store-dir=x)
expect_exit(2 bench --suite-dir=x --expect-zero-compiles)
expect_exit(2 client store-stat --socket=/nonexistent)

# A suite file defines the whole grid: every grid flag conflicts with it.
expect_exit(2 sweep --from-file=${SUITE} --preempt-every=97)

# A removed suite member fails loudly: the strict schema rejects the retired
# cold-start run-path selector as unknown instead of ignoring it (its name
# is split so the tree keeps no live use of it).
string(CONCAT retired "warm" "_start")
file(READ ${SUITE} suite_text)
string(REPLACE "\"sweep\": {" "\"sweep\": {\"${retired}\": \"both\", "
       suite_text "${suite_text}")
file(WRITE ${OUT}.retired.json "${suite_text}")
execute_process(
  COMMAND ${CLI} sweep --from-file=${OUT}.retired.json --threads=1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE stderr_text)
if(NOT rc EQUAL 1 OR
   NOT stderr_text MATCHES "unknown sweep member '${retired}'")
  message(FATAL_ERROR
      "a suite carrying '${retired}' must fail with exit 1 and the "
      "unknown-member error: exit ${rc}\n${stderr_text}")
endif()

# `bench --compare` reads only the current BENCH schema: a self-compare
# passes, an artifact claiming an older schema is refused.
set(bench_dir ${OUT}.bench)
file(REMOVE_RECURSE ${bench_dir})
file(COPY ${SUITE} DESTINATION ${bench_dir}/suites)
expect_exit(0 bench --suite-dir=${bench_dir}/suites --out-dir=${bench_dir}/new
            --threads=1)
expect_exit(0 bench --compare ${bench_dir}/new ${bench_dir}/new)
file(GLOB artifacts ${bench_dir}/new/BENCH_*.json)
foreach(artifact IN LISTS artifacts)
  get_filename_component(name ${artifact} NAME)
  file(READ ${artifact} text)
  string(REPLACE "zolcsim-bench-v4" "zolcsim-bench-v3" text "${text}")
  file(WRITE ${bench_dir}/old/${name} "${text}")
endforeach()
expect_exit(1 bench --compare ${bench_dir}/old ${bench_dir}/new)

# An engine/option mismatch is flow::run's bad-config (exit 1) on every
# surface: the local run and a sweep cell alike.
expect_exit(1 run dotprod --mode=pipeline --tenants=2)
expect_exit(1 sweep --kernels=dotprod --modes=pipeline --tenants=2 --threads=1)

# Each client action takes only its own flags, checked before it connects:
# compile takes no run-only option, and ping takes nothing but --socket.
expect_exit(2 client compile dotprod --socket=/nonexistent --tenants=2)
expect_exit(2 client ping --socket=/nonexistent --mode=iss)
