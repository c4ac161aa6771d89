# Scenario catalog gate, run as a CTest:
#
#   cmake -DSCENARIO_RUN=<bin> -DSCHEMA_CHECK=<bin> -DSCENARIO_DIR=<dir>
#         -DWORK_DIR=<dir> -P scenario_check.cmake
#
# For every scenarios/*.json:
#   * lints it (`schema_check --scenario`);
#   * smoke-runs it twice, in separate processes, with identical arguments;
#   * asserts the two runs' TSV stdout is byte-identical (every reported
#     value is virtual-time derived, so a same-seed replay must not move);
#   * schema-validates both BENCH_*.json reports and requires their series
#     to be cell-identical via `schema_check --compare-series`;
#   * requires every scheduled fault to be applied before the last phase
#     ends, so the smoke run's events reach each fault (a scenario's
#     "smoke" caps must leave enough events).
foreach(v SCENARIO_RUN SCHEMA_CHECK SCENARIO_DIR WORK_DIR)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "scenario_check.cmake: -D${v}=... is required")
  endif()
endforeach()

# Sets ${out} to the list "<series index>;<column index>" of column `column`
# in series `series` of the report JSON `doc`, or to -1 when the series or
# the column is absent.
function(series_column doc series column out)
  set(${out} -1 PARENT_SCOPE)
  string(JSON nseries LENGTH "${doc}" series)
  math(EXPR last_series "${nseries} - 1")
  foreach(i RANGE ${last_series})
    string(JSON name GET "${doc}" series ${i} name)
    if(NOT name STREQUAL series)
      continue()
    endif()
    string(JSON ncols LENGTH "${doc}" series ${i} columns)
    math(EXPR last_col "${ncols} - 1")
    foreach(c RANGE ${last_col})
      string(JSON col GET "${doc}" series ${i} columns ${c} name)
      if(col STREQUAL column)
        set(${out} "${i};${c}" PARENT_SCOPE)
        return()
      endif()
    endforeach()
  endforeach()
endfunction()

# Fails when a fault of the report was applied at or after the end of its
# last phase: the smoke events ended before reaching it.
function(check_faults_reached stem report)
  file(READ "${report}" doc)
  series_column("${doc}" faults applied_ms applied)
  if(applied STREQUAL "-1")
    return()
  endif()
  series_column("${doc}" phases end_ms ended)
  if(ended STREQUAL "-1")
    message(FATAL_ERROR "${stem}: report has faults but no phases.end_ms")
  endif()
  list(GET ended 0 phases)
  list(GET ended 1 end_col)
  string(JSON nphases LENGTH "${doc}" series ${phases} rows)
  math(EXPR last_phase "${nphases} - 1")
  string(JSON end_ms GET "${doc}" series ${phases} rows ${last_phase} ${end_col})
  list(GET applied 0 faults)
  list(GET applied 1 applied_col)
  string(JSON nfaults LENGTH "${doc}" series ${faults} rows)
  if(nfaults EQUAL 0)
    return()
  endif()
  math(EXPR last_fault "${nfaults} - 1")
  foreach(f RANGE ${last_fault})
    string(JSON at GET "${doc}" series ${faults} rows ${f} ${applied_col})
    if(NOT at LESS end_ms)
      message(FATAL_ERROR
              "${stem}: fault ${f} applied at ${at} ms, after the last phase "
              "ended at ${end_ms} ms; raise the scenario's smoke max_events "
              "so its events reach every fault")
    endif()
  endforeach()
endfunction()

file(GLOB scenarios "${SCENARIO_DIR}/*.json")
list(LENGTH scenarios count)
if(count EQUAL 0)
  message(FATAL_ERROR "no scenario files in ${SCENARIO_DIR}")
endif()
list(SORT scenarios)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/run1" "${WORK_DIR}/run2")

execute_process(
  COMMAND "${SCHEMA_CHECK}" --scenario ${scenarios}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenario lint failed")
endif()

foreach(scenario IN LISTS scenarios)
  get_filename_component(stem "${scenario}" NAME_WE)
  foreach(run 1 2)
    set(ENV{PLEROMA_BENCH_DIR} "${WORK_DIR}/run${run}")
    execute_process(
      COMMAND "${SCENARIO_RUN}" "${scenario}" --smoke
      OUTPUT_FILE "${WORK_DIR}/${stem}_run${run}.tsv"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${scenario} failed on run ${run} (${rc})")
    endif()
  endforeach()

  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/${stem}_run1.tsv" "${WORK_DIR}/${stem}_run2.tsv"
    RESULT_VARIABLE tsv_diff)
  if(NOT tsv_diff EQUAL 0)
    message(FATAL_ERROR
            "${stem}: TSV differs between two same-seed runs "
            "(diff ${WORK_DIR}/${stem}_run1.tsv ${WORK_DIR}/${stem}_run2.tsv)")
  endif()

  # The per-run report name is BENCH_<scenario name>.json; the scenario's
  # "name" field must match the file stem for the catalog (enforced here).
  if(NOT EXISTS "${WORK_DIR}/run1/BENCH_${stem}.json")
    message(FATAL_ERROR
            "${stem}: expected report BENCH_${stem}.json was not written "
            "(scenario name must match the file stem)")
  endif()

  execute_process(
    COMMAND "${SCHEMA_CHECK}"
            "${WORK_DIR}/run1/BENCH_${stem}.json" "${WORK_DIR}/run2/BENCH_${stem}.json"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${stem}: report failed pleroma-bench-v1 validation")
  endif()

  execute_process(
    COMMAND "${SCHEMA_CHECK}" --compare-series
            "${WORK_DIR}/run1/BENCH_${stem}.json" "${WORK_DIR}/run2/BENCH_${stem}.json"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${stem}: report series differ between two same-seed runs")
  endif()

  check_faults_reached("${stem}" "${WORK_DIR}/run1/BENCH_${stem}.json")
endforeach()

message(STATUS "scenario smoke passed: ${count} scenario(s), two runs each")
