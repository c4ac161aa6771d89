# Determinism gate, run as a CTest:
#
#   cmake -DFIG7A=<bin> -DFIG7C=<bin> -DFIG7F=<bin> -DSCALE_AGG=<bin>
#         -DHOTSPOT=<bin> -DCHURN=<bin> -DFAILOVER=<bin> -DLOSS=<bin>
#         -DREPAIR=<bin> -DACTIVATION=<bin> -DSCHEMA_CHECK=<bin>
#         -DWORK_DIR=<dir> -P determinism_check.cmake
#
# Runs the fig7a, fig7c, fig7f, scale_aggregation, hotspot_rebalance,
# churn_reconfig, failover_window, control_plane_loss, failure_repair and
# activation_delay smoke benches twice each, in separate processes with
# identical arguments, and asserts:
#   * the TSV stdout of every bench but fig7f is byte-identical (every cell
#     is simulated-time derived or accounted state, so a same-seed replay
#     must not move by a single byte);
#   * every bench's BENCH_*.json series are cell-identical via
#     `schema_check --compare-series`, which also validates each report
#     against the schema, ignoring only fig7f's wall-clock columns
#     (controller_wall_us, subs_per_sec), which vary run to run.
foreach(v FIG7A FIG7C FIG7F SCALE_AGG HOTSPOT CHURN FAILOVER LOSS REPAIR
          ACTIVATION SCHEMA_CHECK WORK_DIR)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "determinism_check.cmake: -D${v}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/run1" "${WORK_DIR}/run2")
set(ENV{PLEROMA_BENCH_SMOKE} "1")

function(run_bench bin run tsv)
  set(ENV{PLEROMA_BENCH_DIR} "${WORK_DIR}/run${run}")
  execute_process(
    COMMAND "${bin}"
    OUTPUT_FILE "${tsv}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bin} failed on run ${run} (${rc})")
  endif()
endfunction()

foreach(run 1 2)
  run_bench("${FIG7A}" ${run} "${WORK_DIR}/fig7a_run${run}.tsv")
  run_bench("${FIG7F}" ${run} "${WORK_DIR}/fig7f_run${run}.tsv")
  run_bench("${SCALE_AGG}" ${run} "${WORK_DIR}/scale_agg_run${run}.tsv")
  run_bench("${HOTSPOT}" ${run} "${WORK_DIR}/hotspot_run${run}.tsv")
  run_bench("${CHURN}" ${run} "${WORK_DIR}/churn_run${run}.tsv")
  run_bench("${FAILOVER}" ${run} "${WORK_DIR}/failover_run${run}.tsv")
  run_bench("${FIG7C}" ${run} "${WORK_DIR}/fig7c_run${run}.tsv")
  run_bench("${LOSS}" ${run} "${WORK_DIR}/loss_run${run}.tsv")
  run_bench("${REPAIR}" ${run} "${WORK_DIR}/repair_run${run}.tsv")
  run_bench("${ACTIVATION}" ${run} "${WORK_DIR}/activation_run${run}.tsv")
endforeach()

# Byte-compares one bench's two TSV outputs.
function(require_same_tsv stem label)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/${stem}_run1.tsv" "${WORK_DIR}/${stem}_run2.tsv"
    RESULT_VARIABLE tsv_diff)
  if(NOT tsv_diff EQUAL 0)
    message(FATAL_ERROR
            "${label} TSV differs between two same-seed runs "
            "(diff ${WORK_DIR}/${stem}_run1.tsv ${WORK_DIR}/${stem}_run2.tsv)")
  endif()
endfunction()

# Cell-compares one bench's two BENCH_*.json reports; extra arguments are
# passed through to schema_check (--ignore-column=...).
function(require_same_series name)
  execute_process(
    COMMAND "${SCHEMA_CHECK}" --compare-series
            "${WORK_DIR}/run1/BENCH_${name}.json"
            "${WORK_DIR}/run2/BENCH_${name}.json" ${ARGN}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${name} BENCH json result fields differ between two same-seed runs")
  endif()
endfunction()

require_same_tsv(fig7a fig7a)
require_same_series(fig7a)
require_same_series(fig7f
                    --ignore-column=controller_wall_us --ignore-column=subs_per_sec)
# scale_aggregation: every cell is accounted controller/switch state.
require_same_tsv(scale_agg scale_aggregation)
require_same_series(scale_aggregation)
# hotspot_rebalance: queue depths, drop counters, and reroot decisions all
# derive from virtual time, so the congested run too must be byte-stable.
require_same_tsv(hotspot hotspot_rebalance)
require_same_series(hotspot_rebalance)
# churn_reconfig: every tick unsubscribes and resubscribes the whole fleet,
# so flow-mod counts and false-positive rates exercise the controller's
# unsubscribe path end to end.
require_same_tsv(churn churn_reconfig)
require_same_series(churn_reconfig)
# failover_window: the promotion pipeline (muted replay, stats sweep, delta
# repair, miss-buffer release) replays identically from run to run.
require_same_tsv(failover failover_window)
require_same_series(failover_window)
# fig7c_throughput: sustained publish load through the data plane.
require_same_tsv(fig7c fig7c_throughput)
require_same_series(fig7c)
# The control channel's lossy and async paths: control_plane_loss (drops,
# duplicates, retries and the repair pass), failure_repair (link and switch
# failures repaired through the channel) and activation_delay (async
# installs landing in FIFO order).
require_same_tsv(loss control_plane_loss)
require_same_series(control_plane_loss)
require_same_tsv(repair failure_repair)
require_same_series(failure_repair)
require_same_tsv(activation activation_delay)
require_same_series(activation_delay)

message(STATUS "determinism check passed: two same-seed runs byte-identical")
