# Resilience drill, run as a ctest entry (cmake -P).
#
# Proves the sweep supervisor's whole failure-containment story on the
# fig12 smoke grid:
#
#   run A  — uninterrupted: one grid point fails for real (--fault-point 1
#            gives it a one-cycle budget, so its sequential run stops at
#            cycle 1 and throws sim::CycleBudgetError), is quarantined
#            after its one attempt within the failure budget, and emits a
#            repro bundle; the run still exits 0.
#   run B1 — same sweep, but FGPAR_SUPERVISOR_EXIT_AFTER=2 SIGKILLs the
#            process right after the second point is journaled (a stand-in
#            for an external kill -9 mid-sweep).  Must die nonzero.
#   run B2 — same sweep with --resume: replays the journaled points,
#            recomputes the rest, and must exit 0.
#
# The deterministic BENCH artifact and the stdout table from run B2 must
# be byte-identical to run A's — an interruption plus resume is invisible
# in the results.  Finally, fgpar-repro replays run B's bundle and must
# report the recorded failure reproduces bit-exactly — failure text and
# machine snapshot both, so a bundle without a snapshot fails the drill —
# on the workload seed every other row of the table ran with (0x5eed): a
# quarantined point is never reseeded.  It replays the bundle once more
# with --trace, which moves the measured parallel run to the slow loop;
# that replay must reproduce too and write a non-empty trace file.
#
# Usage:
#   cmake -DFIG12=<fig12_speedup exe> -DREPRO_TOOL=<fgpar-repro exe>
#         -DWORK_DIR=<scratch dir> -P resume_guard.cmake

if(NOT DEFINED FIG12 OR NOT DEFINED REPRO_TOOL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "resume_guard.cmake requires -DFIG12, -DREPRO_TOOL, and -DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/a" "${WORK_DIR}/b")

set(ENV{FGPAR_BENCH_DETERMINISTIC} "1")
set(ENV{FGPAR_SWEEP_THREADS} "2")

set(sweep_args --smoke --fault-point 1 --failure-budget 1)

# ---- run A: uninterrupted, with quarantine + repro bundle ------------------
set(ENV{FGPAR_BENCH_DIR} "${WORK_DIR}/a")
execute_process(
  COMMAND ${FIG12} ${sweep_args}
    --checkpoint "${WORK_DIR}/a/ckpt" --repro-dir "${WORK_DIR}/a/repro"
  OUTPUT_VARIABLE stdout_a
  ERROR_VARIABLE stderr_a
  RESULT_VARIABLE status_a)
if(NOT status_a EQUAL 0)
  message(FATAL_ERROR
    "run A failed (${status_a}): the quarantined failure must stay within "
    "the failure budget\n${stderr_a}")
endif()
if(NOT stderr_a MATCHES "quarantined point 1")
  message(FATAL_ERROR "run A did not quarantine point 1:\n${stderr_a}")
endif()

# ---- run B1: SIGKILL after two journaled points ----------------------------
set(ENV{FGPAR_BENCH_DIR} "${WORK_DIR}/b")
set(ENV{FGPAR_SUPERVISOR_EXIT_AFTER} "2")
execute_process(
  COMMAND ${FIG12} ${sweep_args}
    --checkpoint "${WORK_DIR}/b/ckpt" --repro-dir "${WORK_DIR}/b/repro"
  OUTPUT_VARIABLE stdout_b1
  ERROR_VARIABLE stderr_b1
  RESULT_VARIABLE status_b1)
unset(ENV{FGPAR_SUPERVISOR_EXIT_AFTER})
if(status_b1 EQUAL 0)
  message(FATAL_ERROR "run B1 survived FGPAR_SUPERVISOR_EXIT_AFTER=2; the "
    "mid-sweep kill never happened")
endif()
if(NOT EXISTS "${WORK_DIR}/b/ckpt")
  message(FATAL_ERROR "run B1 died without leaving a checkpoint journal")
endif()

# ---- run B2: resume and finish ---------------------------------------------
execute_process(
  COMMAND ${FIG12} ${sweep_args}
    --checkpoint "${WORK_DIR}/b/ckpt" --repro-dir "${WORK_DIR}/b/repro"
    --resume
  OUTPUT_VARIABLE stdout_b2
  ERROR_VARIABLE stderr_b2
  RESULT_VARIABLE status_b2)
if(NOT status_b2 EQUAL 0)
  message(FATAL_ERROR "run B2 (resume) failed (${status_b2}):\n${stderr_b2}")
endif()
if(NOT stderr_b2 MATCHES "resumed [0-9]+ completed points")
  message(FATAL_ERROR "run B2 did not report resumed points:\n${stderr_b2}")
endif()

# ---- interruption must be invisible in the results -------------------------
if(NOT stdout_b2 STREQUAL stdout_a)
  file(WRITE "${WORK_DIR}/stdout_a.txt" "${stdout_a}")
  file(WRITE "${WORK_DIR}/stdout_b2.txt" "${stdout_b2}")
  message(FATAL_ERROR
    "resumed run's stdout differs from the uninterrupted run's "
    "(see ${WORK_DIR}/stdout_a.txt vs stdout_b2.txt)")
endif()
file(READ "${WORK_DIR}/a/BENCH_fig12.json" artifact_a)
file(READ "${WORK_DIR}/b/BENCH_fig12.json" artifact_b)
if(NOT artifact_a STREQUAL artifact_b)
  message(FATAL_ERROR
    "resumed run's BENCH_fig12.json differs from the uninterrupted run's "
    "(${WORK_DIR}/a vs ${WORK_DIR}/b)")
endif()

# ---- the repro bundle must replay bit-exactly ------------------------------
execute_process(
  COMMAND ${REPRO_TOOL} "${WORK_DIR}/b/repro/repro_fig12_point1"
  OUTPUT_VARIABLE stdout_repro
  ERROR_VARIABLE stderr_repro
  RESULT_VARIABLE status_repro)
if(NOT status_repro EQUAL 0)
  message(FATAL_ERROR
    "fgpar-repro failed (${status_repro}):\n${stdout_repro}${stderr_repro}")
endif()
if(NOT stdout_repro MATCHES "reproduced")
  message(FATAL_ERROR "fgpar-repro did not report a repro:\n${stdout_repro}")
endif()
if(NOT stdout_repro MATCHES "failure text and machine snapshot match")
  message(FATAL_ERROR
    "fgpar-repro did not compare a machine snapshot (the bundle has none):\n"
    "${stdout_repro}")
endif()
if(NOT stdout_repro MATCHES "seed 0x5eed\n")
  message(FATAL_ERROR
    "the repro bundle does not replay the table's workload seed 0x5eed:\n"
    "${stdout_repro}")
endif()

# ---- a traced replay must reproduce too ------------------------------------
file(REMOVE "${WORK_DIR}/repro_trace.json")
execute_process(
  COMMAND ${REPRO_TOOL} "${WORK_DIR}/b/repro/repro_fig12_point1"
    --trace "${WORK_DIR}/repro_trace.json"
  OUTPUT_VARIABLE stdout_traced
  ERROR_VARIABLE stderr_traced
  RESULT_VARIABLE status_traced)
if(NOT status_traced EQUAL 0 OR NOT stdout_traced MATCHES "reproduced")
  message(FATAL_ERROR
    "fgpar-repro --trace did not reproduce (${status_traced}):\n"
    "${stdout_traced}${stderr_traced}")
endif()
file(SIZE "${WORK_DIR}/repro_trace.json" trace_size)
if(trace_size EQUAL 0)
  message(FATAL_ERROR "fgpar-repro --trace wrote an empty trace file")
endif()
