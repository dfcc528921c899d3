# Paper-experiment gate: the printed series, report tables and shape checks
# of Table I, Figs. 10-14, ablations A1-A9 and extensions E1-E2
# (`das_sim --figure=all`) must match tests/data/paper_experiments.txt byte
# for byte, and every shape check must hold (das_sim exits non-zero
# otherwise). One experiment must also print the same bytes serially and on
# four worker threads.
#
# Invoked as: cmake -DDAS_SIM=<path> -DREFERENCE=<file>
#             -P paper_experiments.cmake
foreach(var DAS_SIM REFERENCE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

function(run_figure id jobs out_var)
  execute_process(
    COMMAND ${DAS_SIM} --figure=${id} --jobs=${jobs}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "--figure=${id} --jobs=${jobs} failed (exit ${rc}):\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_figure(all 4 now)
file(READ ${REFERENCE} ref)
if(NOT now STREQUAL ref)
  file(WRITE paper_experiments.out "${now}")
  message(FATAL_ERROR
    "paper experiments diverged from ${REFERENCE}; the current output is in "
    "${CMAKE_CURRENT_BINARY_DIR}/paper_experiments.out (diff the two)")
endif()
message(STATUS "every table, figure and shape check matches the reference")

run_figure(a8 1 serial)
run_figure(a8 4 parallel)
string(FIND "${ref}" "${serial}" at)
if(NOT serial STREQUAL parallel OR at EQUAL -1)
  message(FATAL_ERROR
    "--figure=a8 differs between --jobs=1 and --jobs=4, or from its block "
    "in the reference\n--- jobs=1 ---\n${serial}\n--- jobs=4 ---\n${parallel}")
endif()
message(STATUS "--figure=a8 is byte-identical at --jobs=1 and --jobs=4")
