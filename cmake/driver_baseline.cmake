# Regression gate for the run driver: outputs no other gate pins are
# compared byte for byte against committed reference files.
#  * das_sim sparse-access sweeps (--access=strided:8 and --access=column),
#    both the table and --csv: the list-I/O path's results.
#  * The to_csv row of every report run_pipeline returns, printed by
#    das_driver_baseline_dump: the stage-chain path's results.
#
# Invoked as: cmake -DDAS_SIM=<path> -DDUMP=<path> -DBASELINE_DIR=<dir>
#             -P driver_baseline.cmake
foreach(var DAS_SIM DUMP BASELINE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

function(expect_matches name)
  execute_process(COMMAND ${ARGN} OUTPUT_VARIABLE now RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: command failed (exit ${rc}): ${ARGN}")
  endif()
  file(READ ${BASELINE_DIR}/${name} ref)
  if(NOT now STREQUAL ref)
    message(FATAL_ERROR
      "${name} diverged from the committed baseline\n"
      "--- reference (tests/data/driver_baseline/${name}) ---\n${ref}\n"
      "--- current ---\n${now}")
  endif()
  message(STATUS "${name} is byte-identical to the baseline")
endfunction()

set(matrix --scheme=all --kernel=all --gib=1 --nodes=8)
expect_matches(list_strided8.txt ${DAS_SIM} ${matrix} --access=strided:8)
expect_matches(list_strided8.csv ${DAS_SIM} ${matrix} --access=strided:8 --csv)
expect_matches(list_column.txt ${DAS_SIM} ${matrix} --access=column)
expect_matches(list_column.csv ${DAS_SIM} ${matrix} --access=column --csv)
expect_matches(pipeline.csv ${DUMP})
