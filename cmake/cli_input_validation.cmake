# CLI input-validation gate: every degenerate input below once crashed
# das_sim (SIGABRT in a library DAS_REQUIRE, SIGFPE, SIGSEGV) or was
# silently accepted. Each must now exit 2 and name the offending flag on
# stderr (values the run driver's validate() rejects are reported by run
# option, followed by the flag that set it).
#
# Invoked as: cmake -DDAS_SIM=<path> -P cli_input_validation.cmake
if(NOT DEFINED DAS_SIM)
  message(FATAL_ERROR "pass -DDAS_SIM=<path to das_sim>")
endif()

set(base --kernel=gaussian-2d --gib=1 --nodes=8)

# Rows: "<scheme>|<flag>|<text stderr must contain>".
set(cases
  "TS|--nodes=1|--nodes=1"
  "TS|--nodes=3|--nodes=3"
  "TS|--gib=0|workload.data_bytes=0 (must be > 0), set by --gib"
  "TS|--nic-mibps=0|set by --nic-mibps"
  "TS|--window=0|set by --window"
  "TS|--repeats=0|repeat_count=0 (must be > 0), set by --repeats"
  "DAS|--pipeline=0|set by --pipeline"
  "TS|--strip-kib=0|--strip-kib=0"
  "TS|--trials=0|--trials=0"
  "TS|--cache-mib=-5|--cache-mib=-5"
  "TS|--disk-mibps=0|set by --disk-mibps")

set(failures "")
foreach(row IN LISTS cases)
  string(REPLACE "|" ";" fields "${row}")
  list(GET fields 0 scheme)
  list(GET fields 1 flag)
  list(GET fields 2 expected)
  execute_process(
    COMMAND ${DAS_SIM} --scheme=${scheme} ${base} ${flag}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 60)
  string(FIND "${err}" "${expected}" at)
  if(NOT rc STREQUAL "2" OR at EQUAL -1)
    string(APPEND failures
      "  --scheme=${scheme} ${flag}: exit ${rc}, stderr: ${err}\n")
  else()
    message(STATUS "${flag}: exit 2, names ${expected}")
  endif()
endforeach()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR
    "inputs not rejected with exit 2 naming the flag:\n${failures}")
endif()
