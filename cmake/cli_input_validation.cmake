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

# Rows: "<scheme>|<flags, space-separated>|<text stderr must contain>".
# --tenants=2 rows run traffic mode (src/traffic/), which checks its own
# options before building anything. A "-" scheme runs the flags alone,
# without the base flags.
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
  "TS|--disk-mibps=0|set by --disk-mibps"
  "TS|--stragglers=5|cluster.straggler_count=5 (must be <= 4, the storage node count), set by --stragglers"
  "TS|--stragglers=1 --slowdown=0|cluster.straggler_slowdown=0 (must be >= 1), set by --slowdown"
  "TS|--group=0|--group=0: must be >= 1"
  "TS|--budget-pct=-5|--budget-pct=-5: must be >= 0 (0 sets no capacity bound)"
  "TS|--tenants=0|--tenants=0: must be >= 1"
  "TS|--tenants=2 --replicas=0|--replicas=0: must be >= 1"
  "TS|--tenants=2 --stragglers=5|cluster.straggler_count=5 (must be <= 4, the storage node count), set by --stragglers"
  "TS|--tenants=2 --stragglers=1 --slowdown=0|cluster.straggler_slowdown=0 (must be >= 1), set by --slowdown"
  "TS|--tenants=2 --arrival-rate=0|arrivals.rate_hz=0 (must be > 0), set by --arrival-rate"
  "TS|--tenants=2 --job-mib=0|arrivals.job_bytes=0 (must be > 0), set by --job-mib"
  "TS|--tenants=2 --datasets=0|arrivals.datasets=0 (must be > 0), set by --datasets"
  "TS|--tenants=2 --job-mib=2048|arrivals.job_bytes=2147483648 (must be <= 1073741824, one dataset's bytes), set by --job-mib"
  "TS|--tenants=2 --fair-queue=on --weights=0,0|weights=0 (must be > 0), set by --weights"
  "TS|--tenants=2 --weights=abc|--weights=abc: must be comma-separated numbers"
  # Numbers are whole tokens: a prefix never runs, and nothing wraps.
  "TS|--gib=1x|--gib=1x: expects an integer"
  "TS|--gib=abc|--gib=abc: expects an integer"
  "TS|--nodes=8.9|--nodes=8.9: expects an integer"
  "TS|--nic-mibps=110.9|--nic-mibps=110.9: expects an integer"
  "TS|--migrate=on --migrate-threshold=1x|--migrate-threshold=1x: expects a number"
  "TS|--stragglers=1 --slowdown=2x|--slowdown=2x: expects a number"
  "TS|--tenants=2 --arrival-rate=abc|--arrival-rate=abc: expects a number"
  "TS|--gib=17179869185|--gib=17179869185: must be <= 17179869183"
  "TS|--strip-kib=18014398509481984|--strip-kib=18014398509481984: must be <="
  "TS|--cache-mib=17592186044416|--cache-mib=17592186044416: must be <="
  "TS|--tenants=2 --job-mib=17592186044416|--job-mib=17592186044416: must be <="
  "TS|--tenants=2 --admission-mib=17592186044416|--admission-mib=17592186044416: must be <="
  "TS|--nodes=4294967304|--nodes=4294967304: must be <= 4294967295"
  "TS|--tenants=4294967296|--tenants=4294967296: must be <= 4294967295"
  "TS|--tenants=2 --replicas=4294967297|--replicas=4294967297: must be <= 4294967295"
  "TS|--span-sample=0|--span-sample=0: must be >= 1"
  "TS|--access=strided:-3|--access=strided:K needs 1 <= K <= 4294967295"
  "TS|--access=strided:4294967297|--access=strided:K needs 1 <= K <= 4294967295"
  # --figure runs the experiment registry, which takes --jobs only.
  "-|--figure=nope|want all or one of: table1 fig10"
  "-|--figure=fig11 --gib=8|unknown flags: gib")

set(failures "")
foreach(row IN LISTS cases)
  string(REPLACE "|" ";" fields "${row}")
  list(GET fields 0 scheme)
  list(GET fields 1 flags)
  list(GET fields 2 expected)
  separate_arguments(flag_args UNIX_COMMAND "${flags}")
  set(run_args --scheme=${scheme} ${base})
  if(scheme STREQUAL "-")
    set(run_args "")
  endif()
  execute_process(
    COMMAND ${DAS_SIM} ${run_args} ${flag_args}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 60)
  string(FIND "${err}" "${expected}" at)
  if(NOT rc STREQUAL "2" OR at EQUAL -1)
    string(APPEND failures
      "  --scheme=${scheme} ${flags}: exit ${rc}, stderr: ${err}\n")
  else()
    message(STATUS "${flags}: exit 2, names ${expected}")
  endif()
endforeach()

# A fractional --slowdown is a real straggler, not the integer it starts
# with: it must change the result.
set(straggler --scheme=DAS ${base} --csv)
execute_process(COMMAND ${DAS_SIM} ${straggler}
  OUTPUT_VARIABLE plain RESULT_VARIABLE plain_rc)
execute_process(COMMAND ${DAS_SIM} ${straggler} --stragglers=1 --slowdown=1.5
  OUTPUT_VARIABLE slowed RESULT_VARIABLE slowed_rc)
if(NOT plain_rc EQUAL 0 OR NOT slowed_rc EQUAL 0 OR plain STREQUAL slowed)
  string(APPEND failures
    "  --stragglers=1 --slowdown=1.5 (exit ${slowed_rc}) did not change the "
    "DAS run (exit ${plain_rc})\n")
else()
  message(STATUS "--slowdown=1.5 slows one server")
endif()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR
    "inputs not rejected with exit 2 naming the flag:\n${failures}")
endif()
