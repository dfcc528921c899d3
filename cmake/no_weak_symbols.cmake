# Weak-symbol gate for the AVX2 object: it must define no weak symbols
# (nm class W or V). A weak (COMDAT) symbol such as an instantiated
# std::min<float> is emitted by every TU that uses it, and the linker keeps
# one copy for all callers. If it kept the copy built with -mavx2, callers
# on a CPU without AVX2 would fault with SIGILL.
#
# Invoked as: cmake -DNM=<path to nm> -DOBJECTS=<object files> \
#                   -P no_weak_symbols.cmake
if(NOT DEFINED NM OR NOT DEFINED OBJECTS)
  message(FATAL_ERROR "pass -DNM=<path to nm> -DOBJECTS=<object files>")
endif()

set(weak "")
foreach(object IN LISTS OBJECTS)
  execute_process(
    COMMAND ${NM} -C ${object}
    OUTPUT_VARIABLE symbols
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${object}")
  endif()
  string(REPLACE "\n" ";" lines "${symbols}")
  foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-fA-F]+ [WV] ")
      string(APPEND weak "  ${object}: ${line}\n")
    endif()
  endforeach()
  message(STATUS "${object}: checked")
endforeach()

if(NOT weak STREQUAL "")
  message(FATAL_ERROR "weak symbols in the AVX2 object:\n${weak}")
endif()
