# Golden-output driver: runs one row of the golden manifest
# (tests/golden/CMakeLists.txt) and compares its stdout and the files it
# writes with the committed references in tests/golden/, byte for byte.
#
# Invoked as:
#   cmake -DGOLDEN=<tests/golden> -DWORK=<row directory> -P golden.cmake --
#         STDOUT|MASKED <ref> [DIFFERS <ref>] [FILES <file>...]
#         [CATEGORIES <cat>...] [DIAG <file>] RUN <argv>...
#
#   STDOUT <ref>   stdout must equal <ref>.
#   MASKED <ref>   the same, with the session column (the `,<hex>` that ends
#                  a line) masked on both sides.
#   DIFFERS <ref>  stdout must differ from <ref>.
#   FILES          files the argv writes, each pinned by the reference of the
#                  same name. A `*.trace.json` runs to megabytes and is pinned
#                  by its SHA-256 in `<file>.sha256`; as a digest cannot be
#                  read, the trace must also parse as a Chrome trace whose
#                  events cover each of CATEGORIES.
#   DIAG <file>    a --diag sidecar. It holds host wall seconds and so cannot
#                  be pinned: it must name sim_events and a session that a
#                  pinned output of the row names too.
#
# The argv runs in a fresh WORK directory and must exit 0. A mismatch prints
# the first differing line and both line counts, leaves the current bytes in
# WORK, and prints the `cp` that would re-baseline the reference, so a
# re-baseline is reviewed as the reference's diff.
cmake_minimum_required(VERSION 3.20)

set(args "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
cmake_parse_arguments(ROW "" "STDOUT;MASKED;DIFFERS;DIAG"
                      "FILES;CATEGORIES;RUN" ${args})
set(stdout_ref ${ROW_STDOUT} ${ROW_MASKED})
list(LENGTH stdout_ref modes)
if(ROW_UNPARSED_ARGUMENTS OR NOT ROW_RUN OR NOT modes EQUAL 1 OR
   NOT DEFINED GOLDEN OR NOT DEFINED WORK)
  message(FATAL_ERROR "usage: see the header of ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
execute_process(COMMAND ${ROW_RUN} WORKING_DIRECTORY ${WORK}
                OUTPUT_FILE ${WORK}/stdout RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit ${rc}: ${ROW_RUN}")
endif()

set(failures "")
set(pinned ${WORK}/stdout)

# Sets `out_var` to where the strings `now` and `ref` first differ.
function(first_difference now ref out_var)
  string(LENGTH "${now}" lo)
  string(LENGTH "${ref}" hi)
  if(hi LESS lo)
    set(lo ${hi})
  endif()
  set(hi ${lo})
  set(lo 0)
  while(lo LESS hi)  # bisect the length of the common prefix
    math(EXPR mid "(${lo} + ${hi} + 1) / 2")
    string(SUBSTRING "${now}" 0 ${mid} a)
    string(SUBSTRING "${ref}" 0 ${mid} b)
    if("${a}" STREQUAL "${b}")
      set(lo ${mid})
    else()
      math(EXPR hi "${mid} - 1")
    endif()
  endwhile()
  string(SUBSTRING "${now}" 0 ${lo} prefix)
  string(REGEX MATCHALL "\n" breaks "${prefix}")
  list(LENGTH breaks line)
  math(EXPR line "${line} + 1")
  string(FIND "${prefix}" "\n" start REVERSE)
  math(EXPR start "${start} + 1")
  set(text "line ${line}")
  foreach(side now ref)
    string(SUBSTRING "${${side}}" ${start} -1 rest)
    string(FIND "${rest}" "\n" end)
    string(SUBSTRING "${rest}" 0 ${end} rest)
    string(REGEX MATCHALL "\n" lines "${${side}}")
    list(LENGTH lines lines)
    string(APPEND text "\n    ${side} (${lines} lines): ${rest}")
  endforeach()
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# Appends to `failures` unless the file `now` equals the reference `ref`;
# a row with `mask` set compares both with the session column masked.
function(expect_equal now ref mask)
  set(golden_ref ${GOLDEN}/${ref})
  set(cp "    re-baseline: cp ${now} ${golden_ref}\n")
  if(NOT EXISTS ${golden_ref})
    string(APPEND failures "${ref}: no committed reference\n${cp}")
  else()
    file(READ ${now} now_text)
    file(READ ${golden_ref} ref_text)
    if(mask)
      string(REGEX REPLACE ",[0-9a-f]+\n" ",SESSION\n" now_text "${now_text}")
      string(REGEX REPLACE ",[0-9a-f]+\n" ",SESSION\n" ref_text "${ref_text}")
      set(cp "    re-baseline ${ref} from its unmasked rows\n")
    endif()
    if("${now_text}" STREQUAL "${ref_text}")
      return()
    endif()
    first_difference("${now_text}" "${ref_text}" where)
    string(APPEND failures "${ref} differs at ${where}\n${cp}")
  endif()
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

# Appends to `failures` unless `path` is a Chrome trace with events of each
# of CATEGORIES.
function(expect_trace_shape path)
  file(READ ${path} json)
  string(JSON first ERROR_VARIABLE error GET "${json}" traceEvents 0)
  if(error)
    string(APPEND failures "${path}: no JSON traceEvents[0] (${error})\n")
  else()
    string(JSON ph ERROR_VARIABLE ph_error GET "${first}" ph)
    string(JSON pid ERROR_VARIABLE pid_error GET "${first}" pid)
    if(ph_error OR pid_error)
      string(APPEND failures "${path}: event 0 lacks ph or pid: ${first}\n")
    endif()
    foreach(category IN LISTS ROW_CATEGORIES)
      string(FIND "${json}" "\"cat\":\"${category}\"" at)
      if(at EQUAL -1)
        string(APPEND failures "${path}: no event of category ${category}\n")
      endif()
    endforeach()
  endif()
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

expect_equal(${WORK}/stdout ${stdout_ref} "${ROW_MASKED}")

if(ROW_DIFFERS)
  file(SHA256 ${WORK}/stdout now_sum)
  file(SHA256 ${GOLDEN}/${ROW_DIFFERS} ref_sum)
  if(now_sum STREQUAL ref_sum)
    string(APPEND failures "stdout equals ${ROW_DIFFERS}, which it must not\n")
  endif()
endif()

foreach(file IN LISTS ROW_FILES)
  set(now ${WORK}/${file})
  list(APPEND pinned ${now})
  if(NOT EXISTS ${now})
    string(APPEND failures "${file} was not written\n")
  elseif(file MATCHES "\\.trace\\.json$")
    expect_trace_shape(${now})
    file(SHA256 ${now} sum)
    file(WRITE ${now}.sha256 "${sum}  ${file}\n")
    expect_equal(${now}.sha256 ${file}.sha256 "")
  else()
    expect_equal(${now} ${file} "")
  endif()
endforeach()

if(ROW_DIAG)
  file(READ ${WORK}/${ROW_DIAG} diag)
  string(REGEX MATCH "\"session\": \"([0-9a-f]+)\"" session "${diag}")
  set(session "${CMAKE_MATCH_1}")
  set(found FALSE)
  foreach(path IN LISTS pinned)
    file(READ ${path} text)
    string(FIND "${text}" "${session}" at)
    if(NOT session STREQUAL "" AND NOT at EQUAL -1)
      set(found TRUE)
    endif()
  endforeach()
  if(NOT diag MATCHES "\"sim_events\"" OR NOT found)
    string(APPEND failures "${ROW_DIAG} lacks sim_events, or its session "
           "'${session}' is in no pinned output of the row:\n${diag}\n")
  endif()
endif()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "golden row failed:\n${failures}")
endif()
