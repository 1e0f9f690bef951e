# Golden check for one deterministic bench: runs BENCH with --json, zeroes
# every row's wall_ns (the one field that depends on the host), writes the
# result to REPORT and fails unless it equals GOLDEN byte for byte, counters
# included, so a figure that moves in either direction fails.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<golden.json> -DREPORT=<out.json> \
#         -P check_golden.cmake
#
# REPORT is written whether or not the check passes; copying it over GOLDEN
# accepts an intended change.
execute_process(COMMAND ${BENCH} --json ${REPORT}
                RESULT_VARIABLE status OUTPUT_VARIABLE log ERROR_VARIABLE log)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}:\n${log}")
endif()
file(READ ${REPORT} report)
string(REGEX REPLACE "\"wall_ns\": [^,\n]+" "\"wall_ns\": 0" report "${report}")
file(WRITE ${REPORT} "${report}")
file(READ ${GOLDEN} golden)
if(NOT report STREQUAL golden)
  message(FATAL_ERROR "the bench report differs from its golden\n"
          "  review: diff -u ${GOLDEN} ${REPORT}\n"
          "  accept an intended change: cp ${REPORT} ${GOLDEN}")
endif()
