# Runs EXAMPLE and fails unless its stdout is GOLDEN byte for byte. The
# fresh output is left at ACTUAL, so a failure reads with
# `diff GOLDEN ACTUAL`. Registered per example by CMakeLists.txt.
execute_process(COMMAND "${EXAMPLE}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
                        "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout differs from the golden file: "
                      "diff ${GOLDEN} ${ACTUAL}")
endif()
