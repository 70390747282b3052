# Runs EXE with the space-separated ARGS and passes iff it exits 2 with the
# usage text on stderr: how the command-line tools answer bad input.
#   cmake -DEXE=<binary> "-DARGS=<arg> <arg> ..." -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${EXE} ${ARGS}: expected exit 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${EXE} ${ARGS}: no usage text on stderr\n${err}")
endif()
