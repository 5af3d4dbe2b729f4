# Runs one example binary and fails unless it exits 0 and, when EXPECT
# is non-empty, its stdout contains EXPECT.
#
#   cmake -DEXAMPLE=path/to/binary [-DEXPECT=text] -P smoke_test.cmake
execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
if(EXPECT)
  string(FIND "${out}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${EXAMPLE} output lacks '${EXPECT}':\n${out}")
  endif()
endif()
