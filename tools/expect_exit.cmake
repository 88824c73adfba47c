# Runs a command and fails unless it exits with exactly EXPECTED_EXIT.
# WILL_FAIL only checks for "nonzero", so it cannot tell a usage error
# (exit 2) from an internal failure (exit 1). With EXPECTED_STDERR, its
# stderr must also match that regular expression; with UNEXPECTED_STDERR,
# it must not.
#
#   cmake -DEXPECTED_EXIT=2 [-DEXPECTED_STDERR=<regex>]
#         [-DUNEXPECTED_STDERR=<regex>] -P expect_exit.cmake -- <command> [args...]
set(command "")
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECTED_EXIT}, got '${rc}' from: ${command}\n${err}")
endif()
if(DEFINED EXPECTED_STDERR AND NOT "${err}" MATCHES "${EXPECTED_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECTED_STDERR}' from: ${command}\n${err}")
endif()
if(DEFINED UNEXPECTED_STDERR AND "${err}" MATCHES "${UNEXPECTED_STDERR}")
  message(FATAL_ERROR "stderr matches '${UNEXPECTED_STDERR}' from: ${command}\n${err}")
endif()
