# Runs one CLI invocation and requires the usage-error contract: exit
# status 2 and a diagnostic matching REGEX on stderr. ctest's
# PASS_REGULAR_EXPRESSION alone ignores the exit status, so a tool that
# printed the right words and then ran anyway (or crashed) would pass.
#
#   cmake -DREGEX=<regex> -P expect_usage_error.cmake -- <tool> <args>...
#
# A gate failure that is not a usage error is checked the same way with
# -DSTATUS=<exit status> and -DSTREAM=stdout (the stream REGEX must
# match; stderr by default).

if(NOT DEFINED REGEX)
    message(FATAL_ERROR "expect_usage_error: pass -DREGEX=<regex>")
endif()
if(NOT DEFINED STATUS)
    set(STATUS 2)
endif()
if(NOT DEFINED STREAM)
    set(STREAM stderr)
endif()
if(NOT STREAM MATCHES "^(stdout|stderr)$")
    message(FATAL_ERROR "expect_usage_error: STREAM is stdout or stderr")
endif()

set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_separator)
        # A ';' would split the argument when the list is expanded.
        if("${CMAKE_ARGV${i}}" MATCHES ";")
            message(FATAL_ERROR "expect_usage_error: ';' in an argument")
        endif()
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(after_separator TRUE)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "expect_usage_error: no command after --")
endif()

# A parse error exits at once; the timeout only bounds a tool that
# wrongly accepted its input and started simulating.
execute_process(COMMAND ${cmd}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)

if(NOT status STREQUAL "${STATUS}")
    message(FATAL_ERROR "expected exit status ${STATUS}, got '${status}'\n"
                        "command: ${cmd}\nstderr:\n${err}")
endif()
if(STREAM STREQUAL "stdout")
    set(text "${out}")
else()
    set(text "${err}")
endif()
if(NOT text MATCHES "${REGEX}")
    message(FATAL_ERROR "${STREAM} does not match '${REGEX}'\n"
                        "command: ${cmd}\n${STREAM}:\n${text}")
endif()
