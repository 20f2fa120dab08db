# The self-test's negative case: with every oracle corrupted, each
# workload must report failed operations and servebench must exit
# non-zero. Run as
#   cmake -DSERVEBENCH=... -DTEADBT=... -DWORK=... -P expect_failure.cmake
execute_process(
    COMMAND ${SERVEBENCH} --self-test --corrupt-oracle
            --teadbt ${TEADBT} --work ${WORK}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}")
if(rc EQUAL 0)
    message(FATAL_ERROR "corrupted oracles passed: exit code 0")
endif()
foreach(w replay-bulk replay-fleet record-mixed)
    if(NOT out MATCHES "selftest ${w}: attempted [1-9][0-9]* failed [1-9]")
        message(FATAL_ERROR "${w}: corrupted oracle not reported as failed")
    endif()
endforeach()
if(NOT out MATCHES "\"correct\": false")
    message(FATAL_ERROR "result line does not say correct: false")
endif()
