# Usage-path smoke test for the teadbt CLI, run via
#   cmake -DTEADBT=<path> -P check_usage.cmake
#
# Every case below is an invalid invocation: it must exit nonzero and
# print the usage text to stderr. A case that "succeeds", crashes, or
# stays silent fails the test.

if(NOT TEADBT)
    message(FATAL_ERROR "pass -DTEADBT=<path to teadbt>")
endif()

# Each entry is a |-separated argv; NONE means "no arguments at all".
set(cases
    "NONE"                    # no subcommand
    "frobnicate"              # unknown subcommand
    "run"                     # missing <prog>
    "disasm"
    "record"
    "replay|syn.mcf"          # missing --traces
    "translate"
    "simulate"
    "info"                    # missing --traces/--tea
    "dot"
    "record-log|syn.mcf"      # missing --log
    "record-log"
    "record-log|syn.mcf|--log|o.tlog|--teac|o.teac" # --teac needs --elide
    "log-info"                # missing <file.tlog>
    "log-info|a.tlog|b.tlog"  # excess positional
    "batch-replay"            # missing <tea> <log>...
    "batch-replay|only.tea"   # missing logs
    "batch-replay|--jobs|0|a.tea|b.tlog" # bad worker count
    "compile"                 # missing <tea> and --out
    "compile|a.tea"           # missing --out
    "compile|--out|dir"       # missing <tea> inputs
    "inspect"                 # missing <file.teac>
    "serve"                   # missing --listen
    "serve|--listen|tcp:127.0.0.1:0|--store" # flag without a value
    "serve|--listen|tcp:127.0.0.1:0|--max-resident-bytes|-1" # bad budget
    "serve|--listen|tcp:127.0.0.1:0|--max-resident|-1" # bad budget
    "serve|--listen"          # flag without a value
    "serve|--listen|tcp:127.0.0.1:0|--max-queue|0" # bad queue bound
    "serve|--listen|tcp:127.0.0.1:0|not-a-preload" # want name=tea
    "serve|--listen|tcp:127.0.0.1:0|--trace-ring|0" # ring needs slots
    "stats"                   # missing --connect
    "stats|--connect|tcp:localhost:9|--watch|0" # bad poll interval
    "serve|--listen|tcp:127.0.0.1:0|--stats-span-limit|0" # need >= 1
    "serve|--listen|tcp:127.0.0.1:0|--history-interval-ms|-1" # negative
    "serve|--listen|tcp:127.0.0.1:0|--history-frames|1" # ring needs 2
    "serve|--listen|tcp:127.0.0.1:0|--flight-dump" # flag without a value
    "serve|--listen|tcp:127.0.0.1:0|--no-global" # lookup flags are per
    "serve|--listen|tcp:127.0.0.1:0|--no-local"  # stream: remote-replay
    "serve|--listen|tcp:127.0.0.1:0|--reference" # sends them
    "flight-dump"             # missing --connect
    "remote-replay"           # missing --connect <name> <log>...
    "remote-replay|--connect|tcp:localhost:9" # missing name and logs
    "remote-replay|--connect|tcp:localhost:9|gzip" # missing logs
    "record|syn.mcf|stray-arg" # local record takes one positional
    "record|--connect|tcp:localhost:9" # missing name and logs
    "record|--connect|tcp:localhost:9|gzip" # missing logs
    "record|--connect|tcp:localhost:9|gzip|--live" # missing <prog>
    "record|--connect|tcp:localhost:9|gzip|a.tlog|--swap-interval|-1"
    "run|syn.mcf|stray-arg"   # excess positional
    "run|--bogus-flag"        # unknown flag
)

foreach(case IN LISTS cases)
    if(case STREQUAL "NONE")
        set(args "")
    else()
        string(REPLACE "|" ";" args "${case}")
    endif()
    execute_process(COMMAND ${TEADBT} ${args}
                    RESULT_VARIABLE rv
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(rv EQUAL 0)
        message(FATAL_ERROR "teadbt ${case}: expected failure, got exit 0")
    endif()
    if(NOT err MATCHES "usage:")
        message(FATAL_ERROR
                "teadbt ${case}: exit ${rv} but no usage on stderr:\n${err}")
    endif()
endforeach()

message(STATUS "all ${CMAKE_ARGC} usage paths exit nonzero with usage")
