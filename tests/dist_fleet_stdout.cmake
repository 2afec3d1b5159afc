# Runs a forked hpac_campaign fleet with its stdout captured through a
# pipe (fully buffered, as under ctest or a shell redirect) and checks the
# summary: exactly one "distributed campaign in ..." banner and one
# "worker ...: N evaluated" line per worker.
#
#   cmake -DCAMPAIGN=<hpac_campaign> -DDIR=<fleet dir> -DWORKERS=<n> -P dist_fleet_stdout.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND "${CAMPAIGN}" --benchmarks=lavamd --devices=v100 --sweep=perfo --ipt=1,8
          "--dist-dir=${DIR}" "--workers=${WORKERS}"
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hpac_campaign exited with ${rc}:\n${out}")
endif()
string(REGEX MATCHALL "distributed campaign in [^\n]*" banners "${out}")
string(REGEX MATCHALL "  worker [^\n]*: [0-9]+ evaluated" workers "${out}")
list(LENGTH banners banner_count)
list(LENGTH workers worker_count)
if(NOT banner_count EQUAL 1 OR NOT worker_count EQUAL WORKERS)
  message(FATAL_ERROR "expected 1 banner and ${WORKERS} worker lines, got "
                      "${banner_count} and ${worker_count}:\n${out}")
endif()
