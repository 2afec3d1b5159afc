# Runs hpac_explore with malformed arguments and requires each to be a
# usage error (exit 2, usage text on stderr) rather than a run: a
# non-numeric, zero or negative --ipt, and the retired --perfo flag.
#
#   cmake -DEXPLORE=<hpac_explore> -P explore_usage_errors.cmake
foreach(arg IN ITEMS --ipt=abc --ipt=0 --ipt=-3 "--perfo=perfo(small:2)")
  execute_process(
    COMMAND "${EXPLORE}" --benchmark=lavamd "--clause=perfo(small:2)" "${arg}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: ")
    message(FATAL_ERROR "hpac_explore ${arg}: expected exit 2 with usage, got ${rc}:\n${out}${err}")
  endif()
endforeach()
