# bench_e2e_smoke: every workload of BENCHMARK.json at toy size, untraced
# and traced. Each run must pass every correctness check and emit every
# end-to-end (untraced) or per-layer (traced) metric with its unit.
#
#   cmake -DBENCH=<mlpart_benchmark> -DSERVE=<mlpart_serve> -DSPEC=<BENCHMARK.json>
#         -DWORK=<scratch dir> -P smoke.cmake
cmake_minimum_required(VERSION 3.19) # string(JSON)

file(READ "${SPEC}" spec)
string(JSON nworkloads LENGTH "${spec}" workloads)
math(EXPR lastw "${nworkloads} - 1")
foreach(wi RANGE ${lastw})
  string(JSON workload GET "${spec}" workloads ${wi} name)
  foreach(trace 0 1)
    set(dir "${WORK}/${workload}-${trace}")
    file(REMOVE_RECURSE "${dir}")
    execute_process(
      COMMAND "${BENCH}" --workload ${workload} --seed 1 --seconds 2 --trace ${trace}
              --scale 0.05 --starts 2 --rate 20 --work-dir "${dir}" --serve-bin "${SERVE}"
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${workload} trace=${trace}: exit ${rc}\n${out}\n${err}")
    endif()
    string(STRIP "${out}" out)
    string(REGEX MATCH "[^\n]*$" result "${out}")
    string(JSON correct GET "${result}" correct)
    if(NOT correct)
      message(FATAL_ERROR "${workload} trace=${trace}: correctness checks failed\n${out}")
    endif()
    if(trace)
      set(kind per_layer)
    else()
      set(kind end_to_end)
    endif()
    string(JSON nmetrics LENGTH "${spec}" ${kind})
    math(EXPR lastm "${nmetrics} - 1")
    foreach(mi RANGE ${lastm})
      string(JSON name GET "${spec}" ${kind} ${mi} name)
      string(JSON unit GET "${spec}" ${kind} ${mi} unit)
      string(JSON got ERROR_VARIABLE missing GET "${result}" metrics ${name} unit)
      if(missing)
        message(FATAL_ERROR "${workload} trace=${trace}: metric ${name} not emitted\n${result}")
      endif()
      if(NOT got STREQUAL unit)
        message(FATAL_ERROR "${workload} trace=${trace}: ${name} in '${got}', want '${unit}'")
      endif()
    endforeach()
    string(JSON emitted LENGTH "${result}" metrics)
    if(NOT emitted EQUAL nmetrics)
      message(FATAL_ERROR "${workload} trace=${trace}: ${emitted} metrics emitted, ${nmetrics} declared")
    endif()
    message(STATUS "${workload} trace=${trace}: ${nmetrics} metrics, checks passed")
  endforeach()
endforeach()
