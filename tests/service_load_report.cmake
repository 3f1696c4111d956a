# Runs the service_load bench with a run-report sink and checks that the
# report written after the AdvisorService is destroyed still carries the
# per-layer counts of the engines and learners it served with.
#
#   cmake -DSERVICE_LOAD=<binary> -DREPORT=<path> -P service_load_report.cmake
file(REMOVE "${REPORT}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env QO_METRICS=1 "QO_OBS_REPORT=${REPORT}"
          QO_OBS_LABEL=service_load "${SERVICE_LOAD}" 4 400
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "service_load exited with ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "determinism: OK")
  message(FATAL_ERROR "service_load did not print 'determinism: OK'\n${out}")
endif()
file(READ "${REPORT}" report)
foreach(series
    optimizer.memo.full_hits optimizer.memo.norm_hits optimizer.memo.misses
    cache.front_end.misses bandit.ranks
    service.rank_requests)
  string(REGEX MATCH "\"${series}\":[1-9]" found "${report}")
  if(NOT found)
    message(FATAL_ERROR "run report lacks a non-zero ${series}:\n${report}")
  endif()
endforeach()
