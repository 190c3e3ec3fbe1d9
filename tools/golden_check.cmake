# Regenerates one deterministic bench golden and byte-compares it with the
# committed copy. Run by ctest (label `golden`); see bench/CMakeLists.txt.
#
#   cmake -DBENCH=<bench binary> -DOUT=<fresh json> -DGOLDEN=<committed json>
#         -P golden_check.cmake
foreach(var BENCH OUT GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: ${var} is not set")
  endif()
endforeach()

file(REMOVE ${OUT})
execute_process(COMMAND ${BENCH} ${OUT}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE log
                ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${log}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
    "${OUT} is not byte-identical to ${GOLDEN}.\n"
    "If the change in behaviour is intended, rewrite the committed goldens "
    "with `cmake --build <build> --target update_goldens` and review "
    "`git diff BENCH_*.json` before committing.")
endif()
