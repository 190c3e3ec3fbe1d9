# Byte-compares what a deterministic binary writes with a reference copy.
# Run by ctest in two modes:
#
# Golden (label `golden`, see bench/CMakeLists.txt): regenerate one bench
# golden and compare it with the committed copy.
#
#   cmake -DBENCH=<bench binary> -DOUT=<fresh json> -DGOLDEN=<committed json>
#         -P golden_check.cmake
#
# Determinism (label `determinism`, see tools/CMakeLists.txt): run one
# command twice, each time in its own empty directory under DIR, and compare
# every file the second run wrote with the first run's.
#
#   cmake "-DCMD=<binary>;<arg>;..." -DDIR=<scratch dir> -P golden_check.cmake

# Runs ARGN in `dir`; a non-zero exit fails the check with the run's log.
function(run_checked dir)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY ${dir}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE log
                  ERROR_VARIABLE log)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${ARGV1} exited with ${rc}:\n${log}")
  endif()
endfunction()

# Fails the check unless `fresh` is byte-identical to `reference`; ARGN is
# the advice printed on a mismatch.
function(require_identical fresh reference)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${fresh} ${reference}
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR
      "${fresh} is not byte-identical to ${reference}.\n" ${ARGN})
  endif()
endfunction()

if(DEFINED CMD)
  if(NOT DEFINED DIR)
    message(FATAL_ERROR "golden_check: DIR is not set")
  endif()
  foreach(run run1 run2)
    file(REMOVE_RECURSE ${DIR}/${run})
    file(MAKE_DIRECTORY ${DIR}/${run})
    run_checked(${DIR}/${run} ${CMD})
    file(GLOB ${run}_files RELATIVE ${DIR}/${run} ${DIR}/${run}/*)
  endforeach()
  if(NOT run1_files OR NOT run1_files STREQUAL run2_files)
    message(FATAL_ERROR "the two runs wrote different file sets: "
                        "[${run1_files}] vs [${run2_files}]")
  endif()
  foreach(file ${run1_files})
    require_identical(${DIR}/run2/${file} ${DIR}/run1/${file}
      "Two runs of `${CMD}` diverged: something in the run depends on "
      "more than its seed (wall clock, unseeded RNG, state kept between "
      "runs).")
  endforeach()
  return()
endif()

foreach(var BENCH OUT GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: ${var} is not set")
  endif()
endforeach()

file(REMOVE ${OUT})
run_checked(${CMAKE_CURRENT_BINARY_DIR} ${BENCH} ${OUT})
require_identical(${OUT} ${GOLDEN}
  "If the change in behaviour is intended, rewrite the committed goldens "
  "with `cmake --build <build> --target update_goldens` and review "
  "`git diff BENCH_*.json` before committing.")
