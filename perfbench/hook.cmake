# Build file of the benchmark driver.  run.py passes it to the repository's
# CMake configure as CMAKE_PROJECT_unprotected_INCLUDE, so it runs right
# after the repository's project() call; the driver target itself is
# deferred to the end of the top-level directory, once the repository's
# library targets exist.  The driver links the same libraries as
# unp_report, unp_query and unp_serve so it can make their public calls,
# and the repository's own build files stay untouched.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_driver)
  add_executable(perfbench_driver ${PERFBENCH_DIR}/driver.cpp)
  target_link_libraries(perfbench_driver PRIVATE unp_bench_util unp::serve
                                                 unp_warnings)
  target_include_directories(perfbench_driver PRIVATE
    ${CMAKE_SOURCE_DIR}/src ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(perfbench_driver PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL perfbench_add_driver)
