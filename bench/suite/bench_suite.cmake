# The repository benchmark's targets and tests, added to the repository's
# own CMake project without a line in its build files:
#
#   cmake -S . -B .bench_build \
#         -DCMAKE_PROJECT_dbtf_INCLUDE=$PWD/bench/suite/bench_suite.cmake
#   cmake --build .bench_build --target dbtf_bench bench_trace_test -j4
#   ctest --test-dir .bench_build -L bench
#
# run.py configures and builds the tree on first use. CMake includes this
# file at the top-level project(dbtf) call, before anything is defined; the
# deferred call defines the targets once the top-level CMakeLists.txt has
# finished, so they inherit its C++ standard, build type, compile options,
# include path and test packages.
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "the benchmark needs CMake 3.19 or newer")
endif()
set(DBTF_BENCH_SUITE_DIR ${CMAKE_CURRENT_LIST_DIR})

function(dbtf_bench_suite_targets)
  set(dir ${DBTF_BENCH_SUITE_DIR})
  # Executables land in <build>/bench/, beside the repository's benches, and
  # the worker daemon in <build>/tools/ (its own target property): the
  # layout WorkerBinaryFromBuildTree() expects.
  set(CMAKE_RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

  add_library(dbtf_bench_suite STATIC
    ${dir}/stats.cc ${dir}/trace.cc ${dir}/suite.cc)
  target_include_directories(dbtf_bench_suite PUBLIC ${dir})
  target_link_libraries(dbtf_bench_suite PUBLIC dbtf_dist dbtf_common)

  add_executable(dbtf_bench
    ${dir}/dbtf_bench.cc ${dir}/factorize.cc ${dir}/serve.cc)
  target_link_libraries(dbtf_bench PRIVATE
    dbtf_bench_suite dbtf_serve dbtf_core dbtf_generator Threads::Threads)
  add_dependencies(dbtf_bench dbtf_worker)

  add_executable(bench_trace_test ${dir}/trace_test.cc)
  target_link_libraries(bench_trace_test PRIVATE
    dbtf_bench_suite GTest::gtest GTest::gtest_main Threads::Threads)
  add_test(NAME bench_trace_test COMMAND bench_trace_test)

  find_package(Python3 REQUIRED COMPONENTS Interpreter)
  add_test(NAME bench_compare_test
    COMMAND ${Python3_EXECUTABLE} ${dir}/compare_test.py)
  # Every workload, untraced and traced, on small inputs with 1 s phases:
  # every correctness check must pass and every metric must be reported
  # with its unit. Asserts no timings.
  add_test(NAME dbtf_bench_smoke
    COMMAND ${Python3_EXECUTABLE} ${dir}/run.py
            --smoke --build ${CMAKE_BINARY_DIR})
  set_tests_properties(bench_trace_test bench_compare_test dbtf_bench_smoke
                       PROPERTIES LABELS bench)
  set_tests_properties(dbtf_bench_smoke PROPERTIES TIMEOUT 600)
endfunction()

cmake_language(DEFER CALL dbtf_bench_suite_targets)
