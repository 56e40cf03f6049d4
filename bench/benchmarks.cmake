# --- Benchmark build-configuration guard.
#
# BENCH_pr*.json artifacts are only comparable when both the repo code and
# the google-benchmark library it links were built with optimizations:
# BENCH_pr6.json silently recorded "library_build_type": "debug" because
# the distro's libbenchmark is a debug build, and nothing flagged it. The
# guard (a) rejects unoptimized repo build types for meaningful numbers,
# (b) probes the *library's* own build type by running a trivial benchmark
# in JSON mode at configure time (the value is baked into the library's
# reporter; the imported target does not expose it), and (c) compiles the
# findings into bench_perf_micro so every JSON artifact carries an honest
# benchmark_library_build_type context line plus a loud stderr warning.
# Configuration only *fails* under -DKSYM_REQUIRE_RELEASE_BENCH=ON — the
# default keeps `cmake -B build -S .` working on machines (like this one)
# whose packaged libbenchmark cannot be rebuilt.
option(KSYM_REQUIRE_RELEASE_BENCH
  "Fail configuration unless benchmarks get optimized code and a release google-benchmark"
  OFF)

if(CMAKE_BUILD_TYPE MATCHES "^(Release|RelWithDebInfo|MinSizeRel)$")
  set(KSYM_BENCH_CODE_OPTIMIZED TRUE)
else()
  set(KSYM_BENCH_CODE_OPTIMIZED FALSE)
  message(WARNING
    "CMAKE_BUILD_TYPE=${CMAKE_BUILD_TYPE}: benchmark binaries will be "
    "UNOPTIMIZED — BENCH_pr*.json numbers from this tree are not "
    "comparable. Configure with -DCMAKE_BUILD_TYPE=Release before "
    "recording artifacts.")
endif()

if(NOT DEFINED KSYM_BENCHMARK_LIB_BUILD_TYPE)
  try_run(_ksym_bench_probe_ran _ksym_bench_probe_compiled
    ${CMAKE_BINARY_DIR}/benchmark_probe
    ${CMAKE_CURRENT_LIST_DIR}/benchmark_build_type_probe.cc
    LINK_LIBRARIES benchmark::benchmark Threads::Threads
    RUN_OUTPUT_VARIABLE _ksym_bench_probe_out
    ARGS --benchmark_format=json)
  if(NOT _ksym_bench_probe_compiled)
    set(_ksym_lib_build_type "unknown")
  elseif(_ksym_bench_probe_out MATCHES "\"library_build_type\": \"([a-z]+)\"")
    set(_ksym_lib_build_type "${CMAKE_MATCH_1}")
  else()
    set(_ksym_lib_build_type "unknown")
  endif()
  set(KSYM_BENCHMARK_LIB_BUILD_TYPE "${_ksym_lib_build_type}" CACHE STRING
    "google-benchmark library's self-reported build type (configure-time probe)")
endif()
if(NOT KSYM_BENCHMARK_LIB_BUILD_TYPE STREQUAL "release")
  message(WARNING
    "Linked google-benchmark reports library_build_type="
    "\"${KSYM_BENCHMARK_LIB_BUILD_TYPE}\" — its timing overheads are those "
    "of a debug library. BENCH_pr*.json will record this in "
    "benchmark_library_build_type; point CMAKE_PREFIX_PATH at a release "
    "build of google-benchmark to clear it.")
endif()

if(KSYM_REQUIRE_RELEASE_BENCH)
  if(NOT KSYM_BENCH_CODE_OPTIMIZED)
    message(FATAL_ERROR
      "KSYM_REQUIRE_RELEASE_BENCH: CMAKE_BUILD_TYPE=${CMAKE_BUILD_TYPE} "
      "does not optimize benchmark code.")
  endif()
  if(NOT KSYM_BENCHMARK_LIB_BUILD_TYPE STREQUAL "release")
    message(FATAL_ERROR
      "KSYM_REQUIRE_RELEASE_BENCH: google-benchmark library build type is "
      "\"${KSYM_BENCHMARK_LIB_BUILD_TYPE}\", not \"release\".")
  endif()
endif()

# One binary per reproduced table/figure plus ablations and microbenchmarks.
function(ksym_bench name)
  add_executable(${name} bench/${name}.cc)
  target_link_libraries(${name} PRIVATE ${ARGN})
  target_include_directories(${name} PRIVATE ${PROJECT_SOURCE_DIR})
  # Keep build/bench/ executable-only so `for b in build/bench/*` is clean.
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

ksym_bench(bench_table1_datasets ksym_datasets ksym_core)
ksym_bench(bench_fig2_knowledge_power ksym_datasets ksym_core ksym_attack_lib)
ksym_bench(bench_fig8_utility ksym_datasets ksym_core ksym_stats)
ksym_bench(bench_fig9_convergence ksym_datasets ksym_core ksym_stats)
ksym_bench(bench_fig10_hub_cost ksym_datasets ksym_core)
ksym_bench(bench_fig11_hub_utility ksym_datasets ksym_core ksym_stats)
ksym_bench(bench_ablation_sampling ksym_datasets ksym_core ksym_stats)
ksym_bench(bench_ablation_minimal ksym_datasets ksym_core)
ksym_bench(bench_ablation_tdv ksym_datasets ksym_core)
ksym_bench(bench_ablation_kdegree ksym_datasets ksym_core ksym_attack_lib ksym_baseline)
ksym_bench(bench_ablation_skeleton ksym_datasets ksym_core ksym_stats)
ksym_bench(bench_ablation_perturbation ksym_datasets ksym_core ksym_attack_lib ksym_baseline ksym_stats)
ksym_bench(bench_ablation_cost_k ksym_datasets ksym_core)
ksym_bench(bench_ablation_kautomorphism ksym_datasets ksym_core ksym_stats ksym_baseline)
ksym_bench(bench_perf_micro ksym_datasets ksym_core ksym_attack_lib ksym_stats ksym_sharding ksym_dyn
  ksym_serve_lib)
target_link_libraries(bench_perf_micro PRIVATE benchmark::benchmark)
target_compile_definitions(bench_perf_micro PRIVATE
  KSYM_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  KSYM_BENCHMARK_LIB_BUILD_TYPE="${KSYM_BENCHMARK_LIB_BUILD_TYPE}")
