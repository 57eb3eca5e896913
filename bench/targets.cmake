function(rovista_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  # Recorded in the "host" block of the BENCH_*.json files.
  target_compile_definitions(${name} PRIVATE
    ROVISTA_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  target_link_libraries(${name} PRIVATE
    rovista_validation rovista_bgpstream rovista_incremental
    rovista_snapshot rovista_scenario rovista_faults rovista_core
    rovista_scan rovista_dataplane rovista_bgp rovista_rpki
    rovista_topology rovista_stats rovista_net rovista_util)
endfunction()

rovista_bench(bench_fig1_coverage)
rovista_bench(bench_fig3_ipid_patterns)
rovista_bench(bench_fig4_vvp_distribution)
rovista_bench(bench_fig5_score_cdf)
rovista_bench(bench_fig6_full_protection_trend)
rovista_bench(bench_fig7_rank_vs_score)
rovista_bench(bench_fig8_collateral_benefit)
rovista_bench(bench_fig9_collateral_damage)
rovista_bench(bench_fig10_single_prefix)
rovista_bench(bench_fig11_cloudflare_list)
rovista_bench(bench_table1_tier1)
rovista_bench(bench_table23_official_sources)
rovista_bench(bench_coverage_stats)
rovista_bench(bench_traceroute_xval)
rovista_bench(bench_bgpstream)
rovista_bench(bench_challenges)
rovista_bench(bench_appendixA_detector)

# Microbenchmarks of the hot kernels use google-benchmark proper.
add_executable(bench_perf_kernels ${CMAKE_SOURCE_DIR}/bench/bench_perf_kernels.cpp)
set_target_properties(bench_perf_kernels PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
target_include_directories(bench_perf_kernels PRIVATE ${CMAKE_SOURCE_DIR})
target_link_libraries(bench_perf_kernels PRIVATE
  rovista_scenario rovista_core rovista_scan rovista_dataplane rovista_bgp
  rovista_rpki rovista_topology rovista_stats rovista_net rovista_util
  benchmark::benchmark)

rovista_bench(bench_parallel_round)
rovista_bench(bench_snapshot)
target_link_libraries(bench_snapshot PRIVATE rovista_replica_oracle)
rovista_bench(bench_incremental_round)
target_link_libraries(bench_incremental_round PRIVATE rovista_series_oracle)
rovista_bench(bench_checkpoint)
rovista_bench(bench_faults)
target_link_libraries(bench_faults PRIVATE rovista_series_oracle)
rovista_bench(bench_ablation_detection)
rovista_bench(bench_ablation_tnode_depletion)
rovista_bench(bench_ablation_rov_modes)
rovista_bench(bench_ablation_rovpp)
rovista_bench(bench_serve)
target_link_libraries(bench_serve PRIVATE rovista_serve)
rovista_bench(bench_analytics)
target_link_libraries(bench_analytics PRIVATE rovista_analytics)

rovista_bench(bench_scale)
target_link_libraries(bench_scale PRIVATE rovista_propagation_oracle)
