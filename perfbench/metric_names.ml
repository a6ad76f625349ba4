(* Every metric the benchmark reports, with its unit.  [end_to_end] is what
   a run with [--trace 0] emits, [per_layer] what a run with [--trace 1]
   emits; BENCHMARK.json lists the same names. *)

let end_to_end =
  [
    "throughput_rps", "1/s";
    "latency_p50_ms", "ms";
    "latency_p90_ms", "ms";
    "peak_rss_mb", "MB";
    "setup_s", "s";
  ]

let per_layer =
  [
    "zoo.build_ms", "ms";
    "pipeline.compile_ms", "ms";
    "engine.create_ms", "ms";
    "pipeline.plan_instantiate_us", "us";
    "pipeline.plan_lookup_us", "us";
    "pipeline.plan_cache_misses", "count";
    "mem_plan.arena_mb", "MB";
    "mem_plan.arena_over_live", "ratio";
    "executor.run_ms", "ms";
    "executor.nodes_per_req", "count";
    "executor.ready_scans_per_req", "count";
    "executor.copy_outs_per_req", "count";
    "executor.dest_stores_per_req", "count";
    "executor.fusion_saved_ratio", "ratio";
    "backend.fused_hit_ratio", "ratio";
    "backend.fused_misses", "count";
    "backend.fused_rejects", "count";
    "kernels.matmul_ms", "ms";
    "kernels.conv_ms", "ms";
    "kernels.softmax_ms", "ms";
    "kernels.layernorm_ms", "ms";
    "kernels.batchnorm_ms", "ms";
    "kernels.pool_ms", "ms";
    "kernels.elementwise_ms", "ms";
    "kernels.transpose_ms", "ms";
    "kernels.matmul_gflops", "GFLOP/s";
    "kernels.conv_gflops", "GFLOP/s";
    "kernels.softmax_gbs", "GB/s";
    "kernels.layernorm_gbs", "GB/s";
    "kernels.replay_coverage", "ratio";
    "cost_model.measured_over_predicted", "ratio";
    "engine.wait_ms_mean", "ms";
    "engine.busy_share", "ratio";
    "engine.batched", "count";
    "engine.cold_extra_ms", "ms";
    "engine.variant_hit_ratio", "ratio";
    "engine.variant_mispredicts", "count";
    "engine.variant_direct", "count";
    "guarded.vets", "count";
    "trace.untraced_rps", "1/s";
    "trace.traced_rps", "1/s";
    "trace.overhead_ratio", "ratio";
  ]
