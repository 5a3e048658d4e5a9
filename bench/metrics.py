"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` mirrors these tables (``test_harness.py`` checks it); the
``run.py`` output is built from them, so a metric cannot be printed without
being declared here.  A per-layer metric lists, in its comment group, the
end-to-end metric it should move and on which workload; the README has the
same table with the reasoning.
"""
from __future__ import annotations

#: (name, unit, better, bound) — bound is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.  Every
#: time is at reference machine speed (``measure.end_to_end``).  The bounds are
#: at least twice the widest spread of ten same-code runs seen on any workload
#: (README, "Same-code spread": 5.3 % on ``op_p50_s``, 4.8 % on
#: ``throughput_ops_s`` — 7.5 % in an earlier pair of sets —, 6.9 % on
#: ``cpu_s_per_op``, 11 % on ``op_tail_s``, 1.8 % on ``peak_rss_mib``).
#: ``setup_s`` carries the widest bound the driver accepts: a server's set-up
#: spreads by up to 26 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.15),
    ("op_tail_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.15),
    ("cpu_s_per_op", "s", "lower", 0.15),
    ("peak_rss_mib", "MiB", "lower", 0.05),
)

LOWER, HIGHER = "lower", "higher"

#: (name, unit, better)
PER_LAYER = (
    # -> op_p50_s on build_cold
    ("dnamaca.parse_s", "s", LOWER),
    ("dnamaca.compile_s", "s", LOWER),
    # -> op_p50_s, peak_rss_mib on build_cold; setup_s elsewhere
    ("petri.explore_s", "s", LOWER),
    ("petri.explore_states_per_s", "1/s", HIGHER),
    ("petri.build_kernel_s", "s", LOWER),
    ("petri.states", "count", LOWER),
    ("petri.edges", "count", LOWER),
    # -> op_p50_s on solve_passage
    ("smp.kernel.evaluator_init_s", "s", LOWER),
    ("smp.kernel.lst_fill_s", "s", LOWER),
    ("smp.kernel.lst_fill_ns_per_entry", "ns", LOWER),
    # -> op_p50_s on serve_warm (dominant share) and solve_passage
    ("smp.embedded.source_weights_s", "s", LOWER),
    ("smp.embedded.source_weights_10k_s", "s", LOWER),
    # -> op_p50_s, cpu_s_per_op on solve_passage
    ("smp.passage.solve_s", "s", LOWER),
    ("smp.passage.point_iterations", "count", LOWER),
    ("smp.passage.us_per_point_iter", "us", LOWER),
    ("smp.passage.iters_p50", "count", LOWER),
    ("smp.passage.iters_max", "count", LOWER),
    ("smp.passage.direct_solves", "count", LOWER),
    ("smp.passage.unconverged_points", "count", LOWER),
    ("smp.passage.us_per_point_iter_92k", "us", LOWER),
    # -> op_p50_s on solve_variants
    ("smp.factored.build_s", "s", LOWER),
    ("smp.factored.solve_s", "s", LOWER),
    ("smp.factored.us_per_point_iter", "us", LOWER),
    ("smp.factored.density_ratio", "ratio", HIGHER),
    ("smp.factored.vs_batch_ratio", "ratio", HIGHER),
    ("smp.transient.solve_s", "s", LOWER),
    ("smp.transient.point_iterations", "count", LOWER),
    ("smp.linear.direct_point_s", "s", LOWER),
    # -> op_p50_s on serve_warm; flat on solve_passage
    ("laplace.plan_s", "s", LOWER),
    ("laplace.euler_invert_s", "s", LOWER),
    ("laplace.laguerre_invert_s", "s", LOWER),
    ("laplace.s_points_scheduled", "count", LOWER),
    # -> op_p50_s on solve_passage, serve_warm
    ("api.state_sets_s", "s", LOWER),
    ("api.build_job_s", "s", LOWER),
    ("api.facade_overhead_s", "s", LOWER),
    # -> setup_s on serve_jobs
    ("smp.plane.export_s", "s", LOWER),
    ("smp.plane.attach_s", "s", LOWER),
    ("smp.plane.bytes", "bytes", LOWER),
    ("distributed.pool_spawn_s", "s", LOWER),
    # -> op_p50_s, cpu_s_per_op on serve_jobs
    ("distributed.serial_eval_s", "s", LOWER),
    ("distributed.pool2_eval_s", "s", LOWER),
    ("distributed.pool2_speedup", "ratio", HIGHER),
    ("distributed.pool2_busy_share", "ratio", HIGHER),
    ("distributed.blocks", "count", LOWER),
    ("distributed.checkpoint_merge_s", "s", LOWER),
    ("distributed.checkpoint_load_s", "s", LOWER),
    ("distributed.checkpoint_bytes", "bytes", LOWER),
    # -> op_p50_s, op_tail_s, throughput_ops_s on serve_warm
    ("service.registry_hit_s", "s", LOWER),
    ("service.cache_lookup_s", "s", LOWER),
    ("service.cache_insert_s", "s", LOWER),
    ("service.cache_disk_lookup_s", "s", LOWER),
    ("service.scheduler_overhead_s", "s", LOWER),
    ("service.passage_warm_inproc_s", "s", LOWER),
    ("service.http_health_s", "s", LOWER),
    ("service.http_overhead_s", "s", LOWER),
    ("service.cache_memory_hit_ratio", "ratio", HIGHER),
    ("service.points_evaluated", "count", LOWER),
    # -> op_p50_s on serve_jobs
    ("jobs.submit_s", "s", LOWER),
    ("jobs.queue_wait_s", "s", LOWER),
    ("jobs.run_s", "s", LOWER),
    ("jobs.poll_lag_s", "s", LOWER),
    ("jobs.blocks_per_job", "count", LOWER),
    ("jobs.block_overhead_s", "s", LOWER),
    ("jobs.block_compute_s", "s", LOWER),
    ("jobs.store_append_s", "s", LOWER),
    # -> op_p50_s on solve_passage / setup_s everywhere
    ("obs.tracer_on_ratio", "ratio", LOWER),
    ("obs.metrics_render_s", "s", LOWER),
    ("faults.fire_disabled_ns", "ns", LOWER),
    ("cli.import_s", "s", LOWER),
    # the instrument itself and the machine it ran on
    ("bench.traced_op_s", "s", LOWER),
    ("bench.trace_overhead_ratio", "ratio", LOWER),
    ("bench.trace_self_coverage", "ratio", HIGHER),
    ("machine.calib_s", "s", LOWER),
    ("machine.nproc", "count", HIGHER),
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
