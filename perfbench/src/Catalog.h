//===- perfbench/src/Catalog.h - Every metric the benchmark prints -*- C++ -*-//
///
/// \file
/// The metric catalog, which BENCHMARK.json mirrors (a self-test keeps
/// the two in step). An untraced run prints exactly the end-to-end list;
/// a traced run prints exactly the per-layer list. A per-layer metric
/// that a workload does not exercise prints 0 (for example, serve.* on
/// the tune workloads, or backend.* on retune_cached).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CATALOG_H
#define PERFBENCH_CATALOG_H

#include <vector>

namespace perfbench {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

inline const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},
      {"tune_s_geomean", "s"},
      {"points_per_s", "1/s"},
      {"search_points_geomean", "count"},
      {"winner_cpf_geomean", "cycles/flop"},
      {"ok_ratio", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return Defs;
}

inline const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = {
      // core
      {"core.derive_s", "s"},
      {"core.variants_derived", "count"},
      {"core.variants_searched", "count"},
      {"core.search_self_s", "s"},
      {"core.infeasible_pruned", "count"},
      {"core.configs_rejected", "count"},
      {"core.points.rank", "count"},
      {"core.points.initial", "count"},
      {"core.points.register", "count"},
      {"core.points.tile", "count"},
      {"core.points.prefetch", "count"},
      {"core.points.adjust", "count"},
      {"core.winners_match_direct", "count"},
      // engine / transform
      {"engine.points", "count"},
      {"engine.cache_hits", "count"},
      {"engine.hit_ratio", "ratio"},
      {"engine.busy_s", "s"},
      {"engine.self_s", "s"},
      {"engine.self_us_per_point", "us"},
      {"transform.instantiations", "count"},
      {"transform.instantiate_s", "s"},
      {"engine.instkey_s", "s"},
      {"engine.hashnest_s", "s"},
      {"engine.hashenv_s", "s"},
      {"engine.cache_lookup_s", "s"},
      {"engine.configstring_s", "s"},
      {"engine.tracelog_s", "s"},
      {"engine.residual_s", "s"},
      {"engine.recon_err_pct", "%"},
      // exec / sim
      {"evaluations", "count"},
      {"evals_per_s", "1/s"},
      {"backend.evals", "count"},
      {"backend.busy_s", "s"},
      {"backend.ms_per_eval", "ms"},
      {"sim.accesses", "count"},
      {"sim.accesses_per_s", "1/s"},
      {"sim.l1_misses", "count"},
      {"sim.l2_misses", "count"},
      {"sim.tlb_misses", "count"},
      {"sim.construct_s", "s"},
      {"exec.plan_s", "s"},
      {"exec.run_s", "s"},
      {"exec.ns_per_access", "ns"},
      {"backend.recon_err_pct", "%"},
      {"sim.replay_accesses_per_s", "1/s"},
      // serve
      {"serve.query_rtt_ms.p50", "ms"},
      {"serve.query_rtt_ms.tail", "ms"},
      {"serve.query_rtt_ms.tail_pct", "%"},
      {"serve.query_rtt_ms.n", "count"},
      {"serve.exact_rtt_ms.p50", "ms"},
      {"serve.exact_rtt_ms.tail", "ms"},
      {"serve.exact_rtt_ms.tail_pct", "%"},
      {"serve.exact_rtt_ms.n", "count"},
      {"serve.queue_ms.p50", "ms"},
      {"serve.queue_ms.tail", "ms"},
      {"serve.queue_ms.tail_pct", "%"},
      {"serve.queue_ms.n", "count"},
      {"serve.tune_rtt_s.p50", "s"},
      {"serve.run_ms.p50", "ms"},
      {"serve.queue_depth_max", "count"},
      {"serve.rejected", "count"},
      {"serve.gen_late_ms.max", "ms"},
      {"serve.slo_ratio", "ratio"},
      {"serve.slo_ratio.rung0", "ratio"},
      {"serve.slo_ratio.rung1", "ratio"},
      {"serve.slo_ratio.rung2", "ratio"},
      {"serve.slo_rate_per_s", "1/s"},
      {"serve.warm_gap_pct_max", "%"},
      {"serve.warm_evals_ratio", "ratio"},
      {"serve.configdb.rows", "count"},
      {"serve.configdb.exact_us", "us"},
      {"serve.configdb.nearest_us", "us"},
      {"serve.configdb.put_us", "us"},
      {"serve.configdb.save_ms", "ms"},
      {"serve.protocol.parse_us", "us"},
      {"serve.protocol.encode_us", "us"},
      {"fleet.batches", "count"},
      {"fleet.points_remote", "count"},
      {"fleet.points_local", "count"},
      {"fleet.retried", "count"},
      // whole run
      {"failed_ratio", "ratio"},
      {"trace_overhead_pct", "%"},
      {"host.effective_parallelism", "ratio"},
      {"host.speed_scale", "ratio"},
  };
  return Defs;
}

} // namespace perfbench

#endif // PERFBENCH_CATALOG_H
