//! Every metric the benchmark reports, with its unit.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.
//! Every workload reports every metric of its mode. A per-layer metric
//! of a layer the workload never calls reads 0 (see `README.md` for
//! which layers each workload exercises).

use crate::Metric;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cluster_s", "s"),
    ("seq_cluster_s", "s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("ingest_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mcs.build_s", "s"),
    ("mcs.par_build_s", "s"),
    ("mcs.reachable_s", "s"),
    ("core.process_mcs_s", "s"),
    ("core.rem_points_s", "s"),
    ("core.post_processing_s", "s"),
    ("core.labels_s", "s"),
    ("mcs.drop_s", "s"),
    ("core.local_s", "s"),
    ("mcs.mc_count", "count"),
    ("core.range_queries", "count"),
    ("core.queries_saved_pct", "%"),
    ("geom.dist_computations", "count"),
    ("geom.par_dist_computations", "count"),
    ("geom.dists_per_query", "count"),
    ("rtree.node_visits", "count"),
    ("unionfind.union_ops", "count"),
    ("obs.enabled_overhead_pct", "%"),
    ("data.store_write_s", "s"),
    ("partition.plan_s", "s"),
    ("partition.gather_s", "s"),
    ("partition.gather_yield", "ratio"),
    ("partition.n_shards", "count"),
    ("partition.halo_points", "count"),
    ("partition.shard_skew", "ratio"),
    ("dist.merge_s", "s"),
    ("dist.edges", "count"),
    ("dist.busy_max_s", "s"),
    ("dist.makespan_s", "s"),
    ("dist.peak_resident_mb", "MB"),
    ("stream.insert_us", "us"),
    ("stream.index_us", "us"),
    ("stream.index_copy_us", "us"),
    ("stream.publish_ms", "ms"),
    ("stream.snapshot_us", "us"),
    ("stream.remove_p50_us", "us"),
    ("stream.remove_p99_us", "us"),
    ("stream.repair_touched", "count"),
    ("stream.fallbacks", "count"),
    ("stream.dist_computations", "count"),
    ("stream.union_ops", "count"),
    ("serve.queue_ms", "ms"),
    ("serve.snapshot_query_us", "us"),
    ("serve.query_wait_us", "us"),
    ("serve.query_p50_us", "us"),
    ("serve.query_p99_us", "us"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Values collected during a run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<&'static str, (f64, usize)>,
    extra: Vec<Metric>,
}

impl Sheet {
    /// Record a declared metric measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Record a value for the full report only.
    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.extra.push(Metric { name, unit, value, samples });
    }

    /// The declared metrics of one mode, in catalog order. End-to-end
    /// metrics must all have been set; a per-layer metric left unset
    /// belongs to a layer this workload never calls and reads 0.
    pub fn finish(self, trace: bool) -> Result<(Vec<Metric>, Vec<Metric>), String> {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let (value, samples) = match self.values.get(name) {
                Some(&v) => v,
                None if trace => (0.0, 0),
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            out.push(Metric { name, unit, value, samples });
        }
        if let Some(stray) = self.values.keys().find(|k| !list.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {stray} is not declared for this mode"));
        }
        Ok((out, self.extra))
    }
}
