//! The two galaxy workloads: `galaxy-inmem` (in-memory `Dataset`,
//! Parallel and Sequential families) and `galaxy-sharded` (memory-mapped
//! `ChunkedStore`, Sharded family under half the raw coordinate bytes).

use crate::catalog::Sheet;
use crate::stats::{self, median, quantile};
use crate::trace::{Summary, Tracer};
use crate::verify::{self, Tally};
use crate::{nproc, Options, Outcome};
use data::DatasetSpec;
use mcs::{build_micro_clusters, build_micro_clusters_par, BuildOptions};
use metrics::Counters;
use mudbscan::prelude::*;
use mudbscan_core::algorithm::{
    post_processing_core, post_processing_noise, process_micro_clusters, process_rem_points,
    WorkingState,
};
use partition::{gather_shard, plan_shards, ShardingOptions};
use std::path::PathBuf;
use std::time::Instant;
use unionfind::UnionFind;

/// The catalog entry both galaxy workloads draw from.
pub fn spec() -> DatasetSpec {
    data::paper_table2_specs()
        .into_iter()
        .find(|s| s.name == "DGB0.5M3D")
        .expect("the dataset catalog lists DGB0.5M3D")
}

/// Reference clustering from an independent exact implementation.
fn reference(data: &Dataset, params: DbscanParams) -> Result<Clustering, String> {
    baselines::GridDbscan::new(params)
        .run(data)
        .map(|out| out.clustering)
        .map_err(|e| format!("reference clustering failed: {e}"))
}

/// Verify one run's output; an error counts as a failure.
fn verified(
    out: Result<RunOutput, MuDbscanError>,
    reference: &Clustering,
    data: &Dataset,
    params: DbscanParams,
    corrupt: bool,
) -> (bool, Option<RunDetails>) {
    match out {
        Ok(mut out) => {
            if corrupt {
                verify::corrupt(&mut out.clustering);
            }
            (verify::is_exact(&out.clustering, reference, data, &params), Some(out.details))
        }
        Err(_) => (false, None),
    }
}

/// Counters and sizes of a traced chain.
#[derive(Debug, Default)]
struct ChainTotals {
    counters: Counters,
    mc_count: usize,
}

/// The Sequential family's chain (paper Algorithm 2), called layer by
/// layer through the crates' public functions with a span around each
/// call. It is the call sequence `MuDbscan::run` makes.
fn sequential_chain(
    data: &Dataset,
    params: &DbscanParams,
    totals: &mut ChainTotals,
    tr: &mut Tracer,
) -> Clustering {
    let n = data.len();
    let counters = &totals.counters;
    let opts = BuildOptions::default();
    let tree = tr.span("mcs.build_s", |_| build_micro_clusters(data, params.eps, &opts, counters));
    let mut state = WorkingState {
        tree,
        uf: UnionFind::new(n),
        is_core: vec![false; n],
        wndq: vec![false; n],
        assigned: vec![false; n],
        wndq_list: Vec::new(),
        noise_list: Vec::new(),
    };
    tr.span("core.process_mcs_s", |_| process_micro_clusters(data, params, &mut state, counters));
    tr.span("mcs.reachable_s", |_| state.tree.compute_reachable(data, counters));
    tr.span("core.rem_points_s", |_| process_rem_points(data, params, &mut state, counters, false));
    tr.span("core.post_processing_s", |_| {
        post_processing_core(data, params, &mut state, counters, false);
        post_processing_noise(&mut state, counters);
    });
    totals.mc_count += state.tree.mc_count();
    let is_core = std::mem::take(&mut state.is_core);
    let clustering =
        tr.span("core.labels_s", |_| Clustering::from_union_find(&mut state.uf, is_core));
    tr.span("mcs.drop_s", |_| drop(state));
    clustering
}

/// Put the counters of a traced chain into the sheet.
fn chain_counts(sheet: &mut Sheet, t: &ChainTotals) {
    let c = &t.counters;
    sheet.set("mcs.mc_count", t.mc_count as f64, 1);
    sheet.set("core.range_queries", c.range_queries() as f64, 1);
    sheet.set("core.queries_saved_pct", c.pct_queries_saved(), 1);
    sheet.set("geom.dist_computations", c.dist_computations() as f64, 1);
    sheet.set(
        "geom.dists_per_query",
        c.dist_computations() as f64 / c.range_queries().max(1) as f64,
        1,
    );
    sheet.set("rtree.node_visits", c.node_visits() as f64, 1);
    sheet.set("unionfind.union_ops", c.union_ops() as f64, 1);
}

/// Put a traced section's span totals, wall and tracing overhead into
/// the sheet. `names` are the span names the section records.
fn section(
    sheet: &mut Sheet,
    tally: &mut Tally,
    s: &Summary,
    names: &[&'static str],
    on: &[f64],
    off: &[f64],
) {
    tally.record(s.invariant_ok);
    for &name in names {
        sheet.set(name, s.total(name), s.durations(name).len());
    }
    sheet.set("trace.wall_s", s.wall, 1);
    sheet.set("trace.unattributed_s", s.unattributed, 1);
    sheet.set(
        "trace.overhead_pct",
        (median(on) / median(off) - 1.0) * 100.0,
        on.len().min(off.len()),
    );
}

/// Time a section with tracing off and on, alternating, until `seconds`
/// have passed (at least one pair). Returns the last traced summary and
/// the walls of both arms.
fn traced_pairs<T>(
    seconds: f64,
    mut section: impl FnMut(&mut Tracer) -> T,
    mut check: impl FnMut(T),
) -> (Summary, Vec<f64>, Vec<f64>) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut last = None;
    while last.is_none() || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = section(&mut Tracer::off());
        off.push(t.elapsed().as_secs_f64());
        check(out);
        let mut tr = Tracer::on();
        let out = section(&mut tr);
        let s = tr.finish().expect("recording tracer");
        on.push(s.wall);
        check(out);
        last = Some(s);
    }
    (last.expect("at least one pair ran"), on, off)
}

/// Walls and per-operation peak RSS of the two timed arms: index 0 is
/// the full-thread arm, index 1 the one-thread arm.
#[derive(Debug, Default)]
pub(crate) struct Arms {
    pub secs: [Vec<f64>; 2],
    pub rss_mb: [Vec<f64>; 2],
}

/// Run the two arms alternately, the one-thread arm first, until
/// `seconds` of timed work (at least one pair). `prepare` builds each
/// pair's input outside the timed regions; each operation then has its
/// own timed region and peak-RSS window, and `check` verifies its output
/// outside them.
pub(crate) fn timed_pairs<S>(
    seconds: f64,
    mut prepare: impl FnMut(usize) -> S,
    mut arm: impl FnMut(&S, usize) -> Result<RunOutput, MuDbscanError>,
    mut check: impl FnMut(&S, Result<RunOutput, MuDbscanError>) -> bool,
    tally: &mut Tally,
) -> Arms {
    let mut arms = Arms::default();
    let mut timed = 0.0;
    while arms.secs[0].is_empty() || timed < seconds {
        let input = prepare(arms.secs[0].len());
        for i in [1, 0] {
            stats::reset_peak_rss();
            let t = Instant::now();
            let out = arm(&input, i);
            let secs = t.elapsed().as_secs_f64();
            arms.rss_mb[i].push(stats::peak_rss_mb());
            arms.secs[i].push(secs);
            timed += secs;
            tally.record(check(&input, out));
        }
    }
    arms
}

/// The catalog and its reference in a seeded random presentation order.
///
/// The Sequential family's work depends strongly on the order points
/// arrive in: one catalog in four random orders costs 150–203 M distance
/// computations. The generator's own order is just one such random
/// order, so each timed pair draws a fresh one; the median over pairs
/// then measures the catalog, not one lucky or unlucky order.
fn presentation(
    data: &Dataset,
    reference: &Clustering,
    seed: u64,
    pair: usize,
) -> (Dataset, Clustering) {
    let mut order: Vec<u32> = data.ids().collect();
    stats::Rng::new(seed, 100 + pair as u64).shuffle(&mut order);
    let reordered = Clustering {
        labels: order.iter().map(|&p| reference.labels[p as usize]).collect(),
        is_core: order.iter().map(|&p| reference.is_core[p as usize]).collect(),
        n_clusters: reference.n_clusters,
    };
    (data.gather(&order), reordered)
}

/// The end-to-end metrics of a whole-dataset workload: a clustering run
/// of all `n` points is its ingest.
fn whole_dataset_metrics(sheet: &mut Sheet, n: usize, arms: &Arms, setup: &[f64]) {
    let [par, seq] = &arms.secs;
    sheet.set("cluster_s", median(par), par.len());
    sheet.set("seq_cluster_s", median(seq), seq.len());
    sheet.set("ingest_p50_ms", median(par) * 1e3, par.len());
    sheet.set("ingest_p99_ms", quantile(par, 0.99) * 1e3, par.len());
    sheet.set("ingest_ops_per_s", (n * par.len()) as f64 / par.iter().sum::<f64>(), par.len());
    sheet.set("setup_s", median(setup), setup.len());
    rss_metric(sheet, arms);
}

/// `peak_rss_mb`: the higher peak of the first pair of operations. Only
/// the first pair counts: a multi-threaded run leaves freed memory behind
/// in its threads' allocator arenas that trimming cannot return (10–110 MB
/// after one Parallel run at 4·10⁵ points, varying run to run), so later
/// peaks measure the allocator's history rather than the operation.
fn rss_metric(sheet: &mut Sheet, arms: &Arms) {
    let [par, seq] = &arms.rss_mb;
    let peak = par[0].max(seq[0]);
    sheet.set("peak_rss_mb", peak, 2);
    sheet.extra("peak_rss_par_mb", "MB", median(par), par.len());
    sheet.extra("peak_rss_seq_mb", "MB", median(seq), seq.len());
}

/// `galaxy-inmem`.
pub fn run_inmem(opts: &Options) -> Result<Outcome, String> {
    let spec = spec();
    let params = spec.params;
    let n = opts.scale.inmem_n;
    let threads = nproc();
    let rows: Vec<Vec<f64>> =
        spec.generate_n(n, opts.seed).iter().map(|(_, c)| c.to_vec()).collect();

    // Program-side set-up: load the rows and build both families.
    let par_runner = Runner::new(params).family(Family::Parallel).threads(threads);
    let seq_runner = Runner::new(params).family(Family::Sequential);
    let ((data, par, seq), setup) = stats::repeat_setup(opts.scale.setup_reps, || {
        let data = Dataset::from_rows(&rows);
        let par = par_runner.build().map_err(|e| e.to_string())?;
        let seq = seq_runner.build().map_err(|e| e.to_string())?;
        Ok((data, par, seq))
    })?;
    drop(rows);
    let reference = reference(&data, params)?;

    let mut sheet = Sheet::default();
    let mut tally = Tally::default();
    if !opts.trace {
        let arms = timed_pairs(
            opts.seconds,
            |pair| presentation(&data, &reference, opts.seed, pair),
            |(input, _), i| [&par, &seq][i].run(input),
            |(input, reference), out| verified(out, reference, input, params, opts.corrupt).0,
            &mut tally,
        );
        whole_dataset_metrics(&mut sheet, n, &arms, &setup);
    } else {
        // Traced section: the Sequential chain, then the parallel MC build.
        let mut totals = ChainTotals::default();
        let (s, on, off) = traced_pairs(
            opts.seconds / 2.0,
            |tr| {
                totals = ChainTotals::default();
                let mut clustering = sequential_chain(&data, &params, &mut totals, tr);
                let counters = Counters::new();
                let par_opts = BuildOptions { parallel: true, ..BuildOptions::default() };
                let built = tr.span("mcs.par_build_s", |_| {
                    build_micro_clusters_par(&data, params.eps, &par_opts, threads, &counters)
                });
                tr.span("mcs.drop_s", |_| drop(built));
                if opts.corrupt {
                    verify::corrupt(&mut clustering);
                }
                clustering
            },
            |c| tally.record(verify::is_exact(&c, &reference, &data, &params)),
        );
        section(
            &mut sheet,
            &mut tally,
            &s,
            &[
                "mcs.build_s",
                "core.process_mcs_s",
                "mcs.reachable_s",
                "core.rem_points_s",
                "core.post_processing_s",
                "core.labels_s",
                "mcs.par_build_s",
                "mcs.drop_s",
            ],
            &on,
            &off,
        );
        chain_counts(&mut sheet, &totals);

        // The program's own instrumentation: Sequential with obs on vs off.
        let (mut obs_on, mut obs_off) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while obs_on.is_empty() || started.elapsed().as_secs_f64() < opts.seconds / 2.0 {
            for (enabled, samples) in [(false, &mut obs_off), (true, &mut obs_on)] {
                if enabled {
                    obs::enable();
                }
                let t = Instant::now();
                let out = seq.run(&data);
                samples.push(t.elapsed().as_secs_f64());
                obs::disable();
                obs::reset();
                tally.record(verified(out, &reference, &data, params, opts.corrupt).0);
            }
        }
        // Distance computations of the Parallel family, next to the
        // Sequential chain's `geom.dist_computations`.
        let out = par.run(&data);
        if let Ok(o) = &out {
            sheet.set("geom.par_dist_computations", o.counters.dist_computations() as f64, 1);
        }
        tally.record(verified(out, &reference, &data, params, opts.corrupt).0);
        sheet.set(
            "obs.enabled_overhead_pct",
            (median(&obs_on) / median(&obs_off) - 1.0) * 100.0,
            obs_on.len(),
        );
    }
    finish(sheet, tally, opts.trace)
}

/// Shape of a traced shard pass.
#[derive(Debug, Default)]
struct ShardPass {
    n_shards: usize,
    gathered: usize,
    halo: usize,
    skew: f64,
}

/// The Sharded family's shard program, called layer by layer: plan the
/// shards as the executor does, then gather each shard and run the
/// Sequential chain on its owned points plus halo. The merge runs inside
/// the executor and is read from its `RunDetails` instead.
fn sharded_chain(
    src: &dyn DataSource,
    params: &DbscanParams,
    threads: usize,
    budget: usize,
    totals: &mut ChainTotals,
    tr: &mut Tracer,
) -> ShardPass {
    let sharding = ShardingOptions {
        min_shards: threads,
        max_shard_bytes: Some((budget / (2 * threads)).max(1)),
    };
    let plan = tr.span("partition.plan_s", |_| plan_shards(src, params.eps, &sharding));
    let counts = plan.counts();
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    let mut pass = ShardPass {
        n_shards: plan.n_shards(),
        skew: counts.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
        ..ShardPass::default()
    };
    for s in 0..plan.n_shards() {
        let shard = tr.span("partition.gather_s", |_| gather_shard(src, &plan, s));
        pass.gathered += shard.len() + shard.halo_ids.len();
        pass.halo += shard.halo_ids.len();
        let mut combined = shard.data;
        combined.extend_from(&shard.halo);
        tr.span("core.local_s", |tr| sequential_chain(&combined, params, totals, tr));
    }
    pass
}

/// `galaxy-sharded`.
pub fn run_sharded(opts: &Options) -> Result<Outcome, String> {
    let spec = spec();
    let params = spec.params;
    let n = opts.scale.sharded_n;
    let threads = nproc();
    let data = spec.generate_n(n, opts.seed);

    // Program-side set-up: write the store and open it. Each rep writes a
    // fresh file, as a user's first write does: rewriting one path makes
    // `write_store`'s final sync wait for the old file's blocks (about 2 s
    // instead of 15 ms for 10⁶ 3-D points on a 2-core AMD EPYC VM).
    let mut writes = Vec::new();
    let mut rep = 0;
    let (file, setup) = stats::repeat_setup(opts.scale.store_setup_reps, || {
        rep += 1;
        let path = opts.scratch.join(format!("galaxy-sharded-{}-{rep}.store", opts.seed));
        let t = Instant::now();
        write_store(&data, &path, DEFAULT_CHUNK_CAP).map_err(|e| e.to_string())?;
        writes.push(t.elapsed().as_secs_f64());
        let store = ChunkedStore::open(&path).map_err(|e| e.to_string())?;
        Ok(StoreFile { store: Some(store), path })
    })?;
    let store = file.store.as_ref().expect("open until dropped");
    measure_sharded(opts, &data, store, params, threads, &setup, &writes)
}

/// An open store that deletes its file when dropped, so set-up reps
/// clean up outside their timed regions.
struct StoreFile {
    store: Option<ChunkedStore>,
    path: PathBuf,
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        drop(self.store.take()); // unmap before unlinking
        let _ = std::fs::remove_file(&self.path);
    }
}

fn measure_sharded(
    opts: &Options,
    data: &Dataset,
    store: &ChunkedStore,
    params: DbscanParams,
    threads: usize,
    setup: &[f64],
    writes: &[f64],
) -> Result<Outcome, String> {
    let n = data.len();
    let budget = (n * data.dim() * 8 / 2).max(1);
    let par = Runner::new(params).threads(threads).memory_budget(budget);
    let seq = Runner::new(params).threads(1).memory_budget(budget);
    let reference = reference(data, params)?;

    let mut sheet = Sheet::default();
    let mut tally = Tally::default();
    if !opts.trace {
        let mut shards = Vec::new();
        let arms = timed_pairs(
            opts.seconds,
            |_| (),
            |(), i| [&par, &seq][i].run_source(store),
            |(), out| {
                let (ok, details) = verified(out, &reference, data, params, opts.corrupt);
                if let Some(RunDetails::Sharded { n_shards, .. }) = details {
                    shards.push(n_shards as f64);
                }
                ok
            },
            &mut tally,
        );
        whole_dataset_metrics(&mut sheet, n, &arms, setup);
        sheet.extra("shards_per_run", "count", median(&shards), shards.len());
    } else {
        sheet.set("data.store_write_s", median(writes), writes.len());
        let mut totals = ChainTotals::default();
        let mut pass = ShardPass::default();
        let (s, on, off) = traced_pairs(
            opts.seconds / 2.0,
            |tr| {
                totals = ChainTotals::default();
                pass = sharded_chain(store, &params, threads, budget, &mut totals, tr);
            },
            |()| {},
        );
        section(
            &mut sheet,
            &mut tally,
            &s,
            &[
                "partition.plan_s",
                "partition.gather_s",
                "core.local_s",
                "mcs.build_s",
                "core.process_mcs_s",
                "mcs.reachable_s",
                "core.rem_points_s",
                "core.post_processing_s",
                "core.labels_s",
                "mcs.drop_s",
            ],
            &on,
            &off,
        );
        chain_counts(&mut sheet, &totals);
        sheet.set("partition.n_shards", pass.n_shards as f64, 1);
        sheet.set("partition.halo_points", pass.halo as f64, 1);
        sheet.set("partition.shard_skew", pass.skew, 1);
        sheet.set(
            "partition.gather_yield",
            pass.gathered as f64 / (pass.n_shards.max(1) * n) as f64,
            1,
        );

        // Program-reported numbers of one untraced run at full threads.
        let (ok, details) = verified(par.run_source(store), &reference, data, params, opts.corrupt);
        tally.record(ok);
        if let Some(RunDetails::Sharded {
            merge_secs,
            busy_max_secs,
            makespan_secs,
            wall_secs,
            peak_resident_bytes,
            edges,
            ..
        }) = details
        {
            sheet.set("dist.merge_s", merge_secs, 1);
            sheet.set("dist.edges", edges as f64, 1);
            sheet.set("dist.busy_max_s", busy_max_secs, 1);
            sheet.set("dist.makespan_s", makespan_secs, 1);
            sheet.set("dist.peak_resident_mb", peak_resident_bytes as f64 / (1024.0 * 1024.0), 1);
            sheet.extra("dist.wall_s", "s", wall_secs, 1);
        }
    }
    finish(sheet, tally, opts.trace)
}

/// Assemble the outcome from a filled sheet.
pub(crate) fn finish(sheet: Sheet, tally: Tally, trace: bool) -> Result<Outcome, String> {
    let (metrics, extra) = sheet.finish(trace)?;
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics, extra })
}
