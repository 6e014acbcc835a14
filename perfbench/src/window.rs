//! `household-window`: a sliding window of household points served
//! through `Runner::serve`, with one closed-loop writer and one
//! closed-loop reader.
//!
//! Set-up preloads the window. Each timed batch deletes 4 random live
//! points and inserts 4 new ones taken in order from a shuffled pool,
//! so the live set and its spatial spread stay stationary. The traced
//! run replays the same batches on a `StreamingMuDbscan`, mirroring the
//! serving writer's repair budget, rebuild fallback, index
//! copy-on-write and snapshot assembly.

use crate::catalog::Sheet;
use crate::galaxy::{finish, timed_pairs};
use crate::stats::{self, median, quantile, Rng};
use crate::trace::{Summary, Tracer};
use crate::verify::{self, Tally};
use crate::{nproc, Options, Outcome};
use data::DatasetSpec;
use metrics::Counters;
use mudbscan::prelude::*;
use rtree::{RTree, RTreeConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stream::StreamingMuDbscan;

/// Deletes per batch.
const DELETES: usize = 4;
/// Inserts per batch.
const INSERTS: usize = 4;
/// Share of the timed seconds spent serving; the rest re-clusters the
/// final window with the batch families.
const SERVE_SHARE: f64 = 0.8;

/// The catalog entry the workload draws from.
pub fn spec() -> DatasetSpec {
    data::paper_table2_specs()
        .into_iter()
        .find(|s| s.name == "HHP0.5M5D")
        .expect("the dataset catalog lists HHP0.5M5D")
}

/// One closed-loop batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Live external ids to delete.
    pub deletes: Vec<ExtId>,
    /// Points to insert.
    pub inserts: Vec<Vec<f64>>,
    /// External ids the service assigns to the inserts.
    pub insert_ids: Vec<ExtId>,
}

/// The seeded op sequence: which live ids each batch deletes and which
/// pool points it inserts.
#[derive(Debug)]
pub struct OpPlan {
    rng: Rng,
    pool: Dataset,
    cursor: usize,
    live: Vec<ExtId>,
    next_ext: ExtId,
}

impl OpPlan {
    /// Plan over a shuffled household pool; returns the plan and the
    /// preload window (external ids `0..window`).
    pub fn new(seed: u64, window: usize, batches_hint: usize) -> (OpPlan, Dataset) {
        let raw = spec().generate_n(window + INSERTS * batches_hint, seed);
        let mut rng = Rng::new(seed, 1);
        let mut order: Vec<u32> = raw.ids().collect();
        rng.shuffle(&mut order);
        let pool = raw.gather(&order);
        let preload = pool.gather(&(0..window as u32).collect::<Vec<_>>());
        let plan = OpPlan {
            rng,
            pool,
            cursor: window,
            live: (0..window as ExtId).collect(),
            next_ext: window as ExtId,
        };
        (plan, preload)
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Batch {
        let deletes = (0..DELETES.min(self.live.len()))
            .map(|_| {
                let i = self.rng.below(self.live.len());
                self.live.swap_remove(i)
            })
            .collect();
        let mut inserts = Vec::with_capacity(INSERTS);
        let mut insert_ids = Vec::with_capacity(INSERTS);
        for _ in 0..INSERTS {
            // Past the end of the pool the plan cycles; the pool is
            // sized so a run at the benchmark's settings never does.
            let p = (self.cursor % self.pool.len()) as u32;
            self.cursor += 1;
            inserts.push(self.pool.point(p).to_vec());
            insert_ids.push(self.next_ext);
            self.live.push(self.next_ext);
            self.next_ext += 1;
        }
        Batch { deletes, inserts, insert_ids }
    }

    /// The pool the reader draws its query points from.
    pub fn pool(&self) -> &Dataset {
        &self.pool
    }
}

/// A reader query point: a pool point moved by up to ε/2 per axis.
fn jittered(pool: &Dataset, eps: f64, rng: &mut Rng) -> Vec<f64> {
    let p = pool.point(rng.below(pool.len()) as u32);
    p.iter().map(|&x| x + rng.uniform(-eps / 2.0, eps / 2.0)).collect()
}

/// Check a published snapshot against the oracle on its own live set.
fn snapshot_ok(snap: &Snapshot, params: &DbscanParams, corrupt: bool) -> bool {
    let mut c = snap.clustering().clone();
    if corrupt {
        verify::corrupt(&mut c);
    }
    c == naive_dbscan(snap.dataset(), params)
}

/// What the serving phase measured.
struct Served {
    latencies: Vec<f64>,
    wall: f64,
    queries: Vec<f64>,
    memberships: Vec<f64>,
    sent: Vec<Batch>,
    final_snapshot: Arc<Snapshot>,
}

/// The timed serving phase of one window: closed-loop writer on this
/// thread, one closed-loop reader thread racing it, for `seconds` and at
/// least `min_batches` batches.
fn serve_phase(
    handle: &ServeHandle,
    plan: &mut OpPlan,
    params: &DbscanParams,
    (seed, seconds, min_batches): (u64, f64, usize),
    corrupt: bool,
    tally: &mut Tally,
) -> Result<Served, String> {
    let mut rng = Rng::new(seed, 2);
    // The seeded mid-trace epoch verified after the timed phase.
    let min_batches = min_batches.max(1);
    let mid_batch = (min_batches / 4 + rng.below(min_batches / 4 + 1)).max(1);
    let mut mid = None;
    let stop = AtomicBool::new(false);
    let issued = AtomicU64::new(plan.next_ext);
    let pool = plan.pool().clone();

    let (latencies, wall, sent, reader) = std::thread::scope(|scope| {
        let reader_handle = handle.clone();
        let (stop, issued, pool) = (&stop, &issued, &pool);
        let reader = scope.spawn(move || {
            let mut rng = Rng::new(seed, 3);
            let (mut queries, mut memberships, mut errors) = (Vec::new(), Vec::new(), 0u64);
            while !stop.load(Ordering::Relaxed) {
                let q = jittered(pool, params.eps, &mut rng);
                let t = Instant::now();
                let r = reader_handle.query(&q);
                queries.push(t.elapsed().as_secs_f64());
                errors += u64::from(r.is_err());
                let id = rng.below(issued.load(Ordering::Relaxed) as usize) as ExtId;
                let t = Instant::now();
                std::hint::black_box(reader_handle.membership(id));
                memberships.push(t.elapsed().as_secs_f64());
            }
            (queries, memberships, errors)
        });

        let mut latencies = Vec::new();
        let mut sent = Vec::new();
        let started = Instant::now();
        while latencies.len() < min_batches || started.elapsed().as_secs_f64() < seconds {
            let batch = plan.next_batch();
            let ops: Vec<ServeOp> = batch
                .deletes
                .iter()
                .map(|&id| ServeOp::delete(id))
                .chain(batch.inserts.iter().map(|c| ServeOp::insert(c.clone())))
                .collect();
            let t = Instant::now();
            let ids = handle.ingest(ops);
            let drained = handle.drain();
            latencies.push(t.elapsed().as_secs_f64());
            issued.store(plan.next_ext, Ordering::Relaxed);
            let ok = ids.as_ref().is_ok_and(|ids| *ids == batch.insert_ids);
            tally.record(ok && drained.is_ok());
            if latencies.len() == mid_batch {
                mid = drained.ok().map(|d| d.snapshot);
            }
            sent.push(batch);
        }
        let wall = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let reader = reader.join().expect("reader thread panicked");
        (latencies, wall, sent, reader)
    });
    let (queries, memberships, reader_errors) = reader;
    tally.attempted += (queries.len() + memberships.len()) as u64;
    tally.failed += reader_errors;

    let final_snapshot = handle.drain().map_err(|e| e.to_string())?.snapshot;
    for snap in [mid.as_ref(), Some(&final_snapshot)] {
        tally.record(snap.is_some_and(|s| snapshot_ok(s, params, corrupt)));
    }
    Ok(Served { latencies, wall, queries, memberships, sent, final_snapshot })
}

/// Start the service and preload the window: the program-side set-up.
fn start(params: DbscanParams, opts: &Options, preload: &Dataset) -> Result<ServeHandle, String> {
    let serve_opts = ServeOptions {
        postmortem_dir: Some(opts.scratch.join("postmortem")),
        ..ServeOptions::default()
    };
    let handle = Runner::new(params)
        .serve_options(serve_opts)
        .serve(preload.dim())
        .map_err(|e| e.to_string())?;
    let ops = preload.iter().map(|(_, c)| ServeOp::insert(c.to_vec())).collect();
    handle.ingest(ops).map_err(|e| e.to_string())?;
    handle.drain().map_err(|e| e.to_string())?;
    Ok(handle)
}

/// Everything measured over a run's windows.
#[derive(Default)]
struct Totals {
    setup: Vec<f64>,
    latencies: Vec<f64>,
    serve_wall: f64,
    queries: Vec<f64>,
    memberships: Vec<f64>,
    rss: Vec<f64>,
    recluster: [Vec<f64>; 2],
    direct_queries: Vec<f64>,
    untraced: Vec<f64>,
    traced: Option<Summary>,
    engine: EngineStats,
}

/// `household-window`.
///
/// One run serves several independent windows in turn, each from its own
/// seeded household realization, and pools their samples. The serving
/// cost depends strongly on the realization (one window's median batch
/// latency ranges over about ±15 % between seeds), so pooling several
/// windows measures the workload rather than one draw of its data.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let params = spec().params;
    let windows = opts.scale.windows.max(1);
    let seconds = opts.seconds / windows as f64;
    let min_batches = opts.scale.min_batches.div_ceil(windows);
    let mut tally = Tally::default();
    let mut t = Totals::default();
    for w in 0..windows {
        let seed = Rng::new(opts.seed, 50 + w as u64).next_u64();
        // The pool covers far more batches than a window is sent.
        let (mut plan, preload) = OpPlan::new(seed, opts.scale.window, 20 * min_batches);
        let (handle, setup) = stats::repeat_setup(1, || start(params, opts, &preload))?;
        t.setup.extend(setup);

        stats::reset_peak_rss();
        let budget = (seed, seconds * SERVE_SHARE, min_batches);
        let served = serve_phase(&handle, &mut plan, &params, budget, opts.corrupt, &mut tally)?;
        let mut rss = stats::peak_rss_mb();
        let window = served.final_snapshot.dataset().clone();
        let reference = naive_dbscan(&window, &params);

        if !opts.trace {
            // Re-cluster the final window from scratch with both batch
            // families: the cost incremental serving avoids.
            let par = Runner::new(params).family(Family::Parallel).threads(nproc());
            let seq = Runner::new(params).family(Family::Sequential);
            let arms = timed_pairs(
                seconds * (1.0 - SERVE_SHARE),
                |_| (),
                |(), i| [&par, &seq][i].run(&window),
                |(), out| {
                    out.is_ok_and(|mut o| {
                        if opts.corrupt {
                            verify::corrupt(&mut o.clustering);
                        }
                        verify::is_exact(&o.clustering, &reference, &window, &params)
                    })
                },
                &mut tally,
            );
            rss = rss.max(arms.rss_mb[0][0]).max(arms.rss_mb[1][0]);
            for (all, arm) in t.recluster.iter_mut().zip(arms.secs) {
                all.extend(arm);
            }
        } else {
            // Uncontended snapshot queries: no writer, no other reader.
            let snap = handle.pin();
            let mut rng = Rng::new(seed, 4);
            for _ in 0..served.queries.len().clamp(100, 5_000) {
                let q = jittered(plan.pool(), params.eps, &mut rng);
                let start = Instant::now();
                let r = snap.query(&q);
                t.direct_queries.push(start.elapsed().as_secs_f64());
                tally.record(r.is_ok());
            }
            // Replay the served batches on the engine, untraced then traced.
            for tracing in [false, true] {
                let mut engine = Engine::preload(&preload, params);
                let mut tr = if tracing { Tracer::on() } else { Tracer::off() };
                let start = Instant::now();
                for batch in &served.sent {
                    engine.apply(batch, &mut tr);
                }
                let secs = start.elapsed().as_secs_f64();
                tally.record(engine.reproduces(&window, &reference, opts.corrupt));
                match tr.finish() {
                    None => t.untraced.push(secs),
                    Some(s) => {
                        t.engine.absorb(&engine);
                        match &mut t.traced {
                            None => t.traced = Some(s),
                            Some(all) => all.absorb(s),
                        }
                    }
                }
            }
        }
        t.rss.push(rss);
        t.latencies.extend(&served.latencies);
        t.serve_wall += served.wall;
        t.queries.extend(&served.queries);
        t.memberships.extend(&served.memberships);
        drop(served);
        ServeHandle::shutdown(handle).map_err(|e| e.to_string())?;
    }

    let mut sheet = Sheet::default();
    let batches = t.latencies.len();
    let ingest_p50_ms = median(&t.latencies) * 1e3;
    let query_p50_us = median(&t.queries) * 1e6;
    let queries = t.queries.len();
    if !opts.trace {
        let [par_s, seq_s] = &t.recluster;
        sheet.set("cluster_s", median(par_s), par_s.len());
        sheet.set("seq_cluster_s", median(seq_s), seq_s.len());
        sheet.set("ingest_p50_ms", ingest_p50_ms, batches);
        sheet.set("ingest_p99_ms", quantile(&t.latencies, 0.99) * 1e3, batches);
        sheet.set(
            "ingest_ops_per_s",
            ((DELETES + INSERTS) * batches) as f64 / t.serve_wall,
            batches,
        );
        sheet.set("setup_s", median(&t.setup), t.setup.len());
        sheet.set("peak_rss_mb", median(&t.rss), t.rss.len());
        sheet.extra("query_p50_us", "us", query_p50_us, queries);
        sheet.extra("query_p99_us", "us", quantile(&t.queries, 0.99) * 1e6, queries);
        sheet.extra("membership_p50_us", "us", median(&t.memberships) * 1e6, t.memberships.len());
    } else {
        sheet.set("serve.query_p50_us", query_p50_us, queries);
        sheet.set("serve.query_p99_us", quantile(&t.queries, 0.99) * 1e6, queries);
        let direct_us = median(&t.direct_queries) * 1e6;
        sheet.set("serve.snapshot_query_us", direct_us, t.direct_queries.len());
        sheet.set("serve.query_wait_us", query_p50_us - direct_us, queries);
        let s = t.traced.expect("at least one traced replay");
        replay_metrics(&mut sheet, &mut tally, &s, &t.engine, &t.untraced, ingest_p50_ms);
    }
    finish(sheet, tally, opts.trace)
}

/// Per-layer metrics of the traced replays (all windows together).
fn replay_metrics(
    sheet: &mut Sheet,
    tally: &mut Tally,
    s: &Summary,
    engine: &EngineStats,
    untraced: &[f64],
    ingest_p50_ms: f64,
) {
    tally.record(s.invariant_ok);
    let timed = |name: &'static str, scale: f64, q: f64| {
        let xs = s.durations(name);
        (quantile(xs, q) * scale, xs.len())
    };
    for (metric, span, scale, q) in [
        ("stream.insert_us", "stream.insert", 1e6, 0.5),
        ("stream.index_us", "stream.index", 1e6, 0.5),
        ("stream.index_copy_us", "stream.index_copy", 1e6, 0.5),
        ("stream.publish_ms", "stream.publish", 1e3, 0.5),
        ("stream.snapshot_us", "stream.snapshot", 1e6, 0.5),
        ("stream.remove_p50_us", "stream.remove", 1e6, 0.5),
        ("stream.remove_p99_us", "stream.remove", 1e6, 0.99),
    ] {
        let (value, n) = timed(span, scale, q);
        sheet.set(metric, value, n);
    }
    let repairs = engine.repairs.max(1);
    sheet.set(
        "stream.repair_touched",
        engine.touched as f64 / repairs as f64,
        engine.repairs as usize,
    );
    sheet.set("stream.fallbacks", engine.fallbacks as f64, 1);
    sheet.extra("stream.compactions", "count", engine.compactions as f64, 1);
    sheet.extra(
        "stream.rebuild_s",
        "s",
        s.total("stream.rebuild"),
        s.durations("stream.rebuild").len(),
    );

    let c = &engine.work;
    sheet.set("stream.dist_computations", c.dist_computations() as f64, 1);
    sheet.set("stream.union_ops", c.union_ops() as f64, 1);
    sheet.set("geom.dist_computations", c.dist_computations() as f64, 1);
    sheet.set(
        "geom.dists_per_query",
        c.dist_computations() as f64 / c.range_queries().max(1) as f64,
        1,
    );
    sheet.set("core.range_queries", c.range_queries() as f64, 1);
    sheet.set("rtree.node_visits", c.node_visits() as f64, 1);
    sheet.set("unionfind.union_ops", c.union_ops() as f64, 1);
    sheet.set("mcs.mc_count", engine.mc_count as f64, 1);

    let (batch_p50, batches) = timed("stream.batch", 1e3, 0.5);
    sheet.set("serve.queue_ms", ingest_p50_ms - batch_p50, batches);
    sheet.extra("ingest_p50_ms", "ms", ingest_p50_ms, batches);
    sheet.extra("stream.batch_ms", "ms", batch_p50, batches);
    sheet.set("trace.wall_s", s.wall, 1);
    sheet.set("trace.unattributed_s", s.unattributed, 1);
    let untraced_wall: f64 = untraced.iter().sum();
    sheet.set("trace.overhead_pct", (s.wall / untraced_wall - 1.0) * 100.0, untraced.len());
}

/// Engine counts summed over the traced replays.
#[derive(Debug, Default)]
struct EngineStats {
    work: Counters,
    mc_count: usize,
    repairs: u64,
    touched: u64,
    fallbacks: u64,
    compactions: u64,
}

impl EngineStats {
    fn absorb(&mut self, e: &Engine) {
        self.work.absorb(&e.work());
        self.mc_count += e.stream.mc_count();
        self.repairs += e.repairs;
        self.touched += e.touched;
        self.fallbacks += e.fallbacks;
        self.compactions += e.compactions;
    }
}

/// The serving writer's engine-side work, replayed outside the service:
/// per-op repair under the writer's budget, one compacting rebuild when
/// a removal exceeds it or tombstones outnumber live points, the inserts,
/// the writer's R-tree index kept in step, and the snapshot it publishes.
struct Engine {
    stream: StreamingMuDbscan,
    ext: Vec<ExtId>,
    lookup: HashMap<ExtId, u32>,
    /// The writer's live-point index, shared with the last published
    /// snapshot, so the first update of each batch copies it.
    index: Arc<RTree>,
    published: Published,
    start: Counters,
    repairs: u64,
    touched: u64,
    fallbacks: u64,
    compactions: u64,
}

/// What the writer publishes per batch: the live points in insertion
/// order with their external ids, the canonical clustering, and the
/// shared index with its internal-id → position map.
struct Published {
    data: Dataset,
    ext: Vec<ExtId>,
    lookup: HashMap<ExtId, u32>,
    clustering: Clustering,
    index: Arc<RTree>,
    compact: Vec<u32>,
}

impl Engine {
    /// The engine after the preload batch, inserted point by point (and
    /// into the index) as the writer applies it.
    fn preload(window: &Dataset, params: DbscanParams) -> Engine {
        let mut stream = StreamingMuDbscan::empty(window.dim(), params);
        let mut index = RTree::new(window.dim());
        for (_, c) in window.iter() {
            let p = stream.insert(c);
            index.insert_point(p, c);
        }
        let start = Counters::new();
        start.absorb(stream.counters());
        let mut engine = Engine {
            stream,
            ext: (0..window.len() as ExtId).collect(),
            lookup: (0..window.len() as u32).map(|p| (p as ExtId, p)).collect(),
            index: Arc::new(index),
            published: Published {
                data: Dataset::empty(window.dim()),
                ext: Vec::new(),
                lookup: HashMap::new(),
                clustering: naive_dbscan(&Dataset::empty(window.dim()), &params),
                index: Arc::new(RTree::new(window.dim())),
                compact: Vec::new(),
            },
            start,
            repairs: 0,
            touched: 0,
            fallbacks: 0,
            compactions: 0,
        };
        engine.publish(&mut Tracer::off());
        engine
    }

    /// Work counted since the preload.
    fn work(&self) -> Counters {
        let (a, b) = (self.stream.counters(), &self.start);
        Counters::from_raw(
            a.range_queries() - b.range_queries(),
            a.queries_saved() - b.queries_saved(),
            a.dist_computations() - b.dist_computations(),
            a.node_visits() - b.node_visits(),
            a.union_ops() - b.union_ops(),
        )
    }

    fn apply(&mut self, batch: &Batch, tr: &mut Tracer) {
        tr.span("stream.batch", |tr| {
            let mut marked = vec![false; self.stream.len()];
            let mut removals = Vec::new();
            for id in &batch.deletes {
                if let Some(&p) = self.lookup.get(id) {
                    if !marked[p as usize] {
                        marked[p as usize] = true;
                        removals.push(p);
                    }
                }
            }
            if !removals.is_empty() {
                let budget = (self.stream.live_len() / 2).max(256);
                let mut fell_back = false;
                for p in removals {
                    match tr.span("stream.remove", |_| self.stream.try_remove(p, budget)) {
                        RemoveOutcome::Removed { touched } => {
                            self.repairs += 1;
                            self.touched += touched as u64;
                            self.lookup.remove(&self.ext[p as usize]);
                            let coords = self.stream.point(p).to_vec();
                            self.index_mut(tr);
                            tr.span("stream.index", |_| {
                                Arc::get_mut(&mut self.index)
                                    .expect("unshared after index_mut")
                                    .remove_point(p, &coords)
                            });
                        }
                        RemoveOutcome::ExceedsBudget { .. } => {
                            tr.span("stream.rebuild", |_| self.rebuild(&marked));
                            self.fallbacks += 1;
                            fell_back = true;
                            break;
                        }
                    }
                }
                let dead = self.stream.dead_len();
                if !fell_back && dead >= 64 && dead >= self.stream.live_len() {
                    tr.span("stream.rebuild", |_| self.rebuild(&[]));
                    self.compactions += 1;
                }
            }
            for (coords, &id) in batch.inserts.iter().zip(&batch.insert_ids) {
                let p = tr.span("stream.insert", |_| self.stream.insert(coords));
                self.ext.push(id);
                self.lookup.insert(id, p);
                self.index_mut(tr);
                tr.span("stream.index", |_| {
                    Arc::get_mut(&mut self.index)
                        .expect("unshared after index_mut")
                        .insert_point(p, coords)
                });
            }
            self.publish(tr);
        });
    }

    /// Make the index unshared before an update. While the published
    /// snapshot holds it, this copies the whole tree, as the writer's
    /// `Arc::make_mut` does.
    fn index_mut(&mut self, tr: &mut Tracer) {
        if Arc::get_mut(&mut self.index).is_none() {
            tr.span("stream.index_copy", |_| {
                Arc::make_mut(&mut self.index);
            });
        }
    }

    /// Publish as the writer does: the canonical clustering, then the
    /// snapshot around it (live points compacted in insertion order,
    /// their external ids and lookup, the id map into the shared index),
    /// replacing the previous one.
    fn publish(&mut self, tr: &mut Tracer) {
        let clustering = tr.span("stream.publish", |_| self.stream.canonical_snapshot());
        tr.span("stream.snapshot", |_| {
            let n = self.stream.len();
            let mut data = Dataset::empty(self.stream.dataset().dim());
            let mut ext = Vec::with_capacity(self.stream.live_len());
            let mut compact = vec![u32::MAX; n];
            for (p, slot) in compact.iter_mut().enumerate() {
                if self.stream.is_live(p as u32) {
                    *slot = data.push(self.stream.point(p as u32));
                    ext.push(self.ext[p]);
                }
            }
            let lookup = ext.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();
            let index = Arc::clone(&self.index);
            self.published = Published { data, ext, lookup, clustering, index, compact };
        });
    }

    /// Whether the last published snapshot is the served one: the same
    /// live points in the same order, clustered as `reference`, with ids,
    /// lookup, index and id map all covering exactly those points.
    fn reproduces(&self, window: &Dataset, reference: &Clustering, corrupt: bool) -> bool {
        let s = &self.published;
        let mut clustering = s.clustering.clone();
        if corrupt {
            verify::corrupt(&mut clustering);
        }
        let n = s.data.len();
        clustering == *reference
            && s.data == *window
            && s.ext.len() == n
            && s.lookup.len() == n
            && s.index.len() == n
            && s.compact.iter().filter(|&&i| i != u32::MAX).count() == n
    }

    /// Compacting rebuild over the live points not flagged in `exclude`,
    /// carrying the operation counters forward and re-bulk-loading the
    /// index as the writer does.
    fn rebuild(&mut self, exclude: &[bool]) {
        let mut data = Dataset::empty(self.stream.dataset().dim());
        let mut ext = Vec::new();
        for p in 0..self.stream.len() {
            if self.stream.is_live(p as u32) && !exclude.get(p).copied().unwrap_or(false) {
                data.push(self.stream.point(p as u32));
                ext.push(self.ext[p]);
            }
        }
        let carried = Counters::new();
        carried.absorb(self.stream.counters());
        self.stream = StreamingMuDbscan::from_dataset(&data, self.stream.params());
        self.stream.counters().absorb(&carried);
        self.lookup = ext.iter().enumerate().map(|(p, &e)| (e, p as u32)).collect();
        self.ext = ext;
        self.index = Arc::new(RTree::bulk_load_points(
            data.dim(),
            RTreeConfig::default(),
            data.iter().map(|(p, c)| (p, c.to_vec())),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_keeps_the_window_size_and_is_seeded() {
        let (mut a, preload) = OpPlan::new(5, 50, 10);
        let (mut b, _) = OpPlan::new(5, 50, 10);
        assert_eq!(preload.len(), 50);
        for _ in 0..10 {
            let (x, y) = (a.next_batch(), b.next_batch());
            assert_eq!(x.deletes, y.deletes);
            assert_eq!(x.inserts, y.inserts);
            assert_eq!(x.deletes.len(), DELETES);
        }
        assert_eq!(a.live.len(), 50);
    }
}
