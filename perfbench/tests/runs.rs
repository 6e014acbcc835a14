//! Tiny-scale runs of every workload through the same code paths as the
//! benchmark: every declared metric is emitted with its unit and a
//! finite value, traced spans account for the traced wall, and a
//! corrupted clustering is counted as a failure.

use mudbscan_perfbench::catalog::{END_TO_END, PER_LAYER};
use mudbscan_perfbench::trace::MAX_UNATTRIBUTED_SHARE;
use mudbscan_perfbench::{run, Options, Outcome, Scale, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, corrupt: bool) -> Outcome {
    let mut opts = Options::new(workload, 3, 0.2, trace);
    opts.scale = Scale::tiny();
    opts.corrupt = corrupt;
    opts.scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}-{trace}-{corrupt}", workload.name()));
    run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn assert_complete(out: &Outcome, declared: &[(&str, &str)], what: &str) {
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, declared, "{what}: metric names and units");
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    assert!(out.attempted >= 1, "{what}: nothing attempted");
    assert!(out.correct(), "{what}: {} of {} failed", out.failed, out.attempted);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = tiny(w, false, false);
        assert_complete(&out, END_TO_END, w.name());
        for m in &out.metrics {
            assert!(m.value > 0.0, "{}: end-to-end {} reads {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_spans_cover_the_wall() {
    for w in Workload::ALL {
        let out = tiny(w, true, false);
        assert_complete(&out, PER_LAYER, w.name());
        let wall = out.get("trace.wall_s").unwrap().value;
        let rest = out.get("trace.unattributed_s").unwrap().value;
        assert!(wall > 0.0, "{}", w.name());
        assert!(
            rest >= 0.0 && rest <= MAX_UNATTRIBUTED_SHARE * wall,
            "{}: {rest} of {wall}",
            w.name()
        );
    }
}

#[test]
fn a_corrupted_clustering_counts_as_failed() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(w, trace, true);
            assert!(
                out.failed >= 1 && !out.correct(),
                "{} trace={trace}: corruption not caught",
                w.name()
            );
        }
    }
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec = obs::Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(obs::Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(obs::Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(obs::Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(obs::Json::as_str).map(str::to_string))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
