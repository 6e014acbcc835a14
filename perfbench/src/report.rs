//! Result lines and report files.
//!
//! A run prints its full report (host facts, seed, every metric with its
//! unit and sample count) as one `report: {...}` line, then the result
//! line as its last line: `{"correct", "attempted", "failed", "metrics"}`.
//! [`compare`] sets two saved reports side by side and flags any
//! difference in the host facts that timings depend on.

use crate::host::HostFacts;
use crate::{Metric, Options, Outcome};
use obs::Json;

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn key(k: &str, v: Json) -> (String, Json) {
    (k.to_string(), v)
}

/// The result line: the declared metrics as `{"value", "unit"}`.
pub fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            key(
                m.name,
                Json::obj_from([key("value", num(m.value)), key("unit", Json::Str(m.unit.into()))]),
            )
        })
        .collect::<Vec<_>>();
    Json::obj_from([
        key("correct", Json::Bool(out.correct())),
        key("attempted", num(out.attempted as f64)),
        key("failed", num(out.failed as f64)),
        key("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn metric_list(ms: &[Metric]) -> Json {
    Json::Arr(
        ms.iter()
            .map(|m| {
                Json::obj_from([
                    key("name", Json::Str(m.name.into())),
                    key("value", num(m.value)),
                    key("unit", Json::Str(m.unit.into())),
                    key("samples", num(m.samples as f64)),
                ])
            })
            .collect(),
    )
}

/// The full report of one run.
pub fn full_report(opts: &Options, host: &HostFacts, out: &Outcome) -> Json {
    Json::obj_from([
        key("workload", Json::Str(opts.workload.name().into())),
        key("seed", num(opts.seed as f64)),
        key("seconds", num(opts.seconds)),
        key("trace", Json::Bool(opts.trace)),
        key("host", host.to_json()),
        key("correct", Json::Bool(out.correct())),
        key("attempted", num(out.attempted as f64)),
        key("failed", num(out.failed as f64)),
        key("failed_frac", num(out.failed as f64 / out.attempted.max(1) as f64)),
        key("metrics", metric_list(&out.metrics)),
        key("extra", metric_list(&out.extra)),
    ])
}

/// Compare two saved reports: one line per metric with both values and
/// their ratio. Each host fact that timings depend on and that differs
/// between the two is flagged first with a `HOST MISMATCH` line.
pub fn compare(a: &Json, b: &Json) -> Result<String, String> {
    let host =
        |j: &Json| j.get("host").and_then(HostFacts::from_json).ok_or("report has no host facts");
    let mut text = String::new();
    for m in host(a)?.timing_mismatches(&host(b)?) {
        text.push_str(&format!("HOST MISMATCH: {m}\n"));
    }
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    text.push_str(&format!(
        "workload {} vs {}, seed {} vs {}\n",
        field(a, "workload"),
        field(b, "workload"),
        a.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN),
        b.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN),
    ));
    let metrics = |j: &Json| -> Vec<(String, f64, String)> {
        j.get("metrics")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect()
    };
    let theirs = metrics(b);
    for (name, x, unit) in metrics(a) {
        match theirs.iter().find(|(n, ..)| *n == name) {
            Some((_, y, _)) => {
                text.push_str(&format!("{name:<28} {x:>14.6} {y:>14.6} {unit:<6} x{:.4}\n", y / x))
            }
            None => text.push_str(&format!("{name:<28} {x:>14.6} {:>14} {unit}\n", "-")),
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn outcome() -> Outcome {
        Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "cluster_s", unit: "s", value: 1.25, samples: 2 }],
            extra: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let j = Json::parse(&result_line(&outcome())).unwrap();
        let keys: Vec<&str> = j.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").unwrap().get("cluster_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn compare_flags_host_mismatches() {
        let opts = Options::new(Workload::GalaxyInmem, 1, 1.0, false);
        let host = HostFacts::probe();
        let a = full_report(&opts, &host, &outcome());
        let mut other = host.clone();
        other.parallelism += 1;
        let b = full_report(&opts, &other, &outcome());
        let same = compare(&a, &a).unwrap();
        assert!(same.contains("x1.0000") && !same.contains("HOST MISMATCH"));
        let cross = compare(&a, &b).unwrap();
        assert!(cross.starts_with("HOST MISMATCH: available_parallelism"));
        assert!(cross.contains("x1.0000"));
    }
}
