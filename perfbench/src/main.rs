//! Command line of the benchmark.
//!
//! ```text
//! mudbscan-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--out <report.json>] [--scratch <dir>]
//! mudbscan-perfbench compare <a.json> <b.json>
//! ```
//!
//! The last line of standard output is the result line; the line before
//! it is the full report. Exit code 0 on a completed run (even one whose
//! outputs failed verification: `correct` says so), 2 on bad arguments,
//! 1 when the run could not complete.

use mudbscan_perfbench::host::HostFacts;
use mudbscan_perfbench::{report, run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: mudbscan-perfbench --workload <galaxy-inmem|galaxy-sharded|household-window> \
--seed <n> --seconds <s> --trace <0|1> [--out <file>] [--scratch <dir>]\n       \
mudbscan-perfbench compare <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("{msg}");
            ExitCode::from(code)
        }
    }
}

fn bench(args: &[String]) -> Result<(), (u8, String)> {
    let usage = |m: &str| (2, format!("{m}\n{USAGE}"));
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut scratch = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| usage(&format!("unknown workload {value}")))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| usage(&format!("--seed: {e}")))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| usage(&format!("--seconds: {e}")))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(usage("--seconds must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace takes 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(usage(&format!("unknown flag {flag}"))),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err(usage("--workload, --seed, --seconds and --trace are required"));
    };
    let mut opts = Options::new(workload, seed, seconds, trace);
    if let Some(dir) = scratch {
        opts.scratch = dir;
    }

    let host = HostFacts::probe();
    let outcome = run(&opts).map_err(|e| (1, format!("{}: {e}", workload.name())))?;
    let full = report::full_report(&opts, &host, &outcome);
    if let Some(path) = out {
        std::fs::write(&path, full.render_pretty())
            .map_err(|e| (1, format!("cannot write {}: {e}", path.display())))?;
    }
    println!("report: {}", full.render());
    println!("{}", report::result_line(&outcome));
    Ok(())
}

fn compare(args: &[String]) -> Result<(), (u8, String)> {
    let [a, b] = args else {
        return Err((2, USAGE.to_string()));
    };
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| (1, format!("{p}: {e}")))?;
        obs::Json::parse(&text).map_err(|e| (1, format!("{p}: {e}")))
    };
    let text = report::compare(&load(a)?, &load(b)?).map_err(|e| (1, e))?;
    print!("{text}");
    Ok(())
}
