//! The Tawa end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cold_tune|restart_disk|fleet_join> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload through the public API: it builds the
//! workload's starting state, replays its seeded trace for at least
//! `--seconds`, checks the outputs, and prints its self-report (lines
//! starting with `#`) followed by one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics and writes the spans as a Chrome trace under
//! `.e2ebench/`. See `e2ebench/README.md`.

mod checks;
mod layers;
mod plan;
mod run;
mod spans;
mod stats;
mod sys;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use plan::{Plan, Workload};

/// Where the benchmark writes: its private working directories (removed
/// on exit) and the traced runs' Chrome traces.
const OUT_DIR: &str = ".e2ebench";

fn usage() -> String {
    "usage: e2ebench --workload <cold_tune|restart_disk|fleet_join> \
     --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<run::Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok(run::Options {
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        traced,
        plan: Plan::full(workload),
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &run::Output) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread the run starts
    // inherits the one CPU.
    let pinned = match sys::pin_to_one_cpu() {
        Ok((cpu, of)) => format!("pinned to cpu {cpu} of the {of} this process could use"),
        Err(e) => format!("not pinned to one cpu: {e}"),
    };
    let work = match sys::Scratch::work_dir(Path::new(OUT_DIR)) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("e2ebench: cannot create {OUT_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = match run::run(&opts, &work) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    drop(work);
    out.notes.insert(0, pinned);
    for (name, value, _) in &out.metrics {
        if !value.is_finite() {
            out.failures
                .push(format!("metric {name} is not finite: {value}"));
            out.correct = false;
        }
    }
    out.metrics.retain(|(_, v, _)| v.is_finite());
    if let Some(chrome) = &out.chrome_trace {
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        match std::fs::write(&path, chrome) {
            Ok(()) => out
                .notes
                .push(format!("chrome trace written to {}", path.display())),
            Err(e) => out.notes.push(format!("chrome trace not written: {e}")),
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.failures {
        println!("# FAILED: {failure}");
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
