//! The traced run's per-layer numbers.
//!
//! `Replay` makes its layer calls internally, where the benchmark cannot
//! wrap them. So the traced run calls each layer's public function again,
//! on exactly the workload's distinct shapes and winning options, inside
//! spans; counts come from the last round's `RequestOutcome::cache`.
//! A tier's calls are made only on the workload that has the tier; its
//! metrics read 0 elsewhere.

use std::collections::BTreeMap;
use std::path::Path;

use gpu_sim::{deserialize_report, serialize_report};
use tawa_cached::ServerHandle;
use tawa_core::cache::SimOutcome;
use tawa_core::{CompileSession, DiskCache, RemoteCache};
use tawa_serve::{
    serialize_fleet_report, FleetAccounting, FleetReport, PhaseStats, RequestOutcome, Trace,
};
use tawa_wsir::{deserialize_kernel, serialize_kernel};

use crate::checks::{Reference, Verdict};
use crate::plan::{base_options, program_for, tune_space};
use crate::spans::Tracer;

/// Where the workload keeps its warm state, for the layer calls that
/// need a tier.
pub struct Tiers<'a> {
    /// The workload's disk directory, if it has one.
    pub disk: Option<&'a Path>,
    /// The workload's daemon, if it has one.
    pub daemon: Option<&'a ServerHandle>,
    /// A session configured like the workload's timed ones.
    pub session: &'a CompileSession,
    /// Directory holding exactly the references' entries: the disk
    /// stores are timed into it, leaving the workload's own tier as the
    /// timed rounds saw it.
    pub ref_dir: &'a Path,
}

/// Per-layer metrics, by name, with units.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

fn median_of(tracer: &Tracer, name: &str, from: usize) -> f64 {
    let d: Vec<f64> = tracer.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        crate::stats::median(&d)
    }
}

/// Calls every layer on the references inside spans and returns the
/// per-layer metrics, timings as span medians. `v` collects the checks
/// these calls make on the way (winner equality, serde round trips).
pub fn reinvoke(
    v: &mut Verdict,
    tracer: &Tracer,
    refs: &[Reference],
    tiers: &Tiers<'_>,
    new_session: &dyn Fn() -> CompileSession,
    outcomes: &[RequestOutcome],
    trace: &Trace,
) -> Metrics {
    let from = tracer.spans().len();
    let device = tiers.session.device().clone();
    let disk = tiers.disk.map(|dir| {
        (
            DiskCache::open(dir).expect("workload disk directory"),
            DiskCache::open(tiers.ref_dir).expect("reference directory"),
        )
    });
    let remote = tiers.daemon.map(|d| RemoteCache::new(d.addr().clone()));
    let mut candidates = 0u64;
    let mut sweep_calls = 0u64;
    let mut kernel_bytes = Vec::new();
    let mut report_bytes = Vec::new();

    for (i, r) in refs.iter().enumerate() {
        let id = i as u64;
        // One parent span per shape: its layer calls are its children.
        tracer.span("layers.shape", id, || {
            let program = tracer.span("frontend.build", id, || program_for(&r.request));
            tracer.span("ir.fingerprint", id, || {
                tawa_ir::module_fingerprint(std::hint::black_box(program.module()))
            });
            let cold = new_session();
            let compiled = tracer.span("core.compile_cold", id, || {
                cold.compile_program(&program, &r.opts)
            });
            v.check(compiled.as_ref().is_ok_and(|k| **k == *r.kernel), || {
                format!(
                    "cold compile of `{}` differs from the reference kernel",
                    r.request.to_line()
                )
            });
            tracer.span("wsir.analyze", id, || tawa_wsir::analyze(&r.kernel));
            tracer.span("wsir.perf", id, || {
                tawa_wsir::analyze_kernel(&r.kernel, &gpu_sim::perf_model(&r.kernel, &device))
            });
            let text = serialize_kernel(&r.kernel);
            let parsed = tracer.span("wsir.serde", id, || {
                deserialize_kernel(&serialize_kernel(&r.kernel))
            });
            v.check(parsed.as_ref().ok() == Some(&*r.kernel), || {
                format!("kernel of `{}` does not round-trip", r.request.to_line())
            });
            kernel_bytes.push(text.len() as f64);
            tracer.span("sim.analytic", id, || gpu_sim::estimate(&r.kernel, &device));
            let sim = tracer.span("sim.engine", id, || gpu_sim::simulate(&r.kernel, &device));
            v.check(sim.as_ref().ok() == Some(&r.report), || {
                format!("re-simulating `{}` changed its report", r.request.to_line())
            });
            let rtext = serialize_report(&r.report);
            let rparsed = tracer.span("sim.report_serde", id, || {
                deserialize_report(&serialize_report(&r.report))
            });
            v.check(rparsed.as_ref().ok() == Some(&r.report), || {
                format!("report of `{}` does not round-trip", r.request.to_line())
            });
            report_bytes.push(rtext.len() as f64);
            if let Some((load_from, store)) = &disk {
                let loaded = tracer.span("core.cache.load", id, || load_from.load_sim(&r.key));
                v.check(loaded == Some(SimOutcome::Report(r.report.clone())), || {
                    format!("disk tier lost the report of `{}`", r.request.to_line())
                });
                tracer.span("core.cache.store", id, || {
                    store.store_sim_report(&r.key, &r.report)
                });
            }
            if let Some(remote) = &remote {
                let got = tracer.span("core.remote.get", id, || remote.get_sim(&r.key));
                v.check(got == Some(SimOutcome::Report(r.report.clone())), || {
                    format!("daemon lost the report of `{}`", r.request.to_line())
                });
            }
            // The sweep a first sight runs, again on a fresh session: its
            // winner must be the replay's, and it gives the sweep's counts.
            let swept = tracer.span("core.autotune", id, || {
                tawa_core::autotune::autotune_with_session(
                    &new_session(),
                    program.module(),
                    program.spec(),
                    &base_options(&r.request),
                    &tune_space(&r.request),
                )
            });
            let line = r.request.to_line();
            // `CompileOptions` has no `PartialEq`; its debug form names every field.
            let picked = format!("{:?}", swept.best_options(&base_options(&r.request)));
            let replayed = format!("{:?}", Some(&r.opts));
            v.check(picked == replayed, || {
                format!("re-sweep of `{line}` picked {picked}, the replay {replayed}")
            });
            candidates += swept.stats.candidates as u64;
            sweep_calls += swept.stats.simulate_calls as u64;
        });
    }
    for i in 0..20 {
        tracer.span("core.cache.stats", i, || tiers.session.cache_stats());
    }
    for i in 0..20 {
        tracer.span("serve.report", i, || {
            let report = FleetReport {
                name: trace.name.clone(),
                seed: trace.seed,
                requests: outcomes.len() as u64,
                phases: PhaseStats::aggregate(outcomes),
                perf_lints: Vec::new(),
                accounting: FleetAccounting::from_stats(outcomes.len() as u64, &Default::default()),
            };
            serialize_fleet_report(&report)
        });
    }
    drop(remote);

    let sum = |f: &dyn Fn(&RequestOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let last = outcomes.last().map(|o| o.cache.disk).unwrap_or_default();
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (value, unit));
    };
    put(
        "frontend.build_us",
        median_of(tracer, "frontend.build", from) / 1e3,
        "us",
    );
    put(
        "ir.fingerprint_us",
        median_of(tracer, "ir.fingerprint", from) / 1e3,
        "us",
    );
    put(
        "core.compile_cold_ms",
        median_of(tracer, "core.compile_cold", from) / 1e6,
        "ms",
    );
    put("core.compiles", sum(&|o| o.cache.kernel_misses), "count");
    put("core.hit_us", median_of(tracer, "core.hit", 0) / 1e3, "us");
    put("core.autotune.candidates", candidates as f64, "count");
    put(
        "core.autotune.pruned",
        sum(&|o| o.cache.analytic_pruned),
        "count",
    );
    put("core.autotune.sim_runs", sweep_calls as f64, "count");
    put(
        "core.cache.stats_us",
        median_of(tracer, "core.cache.stats", from) / 1e3,
        "us",
    );
    put(
        "core.cache.load_us",
        median_of(tracer, "core.cache.load", from) / 1e3,
        "us",
    );
    put(
        "core.cache.store_us",
        median_of(tracer, "core.cache.store", from) / 1e3,
        "us",
    );
    put("core.cache.entries", last.entries as f64, "count");
    put("core.cache.bytes", last.bytes as f64, "B");
    put(
        "core.cache.hits",
        sum(&|o| {
            let d = &o.cache.disk;
            d.hits + d.negative_hits + d.sim_hits + d.sim_negative_hits
        }),
        "count",
    );
    put("core.cache.writes", sum(&|o| o.cache.disk.writes), "count");
    put(
        "core.remote.get_us",
        median_of(tracer, "core.remote.get", from) / 1e3,
        "us",
    );
    put(
        "core.remote.round_trips",
        sum(&|o| o.cache.remote.roundtrips),
        "count",
    );
    put("core.remote.hits", sum(&|o| o.cache.remote.hits()), "count");
    put(
        "wsir.analyze_ms",
        median_of(tracer, "wsir.analyze", from) / 1e6,
        "ms",
    );
    put(
        "wsir.perf_us",
        median_of(tracer, "wsir.perf", from) / 1e3,
        "us",
    );
    put(
        "wsir.serde_us",
        median_of(tracer, "wsir.serde", from) / 1e3,
        "us",
    );
    put(
        "wsir.kernel_bytes",
        crate::stats::median(&nonempty(kernel_bytes)),
        "B",
    );
    put(
        "sim.analytic_us",
        median_of(tracer, "sim.analytic", from) / 1e3,
        "us",
    );
    put(
        "sim.engine_ms",
        median_of(tracer, "sim.engine", from) / 1e6,
        "ms",
    );
    put("sim.runs", sum(&|o| o.cache.sim_misses), "count");
    put(
        "sim.report_serde_us",
        median_of(tracer, "sim.report_serde", from) / 1e3,
        "us",
    );
    put(
        "sim.report_bytes",
        crate::stats::median(&nonempty(report_bytes)),
        "B",
    );
    put(
        "serve.trace_gen_ms",
        median_of(tracer, "serve.trace_gen", 0) / 1e6,
        "ms",
    );
    put(
        "serve.report_us",
        median_of(tracer, "serve.report", from) / 1e3,
        "us",
    );
    m
}

fn nonempty(v: Vec<f64>) -> Vec<f64> {
    if v.is_empty() {
        vec![0.0]
    } else {
        v
    }
}
