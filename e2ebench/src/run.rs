//! One run of one workload: set up, measure, check, and (traced) call
//! every layer again.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gpu_sim::Device;
use tawa_cached::{ServerHandle, ShardedStore};
use tawa_core::{CompileOptions, CompileSession, DaemonStats, RemoteAddr};
use tawa_serve::{replay_trace, Phase, PhaseStats, Replay, RequestOutcome, Trace};

use crate::checks::{self, Verdict};
use crate::layers::{self, Tiers};
use crate::plan::{distinct, serving_params, serving_trace, Plan, Workload};
use crate::spans::{self, Tracer};
use crate::stats::{self, median, summarize};
use crate::sys::{self, Scratch};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub plan: Plan,
}

/// What a run prints.
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The run's self-report, one line each.
    pub notes: Vec<String>,
    pub failures: Vec<String>,
    /// Chrome trace-event JSON of the traced run.
    pub chrome_trace: Option<String>,
}

/// The timed rounds of a run.
struct Measured {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `times[r][i]`: request `i`'s latency in round `r`, in seconds,
    /// `None` if it failed.
    times: Vec<Vec<Option<f64>>>,
    /// Whether request `i` is a first sight, as round 0 found, and
    /// whether every round agreed.
    first_sight: Vec<bool>,
    kinds_repeat: bool,
    /// Repeat latencies of each round, for the tracing overhead.
    repeat_us: Vec<Vec<f64>>,
    /// First-sight latencies by shape and repeat latencies by phase, for
    /// the self-report.
    first_by_shape: HashMap<String, Vec<f64>>,
    repeat_by_phase: std::collections::BTreeMap<&'static str, Vec<f64>>,
    rounds: usize,
    wall: Duration,
    /// The host's steal share over the rounds, in percent.
    steal_pct: Option<f64>,
    /// The process's peak RSS once the rounds are done.
    peak_rss_mb: f64,
    /// Outcomes and winners of the last round.
    outcomes: Vec<RequestOutcome>,
    winners: HashMap<String, CompileOptions>,
    /// Phase aggregates over the last round's first sights, and whether
    /// every round's were bit-identical to them.
    phases: Vec<PhaseStats>,
    phases_repeat: bool,
    /// Compiles and simulator runs summed over every round.
    compiles: u64,
    simulations: u64,
}

fn new_session(device: &Device, workers: usize) -> CompileSession {
    // Every tier is attached explicitly: `in_memory` ignores the cache
    // environment variables, and the worker count and analyzer fuel are
    // pinned so the caller's environment cannot change what is measured.
    CompileSession::in_memory(device)
        .with_workers(workers)
        .with_analyze_fuel(tawa_wsir::DEFAULT_ANALYSIS_FUEL)
}

/// Replays `trace` request by request on fresh sessions from `open`,
/// round after round, until `seconds` have passed and at least
/// `plan.min_rounds` whole rounds are done. With an enabled `tracer`,
/// rounds alternate untraced and traced (see [`traced_round`]), at least
/// one of each, so that the run measures what tracing costs.
fn measure(
    trace: &Trace,
    seconds: f64,
    plan: &Plan,
    tracer: &Tracer,
    mut open: impl FnMut(usize) -> io::Result<CompileSession>,
) -> io::Result<Measured> {
    let singles: Vec<Trace> = trace
        .requests
        .iter()
        .map(|r| Trace::from_requests(trace.name.clone(), trace.seed, vec![r.clone()]))
        .collect();
    let mut m = Measured {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        times: Vec::new(),
        first_sight: Vec::new(),
        kinds_repeat: true,
        first_by_shape: HashMap::new(),
        repeat_by_phase: Default::default(),
        repeat_us: Vec::new(),
        rounds: 0,
        wall: Duration::ZERO,
        steal_pct: None,
        peak_rss_mb: 0.0,
        outcomes: Vec::new(),
        winners: HashMap::new(),
        phases: Vec::new(),
        phases_repeat: true,
        compiles: 0,
        simulations: 0,
    };
    let ticks_before = sys::host_cpu_ticks();
    let start = Instant::now();
    let alternate = tracer.enabled();
    let min_rounds = if alternate {
        plan.min_rounds.max(2)
    } else {
        plan.min_rounds
    };
    while m.rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let session = open(m.rounds)?;
        tracer.set_enabled(alternate && traced_round(m.rounds));
        m.times.push(vec![None; singles.len()]);
        m.repeat_us.push(Vec::new());
        let mut replay = Replay::new(&session);
        for (i, one) in singles.iter().enumerate() {
            let id = (m.rounds * singles.len() + i) as u64;
            m.attempted += 1;
            let t0 = Instant::now();
            let result = tracer.span("serve.replay", id, || replay.run(one));
            let dt = t0.elapsed().as_secs_f64();
            match result {
                Ok(_) => {
                    let o = replay
                        .outcomes()
                        .last()
                        .expect("a served request has an outcome");
                    m.times[m.rounds][i] = Some(dt);
                    if m.rounds == 0 {
                        m.first_sight.push(o.tuned);
                    } else if m.first_sight.get(i) != Some(&o.tuned) {
                        m.kinds_repeat = false;
                    }
                    if o.tuned {
                        m.first_by_shape
                            .entry(o.shape_key.clone())
                            .or_default()
                            .push(dt * 1e3);
                    } else {
                        m.repeat_us[m.rounds].push(dt * 1e6);
                        m.repeat_by_phase
                            .entry(o.phase.name())
                            .or_default()
                            .push(dt * 1e6);
                    }
                    m.compiles += o.compiles();
                    m.simulations += o.simulate_calls();
                }
                Err(e) => {
                    if m.rounds == 0 {
                        m.first_sight.push(false);
                    }
                    m.failed += 1;
                    m.errors.push(format!("request {i}: {e}"));
                }
            }
        }
        // Each distinct kernel served counts once, so the figure does not
        // move with the seed's repeat mix.
        let firsts: Vec<RequestOutcome> = replay
            .outcomes()
            .iter()
            .filter(|o| o.tuned)
            .cloned()
            .collect();
        let phases = PhaseStats::aggregate(&firsts);
        if m.rounds > 0 && phases != m.phases {
            m.phases_repeat = false;
        }
        m.phases = phases;
        m.outcomes = replay.outcomes().to_vec();
        m.winners = replay.winners().clone();
        m.rounds += 1;
    }
    tracer.set_enabled(alternate);
    m.wall = start.elapsed();
    // Every round does the same work on a fresh session, so the
    // high-water mark is the most any one round took (on `fleet_join`,
    // with up to `plan.rounds_per_daemon` rounds of the daemon's threads).
    m.peak_rss_mb = sys::peak_rss_mb().unwrap_or(0.0);
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks_before, sys::host_cpu_ticks()) {
        if t1 > t0 {
            m.steal_pct = Some(s1.saturating_sub(s0) as f64 / (t1 - t0) as f64 * 100.0);
        }
    }
    Ok(m)
}

/// Takes `samples` set-up samples into `durations`, each the mean time
/// of `batch` builds, and returns the last state built. Within a batch,
/// each state is dropped as the next is built, so that the batch reuses
/// its memory instead of faulting in new pages; the state a sample ends
/// with is dropped outside the clock.
fn timed_setups<T>(
    samples: usize,
    batch: usize,
    durations: &mut Vec<f64>,
    mut build: impl FnMut(usize) -> io::Result<T>,
) -> io::Result<T> {
    let batch = batch.max(1);
    let mut last = None;
    for i in 0..samples.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        for j in 0..batch {
            last = Some(build(i * batch + j)?);
        }
        durations.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    Ok(last.expect("at least one set-up"))
}

pub fn run(opts: &Options, work: &Scratch) -> io::Result<Output> {
    let device = Device::h100_sxm5();
    // One compile worker: on a small shared host, a batch fanned out over
    // every core waits for its slowest worker, so steal on one core
    // slowed whole first sights out of proportion (see README).
    let workers = 1;
    let tracer = Tracer::new(opts.traced);
    let plan = opts.plan;
    let seed = opts.seed;
    let session = || new_session(&device, workers);
    let wl = opts.workload;
    let generate = || serving_trace(&serving_params(seed, &plan));

    // ---- set-up, `plan.setups` samples before the rounds. The starting
    // state of `cold_tune` is a trace and a fresh session, microseconds of
    // work, so each of its samples times a batch of them. `restart_disk`
    // and `fleet_join` build a warm tier.
    let mut setup_times = Vec::new();
    let batch = plan.setup_batch;
    // Declared in this order so that, on every exit path, the daemon
    // stops before its store directory is removed.
    let mut warm_dir: Option<Scratch> = None;
    let mut daemon: Option<ServerHandle> = None;
    let trace = match wl {
        Workload::ColdTune => {
            timed_setups(plan.setups, batch, &mut setup_times, |_| {
                Ok((generate(), session()))
            })?
            .0
        }
        Workload::RestartDisk => {
            let (trace, dir) = timed_setups(plan.setups, batch, &mut setup_times, |i| {
                let trace = generate();
                let dir = Scratch(work.fresh(&format!("restart-{i}"))?);
                let s = session().with_disk_cache(&dir.0)?;
                replay_trace(&s, &trace).map_err(io::Error::other)?;
                drop(s);
                // The restart itself: a fresh session over the filled directory.
                drop(session().with_disk_cache(&dir.0)?);
                Ok((trace, dir))
            })?;
            warm_dir = Some(dir);
            trace
        }
        Workload::FleetJoin => {
            let (trace, handle, store_dir) =
                timed_setups(plan.setups, batch, &mut setup_times, |i| {
                    let trace = generate();
                    let store_dir = Scratch(work.fresh(&format!("fleet-store-{i}"))?);
                    let store = ShardedStore::open(&store_dir.0)?;
                    let sock = RemoteAddr::Unix(work.path().join(format!("fleet-{i}.sock")));
                    let handle = tawa_cached::spawn(store, &sock)?;
                    let s = session().with_remote_cache(handle.addr().clone());
                    replay_trace(&s, &trace).map_err(io::Error::other)?;
                    drop(s);
                    // The joining session, as the timed rounds open it.
                    drop(session().with_remote_cache(handle.addr().clone()));
                    // Dropped in this order: the daemon stops, then its store goes.
                    Ok((trace, handle, store_dir))
                })?;
            daemon = Some(handle);
            warm_dir = Some(store_dir);
            trace
        }
    };

    // ---- the timed rounds.
    // Requests and errors counted by the daemons the rounds used, each
    // since its `baseline`.
    let mut served = (0, 0);
    let mut baseline = daemon.as_ref().map(ServerHandle::daemon_stats);
    let count = |served: &mut (u64, u64), d: &ServerHandle, since: &Option<DaemonStats>| {
        let (now, since) = (d.daemon_stats(), since.unwrap_or_default());
        served.0 += now.requests.saturating_sub(since.requests);
        served.1 += now.errors.saturating_sub(since.errors);
    };
    let measured = match wl {
        Workload::ColdTune => measure(&trace, opts.seconds, &plan, &tracer, |_| Ok(session()))?,
        Workload::RestartDisk => {
            let dir = warm_dir
                .as_ref()
                .expect("restart set-up fills a directory")
                .0
                .clone();
            measure(&trace, opts.seconds, &plan, &tracer, |_| {
                session().with_disk_cache(&dir)
            })?
        }
        Workload::FleetJoin => {
            let store = warm_dir
                .as_ref()
                .expect("fleet set-up fills a store")
                .0
                .clone();
            let addr = daemon
                .as_ref()
                .expect("fleet set-up starts a daemon")
                .addr()
                .clone();
            measure(&trace, opts.seconds, &plan, &tracer, |round| {
                if round > 0 && round % plan.rounds_per_daemon == 0 {
                    // A restart over the same warm store, outside the
                    // clock (see `Plan::full`).
                    let old = daemon.take().expect("a daemon serves the rounds");
                    count(&mut served, &old, &baseline);
                    old.shutdown();
                    let fresh = tawa_cached::spawn(ShardedStore::open(&store)?, &addr)?;
                    baseline = Some(fresh.daemon_stats());
                    daemon = Some(fresh);
                }
                Ok(session().with_remote_cache(addr.clone()))
            })?
        }
    };
    let daemon_delta = daemon.as_ref().map(|d| {
        count(&mut served, d, &baseline);
        let per_round = |n: u64| n as f64 / measured.rounds as f64;
        (per_round(served.0), per_round(served.1))
    });
    // The disk tier a timed session used, if any (the fleet's directory
    // belongs to its daemon).
    let warm_disk: Option<PathBuf> = match wl {
        Workload::RestartDisk => warm_dir.as_ref().map(|d| d.0.clone()),
        _ => None,
    };

    // ---- checks, outside the timed region.
    let mut v = Verdict::default();
    v.check(measured.failed == 0, || {
        format!("{} requests failed: {:?}", measured.failed, measured.errors)
    });
    v.check(measured.phases_repeat, || {
        "phase aggregates differ between rounds".to_string()
    });
    v.check(measured.kinds_repeat, || {
        "a request was a first sight in one round and a repeat in another".to_string()
    });
    let shapes = distinct(&trace);
    checks::check_flops(&mut v, &shapes);
    let ref_dir = work.fresh("reference")?;
    let refs = checks::references(
        &mut v,
        &shapes,
        &measured.winners,
        &session,
        &ref_dir,
        &tracer,
    );
    checks::check_served(&mut v, &measured.outcomes, &refs);
    match wl {
        Workload::RestartDisk | Workload::FleetJoin => {
            v.check(measured.compiles == 0 && measured.simulations == 0, || {
                format!(
                    "warm rounds compiled {} and simulated {} times",
                    measured.compiles, measured.simulations
                )
            });
            let (tier, fresh) = match wl {
                Workload::RestartDisk => (
                    "disk",
                    session().with_disk_cache(warm_disk.as_ref().expect("dir"))?,
                ),
                _ => (
                    "daemon",
                    session().with_remote_cache(daemon.as_ref().expect("daemon").addr().clone()),
                ),
            };
            checks::check_transparent(&mut v, tier, &fresh, &refs);
        }
        Workload::ColdTune => checks::check_sweeps(
            &mut v,
            &shapes,
            seed,
            if plan.full { 3 } else { 1 },
            &session,
        ),
    }
    let numerics_session = session();
    let mut numerics = Vec::new();
    for (r, o) in checks::family_representatives(&shapes, &measured.winners) {
        if let Some(err) = checks::check_numerics(&mut v, &numerics_session, r, o) {
            numerics.push(format!("{}={err:.2e}", r.phase()));
        }
    }

    // ---- the self-report.
    let (cpu_s, wait_s) = sys::schedstat().unwrap_or((0.0, 0.0));
    // The first sights or the repeats among one row of per-request
    // times, scaled.
    let of_kind = |row: &[Option<f64>], first: bool, scale: f64| -> Vec<f64> {
        row.iter()
            .zip(&measured.first_sight)
            .filter(|(_, &f)| f == first)
            .filter_map(|(t, _)| t.map(|t| t * scale))
            .collect()
    };
    // Each request's best round; its median and tail over the requests.
    let best = stats::best_of_rounds(&measured.times);
    let first = summarize(&of_kind(&best, true, 1e3), fixed_tail(&plan, true));
    let repeat = summarize(&of_kind(&best, false, 1e6), fixed_tail(&plan, false));
    // The median over every round's samples, for the self-report: what
    // the host's slow stretches cost.
    let all_rounds = |first: bool, scale: f64| -> f64 {
        let all: Vec<f64> = measured
            .times
            .iter()
            .flat_map(|row| of_kind(row, first, scale))
            .collect();
        summarize(&all, None).p50
    };
    let mut notes = vec![
        format!(
            "workload={} seed={seed} traced={} nproc={} compile_workers={workers} rounds={} wall_s={:.3}",
            wl.name(),
            opts.traced,
            sys::nproc(),
            measured.rounds,
            measured.wall.as_secs_f64()
        ),
        format!(
            "attempted={} failed={} distinct_shapes={} requests_per_round={}",
            measured.attempted,
            measured.failed,
            shapes.len(),
            trace.requests.len()
        ),
        format!(
            "first_sight samples={} (each the best of {} rounds) p50={:.4}ms tail=p{:?}; median over every round {:.4}ms",
            first.samples,
            measured.rounds,
            first.p50,
            first.tail.map(|t| t.0),
            all_rounds(true, 1e3)
        ),
        format!(
            "repeat samples={} (each the best of {} rounds) p50={:.4}us tail=p{:?}; median over every round {:.4}us",
            repeat.samples,
            measured.rounds,
            repeat.p50,
            repeat.tail.map(|t| t.0),
            all_rounds(false, 1e6)
        ),
        format!(
            "slowest first sights (median ms): {}",
            slowest_shapes(&measured.first_by_shape, 4)
        ),
        format!(
            "repeat median by phase (us): {}",
            measured
                .repeat_by_phase
                .iter()
                .map(|(phase, v)| format!("{phase}={:.1}x{}", median(v), v.len()))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "setup samples={} median_s={:.6} min_s={:.6} max_s={:.6}",
            setup_times.len(),
            median(&setup_times),
            setup_times.iter().copied().fold(f64::INFINITY, f64::min),
            setup_times.iter().copied().fold(0.0, f64::max)
        ),
        format!(
            "main_thread cpu_s={cpu_s:.3} runqueue_wait_s={wait_s:.3} (/proc/self/schedstat) host_steal_pct={} (/proc/stat, over the rounds)",
            measured
                .steal_pct
                .map_or("n/a".to_string(), |p| format!("{p:.1}"))
        ),
        // Not a metric: with one seed, identical processes read 9.0 to
        // 12.8 MiB on `restart_disk` (see README).
        format!(
            "peak_rss_mib={:.2} (VmHWM after the rounds)",
            measured.peak_rss_mb
        ),
        format!("numerics max relative error: {}", numerics.join(" ")),
    ];

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut chrome_trace = None;
    if !opts.traced {
        let tail_or_p50 = |s: &stats::Summary| s.tail.map_or(s.p50, |t| t.1);
        metrics.push(("first_sight_p50_ms".into(), first.p50, "ms"));
        metrics.push(("first_sight_tail_ms".into(), tail_or_p50(&first), "ms"));
        metrics.push(("repeat_p50_us".into(), repeat.p50, "us"));
        metrics.push(("repeat_tail_us".into(), tail_or_p50(&repeat), "us"));
        metrics.push(("setup_s".into(), median(&setup_times), "s"));
        for phase in Phase::ALL {
            let tflops = measured
                .phases
                .iter()
                .find(|p| p.phase == phase)
                .map_or(0.0, |p| p.tflops);
            metrics.push((format!("sim_tflops_{}", phase.name()), tflops, "TFLOP/s"));
        }
    } else {
        let tier_session = match wl {
            Workload::RestartDisk => {
                session().with_disk_cache(warm_disk.as_ref().expect("warm directory"))?
            }
            Workload::FleetJoin => {
                session().with_remote_cache(daemon.as_ref().expect("daemon").addr().clone())
            }
            Workload::ColdTune => session(),
        };
        let tiers = Tiers {
            disk: warm_disk.as_deref(),
            daemon: daemon.as_ref(),
            session: &tier_session,
            ref_dir: &ref_dir,
        };
        for i in 0..20 {
            tracer.span("serve.trace_gen", i, generate);
        }
        let per_layer = layers::reinvoke(
            &mut v,
            &tracer,
            &refs,
            &tiers,
            &session,
            &measured.outcomes,
            &trace,
        );
        for (name, (value, unit)) in per_layer {
            metrics.push((name, value, unit));
        }
        let (requests, errors) = daemon_delta.unwrap_or((0.0, 0.0));
        metrics.push(("cached.requests".into(), requests, "count"));
        metrics.push(("cached.errors".into(), errors, "count"));
        // The overhead compares the repeat medians of the traced and the
        // untraced round of each pair of rounds, and takes the median over
        // the pairs, so a drift of the host's speed over the run cancels.
        // Repeats are the most numerous and the cheapest requests, so a
        // per-span cost shows there first.
        let ratios: Vec<f64> = measured
            .repeat_us
            .chunks_exact(2)
            .enumerate()
            .filter(|(_, pair)| pair.iter().all(|r| !r.is_empty()))
            .map(|(i, pair)| {
                let (off, on) = if traced_round(2 * i) {
                    (&pair[1], &pair[0])
                } else {
                    (&pair[0], &pair[1])
                };
                median(on) / median(off)
            })
            .collect();
        let overhead = if ratios.is_empty() {
            0.0
        } else {
            (median(&ratios) - 1.0) * 100.0
        };
        metrics.push(("trace.overhead_pct".into(), overhead, "%"));
        let all = tracer.spans();
        notes.push(format!(
            "tracing: {} spans; repeat median of traced over untraced rounds, median over {} pairs: overhead {overhead:.2}%",
            all.len(),
            ratios.len()
        ));
        notes.push("layer                      count    self_ms   median_us".to_string());
        for (name, row) in spans::layer_table(&all) {
            notes.push(format!(
                "{name:<26} {:>5} {:>10.3} {:>11.3}",
                row.count,
                row.self_ns as f64 / 1e6,
                row.median_ns / 1e3
            ));
        }
        chrome_trace = Some(spans::chrome_trace_json(&all));
    }
    notes.push(format!("checks={} failures={}", v.checks, v.failures.len()));
    // The daemon stops (and removes its socket) before its store and the
    // work directory go away.
    drop(daemon);
    drop(warm_dir);
    Ok(Output {
        correct: v.correct(),
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
        notes,
        failures: v.failures,
        chrome_trace,
    })
}

/// Whether round `round` of a traced run is traced: the pairs of rounds
/// (0, 1), (2, 3), … each hold one traced round, first in every other
/// pair, so that neither kind of round always runs first.
fn traced_round(round: usize) -> bool {
    matches!(round % 4, 1 | 2)
}

/// The `n` shapes with the slowest median first sight, as
/// `median_ms×samples <shape>` items.
fn slowest_shapes(by_shape: &HashMap<String, Vec<f64>>, n: usize) -> String {
    let mut rows: Vec<(f64, usize, &str)> = by_shape
        .iter()
        .map(|(k, v)| (median(v), v.len(), k.strip_prefix("request ").unwrap_or(k)))
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    rows.iter()
        .take(n)
        .map(|(ms, count, key)| format!("{ms:.2}x{count} [{key}]"))
        .collect::<Vec<_>>()
        .join("; ")
}

/// The tail percentile a workload reports: fixed by the requests of one
/// round of seed 0, so all its runs agree on it.
pub fn fixed_tail(plan: &Plan, first_sight: bool) -> Option<f64> {
    let first_sights = distinct(&serving_trace(&serving_params(0, plan))).len();
    stats::tail_percentile(if first_sight {
        first_sights
    } else {
        plan.serving_requests.saturating_sub(first_sights)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Metric names listed under `key` in the repository's BENCHMARK.json.
    fn declared(key: &str) -> Vec<String> {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..text[start..].find(']').map_or(text.len(), |e| start + e)];
        section
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    /// A reduced-size run of `wl`, untraced and traced, must pass every
    /// correctness check and print exactly the declared metrics.
    fn reduced_pass(wl: Workload) {
        for traced in [false, true] {
            let base = Path::new(".e2ebench").join(format!("test-{}-{traced}", wl.name()));
            let work = Scratch::work_dir(&base).expect("work directory");
            let opts = Options {
                workload: wl,
                seed: 7,
                seconds: 0.0,
                traced,
                plan: Plan::reduced(),
            };
            let out = run(&opts, &work).expect("reduced run");
            assert!(
                out.correct,
                "{} traced={traced}: {:#?}",
                wl.name(),
                out.failures
            );
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0);
            let mut got: Vec<String> = out.metrics.iter().map(|m| m.0.clone()).collect();
            let mut want = declared(if traced { "per_layer" } else { "end_to_end" });
            got.sort();
            want.sort();
            assert_eq!(got, want, "{} traced={traced}", wl.name());
            for (name, value, _) in &out.metrics {
                // A measured overhead may come out below 0 by noise.
                let signed = name == "trace.overhead_pct";
                assert!(
                    value.is_finite() && (signed || *value >= 0.0),
                    "{name} = {value}"
                );
            }
            if !traced {
                for (name, value, _) in &out.metrics {
                    assert!(*value > 0.0, "{} end-to-end metric {name} is 0", wl.name());
                }
            } else {
                assert!(out
                    .chrome_trace
                    .as_deref()
                    .is_some_and(|t| t.contains("\"ph\":\"X\"")));
            }
            drop(work);
            let _ = std::fs::remove_dir(&base);
        }
    }

    #[test]
    fn reduced_cold_tune() {
        reduced_pass(Workload::ColdTune);
    }

    #[test]
    fn reduced_restart_disk() {
        reduced_pass(Workload::RestartDisk);
    }

    #[test]
    fn reduced_fleet_join() {
        reduced_pass(Workload::FleetJoin);
    }

    #[test]
    fn fixed_tails_have_their_samples() {
        for wl in Workload::ALL {
            let plan = Plan::full(wl);
            assert_eq!(fixed_tail(&plan, true), Some(75.0), "{}", wl.name());
            assert_eq!(fixed_tail(&plan, false), Some(90.0), "{}", wl.name());
        }
    }
}
