//! The three workloads and the seeded inputs each one replays.
//!
//! Every input is a pure function of `--seed`. The seed picks the order
//! of arrivals and how often each shape repeats; it never changes which
//! distinct shapes a workload is made of, so ten seeds measure the same
//! work and their figures compare.

use std::collections::BTreeSet;

use tawa_core::autotune::TuneSpace;
use tawa_core::CompileOptions;
use tawa_frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig, Tile};
use tawa_frontend::kernels::{attention, batched_gemm, gemm, grouped_gemm};
use tawa_frontend::Program;
use tawa_ir::types::DType;
use tawa_serve::{generate, Request, Trace, TraceParams};

/// A named workload: one process runs exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh in-memory session per round replaying the serving mix:
    /// every new shape pays compile, static gate, guided sweep and
    /// simulation.
    ColdTune,
    /// Fresh session per round over a disk directory a set-up replay
    /// filled: zero compiles, zero simulations, one directory scan per
    /// `cache_stats` call.
    RestartDisk,
    /// Fresh session per round whose only warm tier is an in-process
    /// `tawa-cached` daemon a set-up replay warmed.
    FleetJoin,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdTune,
        Workload::RestartDisk,
        Workload::FleetJoin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdTune => "cold_tune",
            Workload::RestartDisk => "restart_disk",
            Workload::FleetJoin => "fleet_join",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How big a run is. `full` is what the benchmark measures; `reduced`
/// keeps every code path and check but shrinks shapes and counts so the
/// benchmark's own tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub full: bool,
    /// Requests in the serving trace (first sights + repeats).
    pub serving_requests: usize,
    /// Rounds a run always completes, whatever `--seconds` says. Each
    /// request's latency is its best over the rounds.
    pub min_rounds: usize,
    /// Rounds one `tawa-cached` daemon serves on `fleet_join` before the
    /// run restarts it over the same warm store (see `Plan::full`).
    pub rounds_per_daemon: usize,
    /// Set-up samples a run takes before its rounds. `setup_s` is their
    /// median.
    pub setups: usize,
    /// Starting states built and timed together as one set-up sample:
    /// more than one where a single set-up is microseconds of work, so
    /// that a sample is the mean of a batch long enough to sit well above
    /// timer and scheduler noise.
    pub setup_batch: usize,
}

impl Plan {
    pub fn full(workload: Workload) -> Plan {
        let (min_rounds, setups, setup_batch) = match workload {
            Workload::ColdTune => (4, 21, 256),
            Workload::RestartDisk => (3, 5, 1),
            Workload::FleetJoin => (3, 5, 1),
        };
        // The daemon keeps every finished connection thread (and its
        // stack mapping) until it shuts down, and `fleet_join` dials once
        // per lookup: one daemon serving a whole run would run the
        // process out of memory mappings on a fast host. So the run
        // restarts the daemon, between rounds, every 24 rounds (~15 000
        // threads), which stays far below.
        Plan {
            full: true,
            serving_requests: 240,
            min_rounds,
            rounds_per_daemon: 24,
            setups,
            setup_batch,
        }
    }

    #[cfg(test)]
    pub fn reduced() -> Plan {
        Plan {
            full: false,
            serving_requests: 24,
            min_rounds: 1,
            rounds_per_daemon: 1,
            setups: 2,
            setup_batch: 2,
        }
    }
}

/// The serving mixture behind `cold_tune`, `restart_disk` and
/// `fleet_join`: the repository's Llama-70B mixture
/// (`TraceParams::llama_mix`) with its four projection GEMMs and its
/// phase weights, its decode sequence lengths widened by 512, 2048 and
/// 8192 and its MoE expert counts by 3, 5 and 8, so that the pools hold 44
/// distinct shapes in FP16 and FP8: one round holds more than the 40 first
/// sights a tail needs.
pub fn serving_params(seed: u64, plan: &Plan) -> TraceParams {
    if !plan.full {
        return TraceParams {
            dtypes: vec![DType::F16, DType::F8E4M3],
            ..TraceParams::quick("e2ebench-serving", seed, plan.serving_requests)
        };
    }
    TraceParams {
        decode_seq_lens: vec![512, 1024, 2048, 4096, 8192, 16384],
        moe_expert_counts: vec![2, 3, 4, 5, 6, 8],
        ..TraceParams::llama_mix("e2ebench-serving", seed, plan.serving_requests)
    }
}

/// Every distinct request the pools of `params` can produce, built the
/// way the trace generator builds them.
pub fn pool_requests(params: &TraceParams) -> Vec<Request> {
    let mut out = Vec::new();
    for &dtype in &params.dtypes {
        for &[m, n, k] in &params.prefill_shapes {
            out.push(Request::Prefill(GemmConfig {
                tile: Tile::LARGE,
                ..GemmConfig::new(m, n, k).with_dtype(dtype)
            }));
        }
        for &batch in &params.decode_batches {
            for &seq_len in &params.decode_seq_lens {
                for &head_dim in &params.decode_head_dims {
                    out.push(Request::Decode(AttentionConfig {
                        batch,
                        head_dim,
                        ..AttentionConfig::paper(seq_len, true, dtype)
                    }));
                }
            }
        }
        for &experts in &params.moe_expert_counts {
            out.push(Request::Moe(GroupedGemmConfig {
                dtype,
                tile: Tile::LARGE,
                ..GroupedGemmConfig::paper_sweep(experts)
            }));
        }
    }
    out
}

/// The seeded serving trace: the generator's stream, followed by any pool
/// shape the stream happened not to draw, so every seed sees the same
/// set of distinct shapes and only their order and repeats change.
pub fn serving_trace(params: &TraceParams) -> Trace {
    let mut trace = generate(params);
    let seen: BTreeSet<String> = trace.requests.iter().map(Request::to_line).collect();
    for r in pool_requests(params) {
        if !seen.contains(&r.to_line()) {
            trace.requests.push(r);
        }
    }
    trace
}

/// The distinct requests of `trace`, in order of first arrival.
pub fn distinct(trace: &Trace) -> Vec<Request> {
    let mut seen = BTreeSet::new();
    trace
        .requests
        .iter()
        .filter(|r| seen.insert(r.to_line()))
        .cloned()
        .collect()
}

// The three functions below restate what `tawa_serve::Replay` does for a
// request (its tune space, base options and program are private to it).
// The traced run re-sweeps every distinct shape with them and checks that
// the winner equals the replay's, so a drift between the two shows as a
// failed check rather than as quietly different work.

/// The zoo program serving `request`.
pub fn program_for(request: &Request) -> Program {
    match request {
        Request::Prefill(cfg) if cfg.batch > 1 => batched_gemm(cfg),
        Request::Prefill(cfg) => gemm(cfg),
        Request::Decode(cfg) => attention(cfg),
        Request::Moe(cfg) => grouped_gemm(cfg),
    }
}

/// The options a sweep for `request` starts from.
pub fn base_options(request: &Request) -> CompileOptions {
    CompileOptions {
        cooperative: 2,
        persistent: matches!(request, Request::Moe(_)),
        ..CompileOptions::default()
    }
}

/// The tune space a first sight of `request` sweeps.
pub fn tune_space(request: &Request) -> TuneSpace {
    match request {
        Request::Prefill(_) | Request::Moe(_) => TuneSpace {
            aref_depths: vec![2, 3],
            mma_depths: vec![1, 2],
            cooperative: vec![2],
            persistent: vec![false, true],
        },
        Request::Decode(_) => TuneSpace {
            aref_depths: vec![1, 2],
            mma_depths: vec![1, 2],
            cooperative: vec![2],
            persistent: vec![false],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_trace_covers_every_pool_shape_for_every_seed() {
        let plan = Plan::full(Workload::ColdTune);
        for seed in [0, 1, 7, 12345] {
            let params = serving_params(seed, &plan);
            let trace = serving_trace(&params);
            assert_eq!(distinct(&trace).len(), 44, "seed {seed}");
            assert!(trace.requests.len() >= plan.serving_requests);
            assert_eq!(trace, serving_trace(&params), "seeded trace must repeat");
        }
    }
}
