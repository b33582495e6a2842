//! Correctness checks, run after the timed region. Each compares the
//! program's output with something the benchmark computes itself or with
//! a property the output must have — never with a stored copy of an
//! earlier run's output.

use std::collections::HashMap;
use std::sync::Arc;

use gpu_sim::{serialize_report, Device, SimReport};
use tawa_core::autotune::{autotune_with_session_strategy, SweepStrategy};
use tawa_core::cache::CacheKey;
use tawa_core::interp::{run_grid, DeviceMemory};
use tawa_core::{CompileOptions, CompileSession, DiskCache, EntryKind};
use tawa_frontend::config::{AttentionConfig, GemmConfig, GroupedGemmConfig};
use tawa_frontend::kernels::{attention, gemm, grouped_gemm};
use tawa_frontend::Program;
use tawa_ir::spec::LaunchSpec;
use tawa_ir::types::DType;
use tawa_serve::{Phase, Request, RequestOutcome};
use tawa_wsir::{Kernel, MmaDtype};

use crate::plan::{base_options, program_for, tune_space};
use crate::spans::Tracer;

/// Failed checks, each one line. Empty means every check passed.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failures: Vec<String>,
    pub checks: usize,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---------------------------------------------------------------------
// Independent FLOP formulas.

/// `2·B·M·N·K` for a (batched) GEMM.
pub fn gemm_flops(batch: usize, m: usize, n: usize, k: usize) -> f64 {
    2.0 * (batch * m * n * k) as f64
}

/// Causal or full attention forward over the visited `block_m × block_n`
/// tiles: `4·block_m·block_n·d` per tile pair (QKᵀ and PV), with the
/// causal triangle counted tile by tile.
pub fn attention_flops(cfg: &AttentionConfig) -> f64 {
    let q_tiles = cfg.seq_len.div_ceil(cfg.block_m) as u64;
    let kv_full = cfg.seq_len.div_ceil(cfg.block_n) as u64;
    let pairs: u64 = if cfg.causal && cfg.block_m == cfg.block_n {
        // Row tile i sees tiles 0..=i: the triangle q(q+1)/2.
        q_tiles * (q_tiles + 1) / 2
    } else if cfg.causal {
        (1..=q_tiles)
            .map(|i| {
                (i * cfg.block_m as u64)
                    .div_ceil(cfg.block_n as u64)
                    .min(kv_full)
            })
            .sum()
    } else {
        q_tiles * kv_full
    };
    let per_pair = 4 * cfg.block_m * cfg.block_n * cfg.head_dim;
    (cfg.batch * cfg.heads) as f64 * pairs as f64 * per_pair as f64
}

/// Sum of the experts' GEMMs.
pub fn grouped_flops(cfg: &GroupedGemmConfig) -> f64 {
    let rows: usize = cfg.group_ms.iter().sum();
    gemm_flops(1, rows, cfg.n, cfg.k)
}

pub fn request_flops(r: &Request) -> f64 {
    match r {
        Request::Prefill(c) => gemm_flops(c.batch, c.m, c.n, c.k),
        Request::Decode(c) => attention_flops(c),
        Request::Moe(c) => grouped_flops(c),
    }
}

/// Every request's FLOPs, computed here from its shape, equal the
/// program's own count and the request's.
pub fn check_flops(v: &mut Verdict, distinct: &[Request]) {
    for r in distinct {
        let want = request_flops(r);
        let program = program_for(r).spec().useful_flops;
        v.check(want == program && want == r.flops(), || {
            format!(
                "flops of `{}`: formula {want}, program {program}, request {}",
                r.to_line(),
                r.flops()
            )
        });
    }
}

// ---------------------------------------------------------------------
// Cold references and physical bounds.

/// A request's winning kernel compiled and simulated cold, in a fresh
/// session of its own.
pub struct Reference {
    pub request: Request,
    pub opts: CompileOptions,
    pub program: Program,
    pub kernel: Arc<Kernel>,
    pub report: SimReport,
    /// The key the report is cached under, read back from the disk tier.
    pub key: CacheKey,
}

fn mma_dtype(d: DType) -> MmaDtype {
    match d {
        DType::F8E4M3 => MmaDtype::F8,
        _ => MmaDtype::F16,
    }
}

fn request_dtype(r: &Request) -> DType {
    match r {
        Request::Prefill(c) => c.dtype,
        Request::Decode(c) => c.dtype,
        Request::Moe(c) => c.dtype,
    }
}

/// Compiles and simulates every winner cold, each in a fresh session
/// whose only extra tier is the private directory `ref_dir`, and checks
/// the physical bounds of each result. The traced run times the memory
/// hit that follows the cold call (`core.hit`).
pub fn references(
    v: &mut Verdict,
    distinct: &[Request],
    winners: &HashMap<String, CompileOptions>,
    new_session: &dyn Fn() -> CompileSession,
    ref_dir: &std::path::Path,
    tracer: &Tracer,
) -> Vec<Reference> {
    let device = new_session().device().clone();
    let disk = DiskCache::open(ref_dir).expect("reference cache directory");
    let mut out = Vec::new();
    for (i, r) in distinct.iter().enumerate() {
        let line = r.to_line();
        let Some(opts) = winners.get(&line).cloned() else {
            v.check(false, || format!("no winner recorded for `{line}`"));
            continue;
        };
        let program = program_for(r);
        let before: Vec<CacheKey> = sim_keys(&disk);
        let session = new_session().with_disk(DiskCache::open(ref_dir).expect("reference cache"));
        let cold = session.compile_and_simulate_program(&program, &opts);
        let stats = session.cache_stats();
        let report = match cold {
            Ok(report) => report,
            Err(e) => {
                v.check(false, || format!("cold compile of `{line}` failed: {e}"));
                continue;
            }
        };
        v.check(stats.kernel_misses >= 1 && stats.sim_misses == 1, || {
            format!("reference for `{line}` was not cold: {stats:?}")
        });
        let hit = tracer.span("core.hit", i as u64, || {
            session.compile_and_simulate_program(&program, &opts)
        });
        v.check(hit.as_ref().ok() == Some(&report), || {
            format!("memory hit for `{line}` differs from its cold report")
        });
        let kernel = session
            .compile_program(&program, &opts)
            .expect("a kernel that simulated compiles");
        let key = sim_keys(&disk).into_iter().find(|k| !before.contains(k));
        let Some(key) = key else {
            v.check(false, || format!("no sim entry written for `{line}`"));
            continue;
        };
        check_bounds(v, &device, r, &kernel, &report);
        out.push(Reference {
            request: r.clone(),
            opts,
            program,
            kernel,
            report,
            key,
        });
    }
    out
}

fn sim_keys(disk: &DiskCache) -> Vec<CacheKey> {
    disk.entries()
        .into_iter()
        .filter(|e| e.kind == EntryKind::SimReport)
        .map(|e| e.key)
        .collect()
}

/// Simulated TFLOP/s is positive, at most the device peak for the dtype,
/// and at most the analytic model's upper bound for the kernel.
fn check_bounds(v: &mut Verdict, device: &Device, r: &Request, kernel: &Kernel, rep: &SimReport) {
    let peak = device.peak_tflops(mma_dtype(request_dtype(r)));
    let bound = gpu_sim::estimate(kernel, device).tflops_upper_bound;
    v.check(
        rep.tflops > 0.0 && rep.tflops <= peak && rep.tflops <= bound,
        || {
            format!(
                "`{}`: {} TFLOP/s outside (0, peak {peak}] or above the analytic bound {bound}",
                r.to_line(),
                rep.tflops
            )
        },
    );
}

/// Reports compare bit for bit through their serialized form (floats as
/// IEEE-754 bit patterns), so NaN payloads and signed zeros count too.
pub fn same_report(a: &SimReport, b: &SimReport) -> bool {
    serialize_report(a) == serialize_report(b)
}

/// Every served outcome of the last round has the simulated latency of
/// its shape's cold reference.
pub fn check_served(v: &mut Verdict, outcomes: &[RequestOutcome], refs: &[Reference]) {
    let by_line: HashMap<String, &Reference> =
        refs.iter().map(|r| (r.request.to_line(), r)).collect();
    for o in outcomes {
        let want = by_line.get(&o.shape_key).map(|r| r.report.total_time_us);
        v.check(
            want.map(f64::to_bits) == Some(o.latency_us.to_bits()),
            || {
                format!(
                    "request {} `{}` served latency {} us, cold reference {want:?}",
                    o.index, o.shape_key, o.latency_us
                )
            },
        );
    }
}

/// A fresh session whose only warm tier is the one under test serves
/// every winner with a report identical to the cold reference, and
/// compiles and simulates nothing.
pub fn check_transparent(
    v: &mut Verdict,
    tier: &str,
    session: &CompileSession,
    refs: &[Reference],
) {
    for r in refs {
        let got = session.compile_and_simulate_program(&r.program, &r.opts);
        v.check(
            got.as_ref().is_ok_and(|g| same_report(g, &r.report)),
            || {
                format!(
                    "{tier}: `{}` differs from its cold report",
                    r.request.to_line()
                )
            },
        );
    }
    let s = session.cache_stats();
    v.check(s.kernel_misses == 0 && s.sim_misses == 0, || {
        format!(
            "{tier}: {} compiles and {} simulations serving warm winners",
            s.kernel_misses, s.sim_misses
        )
    });
}

/// On a seeded sample of shapes, the guided sweep's best TFLOP/s is
/// bit-identical to the exhaustive sweep's, each on a fresh session.
pub fn check_sweeps(
    v: &mut Verdict,
    distinct: &[Request],
    seed: u64,
    samples: usize,
    new_session: &dyn Fn() -> CompileSession,
) {
    if distinct.is_empty() {
        return;
    }
    let mut state = seed ^ 0x0053_5745_4550;
    for _ in 0..samples.min(distinct.len()) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = &distinct[(state >> 33) as usize % distinct.len()];
        let program = program_for(r);
        let best = |strategy| {
            autotune_with_session_strategy(
                &new_session(),
                program.module(),
                program.spec(),
                &base_options(r),
                &tune_space(r),
                strategy,
            )
            .best_tflops()
            .map(f64::to_bits)
        };
        let guided = best(SweepStrategy::default());
        let exhaustive = best(SweepStrategy::Exhaustive);
        v.check(guided.is_some() && guided == exhaustive, || {
            format!(
                "`{}`: guided best {guided:?} != exhaustive best {exhaustive:?} (bits)",
                r.to_line()
            )
        });
    }
}

// ---------------------------------------------------------------------
// Numerics: scaled-down kernels through the winner's pipeline and the
// functional interpreter, against references computed here.

fn fill_a(i: usize) -> f32 {
    ((i * 7 % 9) as f32 - 4.0) * 0.25
}

fn fill_b(i: usize) -> f32 {
    ((i * 5 % 7) as f32 - 3.0) * 0.25
}

fn fill_v(i: usize) -> f32 {
    ((i * 13 % 11) as f32 - 5.0) * 0.125
}

/// `C = A·Bᵀ` with `A: m×k`, `B: n×k`, accumulated in f64.
pub fn reference_gemm(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = (0..k)
                .map(|l| a[i * k + l] as f64 * b[j * k + l] as f64)
                .sum();
        }
    }
    c
}

/// Softmax attention of one head, `q, k, v: l×d`, accumulated in f64.
pub fn reference_attention(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    l: usize,
    d: usize,
    causal: bool,
) -> Vec<f64> {
    let scale = 1.0 / (d as f64).sqrt();
    let mut out = vec![0.0; l * d];
    for i in 0..l {
        let hi = if causal { i + 1 } else { l };
        let scores: Vec<f64> = (0..hi)
            .map(|j| {
                scale
                    * (0..d)
                        .map(|c| q[i * d + c] as f64 * k[j * d + c] as f64)
                        .sum::<f64>()
            })
            .collect();
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
        let denom: f64 = weights.iter().sum();
        for c in 0..d {
            let acc: f64 = (0..hi).map(|j| weights[j] * v[j * d + c] as f64).sum();
            out[i * d + c] = acc / denom;
        }
    }
    out
}

/// Worst error allowed against the f64 reference, relative to
/// `max(|want|, 1)`: the output element type's truncation step plus
/// slack for the f32 accumulation and rounded intermediates.
pub fn tolerance(dtype: DType) -> f64 {
    match dtype {
        DType::F8E4M3 => 0.25,
        _ => 0.02,
    }
}

/// Largest error of `got` against `want`, relative to `max(|want|, 1)`.
pub fn max_rel_error(got: &[f32], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(&g, &w)| (g as f64 - w).abs() / w.abs().max(1.0))
        .fold(0.0, f64::max)
}

/// The scaled-down instance of `request`'s kernel family — same element
/// type, tiles and masking, a handful of tiles in all — and the launch
/// the interpreter runs it under. A grouped GEMM's launch classes group
/// tiles for the simulator's cost model, not by program id, so its fused
/// body runs under the uniform launch of the fused problem: every
/// expert's tiles, once each.
pub fn scaled_program(request: &Request) -> (Program, LaunchSpec) {
    let program = match request {
        Request::Prefill(c) => gemm(&GemmConfig {
            m: 2 * c.tile.m,
            n: 2 * c.tile.n,
            k: 3 * c.tile.k,
            batch: 1,
            ..*c
        }),
        Request::Moe(c) => {
            let cfg = scaled_moe(c);
            let fused = GemmConfig {
                m: cfg.group_ms.iter().sum(),
                n: cfg.n,
                k: cfg.k,
                batch: 1,
                dtype: cfg.dtype,
                tile: cfg.tile,
            };
            let spec = gemm(&fused).spec().clone();
            return (grouped_gemm(&cfg), spec);
        }
        Request::Decode(c) => attention(&scaled_attention(c)),
    };
    let spec = program.spec().clone();
    (program, spec)
}

fn scaled_moe(c: &GroupedGemmConfig) -> GroupedGemmConfig {
    GroupedGemmConfig {
        group_ms: vec![c.tile.m, 2 * c.tile.m],
        n: c.tile.n,
        k: 2 * c.tile.k,
        ..c.clone()
    }
}

fn scaled_attention(c: &AttentionConfig) -> AttentionConfig {
    AttentionConfig {
        batch: 1,
        heads: 1,
        seq_len: 2 * c.block_m.max(c.block_n),
        ..*c
    }
}

/// Each expert's `C_g = A_g·Bᵀ` over its own rows of `A`, stacked.
pub fn reference_grouped(a: &[f32], b: &[f32], group_ms: &[usize], n: usize, k: usize) -> Vec<f64> {
    let mut out = Vec::new();
    let mut row = 0;
    for &m in group_ms {
        out.extend(reference_gemm(&a[row * k..(row + m) * k], b, m, n, k));
        row += m;
    }
    out
}

/// Runs the scaled instance of `request`'s family through
/// `CompileSession::pipeline_spec(opts)` and the interpreter, and compares
/// its output with the reference computed here. Returns the worst error.
pub fn check_numerics(
    v: &mut Verdict,
    session: &CompileSession,
    request: &Request,
    opts: &CompileOptions,
) -> Option<f64> {
    let (program, spec) = scaled_program(request);
    let mut module = program.into_parts().0;
    let line = request.to_line();
    let lowered = CompileSession::pipeline_spec(opts)
        .and_then(|s| s.build(session.registry()))
        .map_err(|d| d.to_string())
        .and_then(|mut pm| pm.run(&mut module).map(|_| ()).map_err(|e| e.to_string()));
    if let Err(e) = lowered {
        v.check(false, || format!("numerics `{line}`: pipeline failed: {e}"));
        return None;
    }
    let mut mem = DeviceMemory::from_spec(&spec);
    mem.fill(0, fill_a);
    mem.fill(1, fill_b);
    let (want, out_buf) = {
        let (a, b) = (&mem.buffer(0).data, &mem.buffer(1).data);
        match request {
            Request::Prefill(c) => (
                reference_gemm(a, b, 2 * c.tile.m, 2 * c.tile.n, 3 * c.tile.k),
                2,
            ),
            Request::Moe(c) => {
                let s = scaled_moe(c);
                (reference_grouped(a, b, &s.group_ms, s.n, s.k), 2)
            }
            Request::Decode(c) => {
                let s = scaled_attention(c);
                mem.fill(2, fill_v);
                let (q, k, vv) = (
                    &mem.buffer(0).data,
                    &mem.buffer(1).data,
                    &mem.buffer(2).data,
                );
                (
                    reference_attention(q, k, vv, s.seq_len, s.head_dim, s.causal),
                    3,
                )
            }
        }
    };
    if let Err(e) = run_grid(&module.funcs[0], &spec, &mut mem) {
        v.check(false, || {
            format!("numerics `{line}`: interpreter failed: {e:?}")
        });
        return None;
    }
    let got = &mem.buffer(out_buf).data;
    let err = max_rel_error(got, &want);
    let tol = tolerance(request_dtype(request));
    v.check(got.len() == want.len() && err <= tol, || {
        format!("numerics `{line}` under {opts:?}: max error {err} > {tol}")
    });
    Some(err)
}

/// The first served request of each phase present, with its winner.
pub fn family_representatives<'a>(
    distinct: &'a [Request],
    winners: &'a HashMap<String, CompileOptions>,
) -> Vec<(&'a Request, &'a CompileOptions)> {
    Phase::ALL
        .iter()
        .filter_map(|&p| distinct.iter().find(|r| r.phase() == p))
        .filter_map(|r| winners.get(&r.to_line()).map(|o| (r, o)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tawa_frontend::config::Tile;

    #[test]
    fn flop_formulas_match_hand_counts() {
        assert_eq!(gemm_flops(1, 2, 3, 4), 48.0);
        assert_eq!(
            gemm_flops(2, 128, 256, 64),
            2.0 * 2.0 * 128.0 * 256.0 * 64.0
        );
        // 4 query tiles, causal: 1+2+3+4 = 10 tile pairs of 4·128·128·64.
        let causal = AttentionConfig {
            batch: 2,
            heads: 3,
            seq_len: 512,
            head_dim: 64,
            causal: true,
            dtype: DType::F16,
            block_m: 128,
            block_n: 128,
        };
        assert_eq!(
            attention_flops(&causal),
            6.0 * 10.0 * 4.0 * 128.0 * 128.0 * 64.0
        );
        let full = AttentionConfig {
            causal: false,
            ..causal
        };
        assert_eq!(
            attention_flops(&full),
            6.0 * 16.0 * 4.0 * 128.0 * 128.0 * 64.0
        );
        // Unequal blocks: row tile i (block_m=128) sees ceil(128(i+1)/64) kv tiles.
        let uneven = AttentionConfig {
            block_n: 64,
            ..causal
        };
        assert_eq!(
            attention_flops(&uneven),
            6.0 * (2.0 + 4.0 + 6.0 + 8.0) * 4.0 * 128.0 * 64.0 * 64.0
        );
        let moe = GroupedGemmConfig::paper_sweep(3);
        assert_eq!(grouped_flops(&moe), 2.0 * 3072.0 * 4096.0 * 4096.0);
    }

    #[test]
    fn flop_formulas_agree_with_the_zoo_on_pool_shapes() {
        let mut v = Verdict::default();
        let plan = crate::plan::Plan::full(crate::plan::Workload::ColdTune);
        let params = crate::plan::serving_params(1, &plan);
        check_flops(&mut v, &crate::plan::pool_requests(&params));
        assert!(v.correct(), "{:?}", v.failures);
        assert_eq!(v.checks, 44);
    }

    #[test]
    fn reference_kernels_on_hand_examples() {
        // [1 2; 3 4] · [5 6; 7 8]ᵀ
        let c = reference_gemm(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
        assert_eq!(c, vec![17.0, 23.0, 39.0, 53.0]);
        // Equal scores average the values; causal row 0 sees only itself.
        let q = [0.0f32; 4];
        let k = [1.0f32, 2.0, 3.0, 4.0];
        let vals = [1.0f32, 3.0, 5.0, 7.0];
        let full = reference_attention(&q, &k, &vals, 2, 2, false);
        assert_eq!(full, vec![3.0, 5.0, 3.0, 5.0]);
        let causal = reference_attention(&q, &k, &vals, 2, 2, true);
        assert_eq!(causal, vec![1.0, 3.0, 3.0, 5.0]);
        assert_eq!(max_rel_error(&[1.0, 4.0], &[1.0, 2.0]), 1.0);
        // Two experts of one and two rows over the same B.
        let a = [1.0f32, 0.0, 0.0, 1.0, 2.0, 2.0];
        let b = [3.0f32, 4.0];
        assert_eq!(
            reference_grouped(&a, &b, &[1, 2], 1, 2),
            vec![3.0, 4.0, 14.0]
        );
    }

    #[test]
    fn scaled_programs_keep_the_family_and_dtype() {
        let r = Request::Prefill(GemmConfig {
            tile: Tile::LARGE,
            ..GemmConfig::new(8192, 8192, 8192).with_dtype(DType::F8E4M3)
        });
        let (p, spec) = scaled_program(&r);
        assert_eq!(p.spec().useful_flops, gemm_flops(1, 256, 512, 192));
        assert_eq!(spec.grid_size(), 4);
        let moe = Request::Moe(GroupedGemmConfig {
            tile: Tile::LARGE,
            ..GroupedGemmConfig::paper_sweep(8)
        });
        let (p, spec) = scaled_program(&moe);
        assert_eq!(p.spec().useful_flops, gemm_flops(1, 384, 256, 128));
        // One CTA per output tile of the fused problem: 3 row tiles.
        assert_eq!(spec.grid_size(), 3);
        assert_eq!(spec.classes.len(), 1);
    }
}
