//! Criterion benchmarks of the multi-threaded execution layer: the same
//! GEMM, tape-free forward pass and engine batch measured on worker pools
//! of 1, 2, 4 and 8 threads. Because every parallel path is bitwise equal
//! to single-threaded, these benches are pure speedup measurements — the
//! `t1` entries are the baselines the `mt_speedup_*` derived ratios in
//! `BENCH_serve.json` divide by (see `collect_bench`).
//!
//! Bench ids follow `serve_mt_<what>_t<N>_<rest>` so `collect_bench` folds
//! them into the committed `BENCH_serve.json` and derives the per-thread
//! ratios. Note that on a single-core host the >1-thread numbers measure
//! scheduling overhead, not speedup; the committed trajectory records
//! whatever the measurement host provides.
//!
//! Run: `cargo bench -p deepseq-bench --bench perf_threads`

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, DeepSeq, DeepSeqConfig};
use deepseq_data::designs::ptc;
use deepseq_data::random::{random_circuit, CircuitSpec};
use deepseq_netlist::{lower_to_aig, SeqAig};
use deepseq_nn::{Kernel, Matrix, Pool};
use deepseq_serve::{Engine, EngineOptions, InferenceModel, ServeRequest, Workspace};
use deepseq_sim::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pool sizes the trajectory tracks (1 = the single-threaded baseline).
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn filled(rows: usize, cols: usize, seed: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f32).sin() * seed + (r as f32 - c as f32) * 0.01
    })
}

/// The acceptance-criterion GEMM (`256×256 · 256×64`, blocked kernel) on
/// each pool size: `serve_mt_gemm_t{N}_256x256x64`.
fn bench_mt_gemm(c: &mut Criterion) {
    let (m, k, n) = (256, 256, 64);
    let a = filled(m, k, 0.6);
    let b = filled(k, n, -0.4);
    for threads in THREADS {
        let pool = Pool::new(threads);
        let mut out = Matrix::default();
        c.bench_function(&format!("serve_mt_gemm_t{threads}_{m}x{k}x{n}"), |bch| {
            bch.iter(|| Kernel::Blocked.matmul_into_on(&pool, &a, &b, &mut out))
        });
    }
}

struct Fixture {
    tag: &'static str,
    aig: SeqAig,
    frozen: InferenceModel,
    graph: CircuitGraph,
    h0: Matrix,
}

fn fixtures() -> Vec<Fixture> {
    let mut rng = StdRng::seed_from_u64(0);
    let config = DeepSeqConfig {
        hidden_dim: 32,
        iterations: 4,
        ..DeepSeqConfig::default()
    };
    let make = |tag: &'static str, aig: SeqAig| {
        let model = DeepSeq::new(config);
        let frozen = InferenceModel::from_model(&model);
        let graph = CircuitGraph::build(&aig);
        let workload = Workload::uniform(aig.num_pis(), 0.5);
        let h0 = initial_states(&aig, &workload, config.hidden_dim, 0);
        Fixture {
            tag,
            aig,
            frozen,
            graph,
            h0,
        }
    };
    vec![
        make(
            "rand200_d32_t4",
            random_circuit("rand200", &CircuitSpec::default(), &mut rng),
        ),
        make(
            "ptc_d32_t4",
            lower_to_aig(&ptc()).expect("valid design").aig,
        ),
    ]
}

/// The tape-free forward pass (level-parallel) per pool size:
/// `serve_mt_tapefree_t{N}_{design}`.
fn bench_mt_tapefree(c: &mut Criterion) {
    for f in fixtures() {
        for threads in THREADS {
            let pool = Arc::new(Pool::new(threads));
            let mut ws = Workspace::with_pool(Kernel::global(), pool);
            c.bench_function(&format!("serve_mt_tapefree_t{threads}_{}", f.tag), |b| {
                b.iter(|| f.frozen.run(&f.graph, &f.h0, &mut ws))
            });
        }
    }
}

/// End-to-end engine throughput on the design suite: an 8-request batch of
/// distinct circuits (cache disabled so every request computes) per pool
/// size: `serve_mt_batch_t{N}_{design}`.
fn bench_mt_batch(c: &mut Criterion) {
    for f in fixtures() {
        for threads in THREADS {
            let engine = Engine::with_pool(
                f.frozen.clone(),
                EngineOptions {
                    workers: threads,
                    cone_capacity: 0,
                    ..EngineOptions::default()
                },
                Arc::new(Pool::new(threads)),
            );
            let requests: Vec<ServeRequest> = (0..8)
                .map(|id| ServeRequest {
                    id,
                    aig: f.aig.clone(),
                    workload: Workload::uniform(f.aig.num_pis(), 0.5),
                    // Distinct seeds keep requests distinct even with a
                    // cache; capacity 0 disables it anyway.
                    init_seed: id,
                })
                .collect();
            c.bench_function(&format!("serve_mt_batch_t{threads}_{}", f.tag), |b| {
                b.iter(|| {
                    let responses = engine.serve_batch(requests.clone());
                    assert!(responses.iter().all(|r| r.result.is_ok()));
                })
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mt_gemm, bench_mt_tapefree, bench_mt_batch
}
criterion_main!(benches);
