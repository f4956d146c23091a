//! Criterion benchmarks of the serving subsystem: the autograd-tape forward
//! pass vs. the tape-free [`InferenceModel`] vs. the content-addressed
//! cache-hit path, on the synthetic design suite and a training-scale
//! random circuit. These back the PR-2 acceptance criterion (tape-free
//! measurably faster than tape; cache hit faster still) and feed the
//! `BENCH_serve.json` perf-trajectory artifact collected in CI.
//!
//! The tape-free and engine benches are pinned to 1-thread pools so the
//! committed trajectory isolates the serial path and stays comparable
//! across measurement hosts (`perf_threads` owns the scaling story); the
//! tape benches inherit the global pool, so run this with
//! `DEEPSEQ_THREADS=1` (CI does) when refreshing `BENCH_serve.json`.
//!
//! Run: `cargo bench -p deepseq-bench --bench perf_serve`

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

struct Fixture {
    tag: &'static str,
    aig: SeqAig,
    model: DeepSeq,
    frozen: InferenceModel,
    graph: CircuitGraph,
    h0: Matrix,
}

fn fixture(tag: &'static str, aig: SeqAig, config: DeepSeqConfig) -> Fixture {
    let model = DeepSeq::new(config);
    let frozen = InferenceModel::from_model(&model);
    let graph = CircuitGraph::build(&aig);
    let workload = Workload::uniform(aig.num_pis(), 0.5);
    let h0 = initial_states(&aig, &workload, config.hidden_dim, 0);
    Fixture {
        tag,
        aig,
        model,
        frozen,
        graph,
        h0,
    }
}

fn fixtures() -> Vec<Fixture> {
    let mut rng = StdRng::seed_from_u64(0);
    let config = DeepSeqConfig {
        hidden_dim: 32,
        iterations: 4,
        ..DeepSeqConfig::default()
    };
    let random = random_circuit("rand200", &CircuitSpec::default(), &mut rng);
    let suite = lower_to_aig(&ptc()).expect("valid design").aig;
    vec![
        fixture("rand200_d32_t4", random, config),
        fixture("ptc_d32_t4", suite, config),
    ]
}

fn bench_tape_forward(c: &mut Criterion) {
    for f in fixtures() {
        c.bench_function(&format!("serve_tape_forward_{}", f.tag), |b| {
            b.iter(|| f.model.predict(&f.graph, &f.h0))
        });
    }
}

fn bench_tapefree_forward(c: &mut Criterion) {
    for f in fixtures() {
        // The serving default kernel on a pinned 1-thread pool — this id is
        // the long-running tape-free trajectory entry in BENCH_serve.json.
        let mut ws = Workspace::with_pool(Kernel::for_serve(), Arc::new(Pool::new(1)));
        c.bench_function(&format!("serve_tapefree_forward_{}", f.tag), |b| {
            b.iter(|| f.frozen.run(&f.graph, &f.h0, &mut ws))
        });
    }
}

/// The same tape-free forward pass pinned to each GEMM kernel, so
/// `BENCH_serve.json` records the per-kernel end-to-end numbers alongside
/// the raw GEMM microbenches of `perf_kernels`.
fn bench_tapefree_per_kernel(c: &mut Criterion) {
    for f in fixtures() {
        for kernel in Kernel::ALL.into_iter().chain([Kernel::Simd]) {
            let mut ws = Workspace::with_pool(kernel, Arc::new(Pool::new(1)));
            c.bench_function(
                &format!("serve_tapefree_{}_{}", kernel.name(), f.tag),
                |b| b.iter(|| f.frozen.run(&f.graph, &f.h0, &mut ws)),
            );
        }
    }
}

fn bench_cache_hit(c: &mut Criterion) {
    for f in fixtures() {
        let engine = Engine::with_pool(
            f.frozen.clone(),
            EngineOptions {
                workers: 1,
                cache_capacity: 8,
                cone_capacity: 0,
            },
            Arc::new(Pool::new(1)),
        );
        let make = |id| ServeRequest {
            id,
            aig: f.aig.clone(),
            workload: Workload::uniform(f.aig.num_pis(), 0.5),
            init_seed: 0,
        };
        // Warm the cache, then measure the full hit path (structural hash +
        // key lookup + channel round-trip).
        let warm = engine.serve_batch(vec![make(0)]);
        assert!(!warm[0].result.as_ref().expect("serves").cache_hit);
        let mut id = 1u64;
        c.bench_function(&format!("serve_cache_hit_{}", f.tag), |b| {
            b.iter(|| {
                id += 1;
                let r = engine.serve_batch(vec![make(id)]);
                assert!(r[0].result.as_ref().expect("serves").cache_hit);
            })
        });
    }
}

/// A circuit of `blocks` self-contained blocks (one PI, one FF, `gates`
/// gates each, fanins drawn only within the block) — `blocks`
/// weakly-connected components, the reuse unit of the cone memo. `variant`
/// reseeds the last block only, producing the near-duplicate edit the
/// memo is built for.
fn blocky_aig(blocks: usize, gates: usize, variant: u64) -> SeqAig {
    let mut aig = SeqAig::new("blocky");
    for b in 0..blocks {
        let mut state = if b + 1 == blocks {
            (b as u64).wrapping_add(variant << 32) | 1
        } else {
            b as u64 | 1
        };
        let mut next = move |bound: usize| -> usize {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % bound.max(1)
        };
        let pi = aig.add_pi(format!("b{b}pi"));
        let ff = aig.add_ff(format!("b{b}ff"), next(2) == 1);
        let mut nodes = vec![pi, ff];
        for _ in 0..gates {
            let a = nodes[next(nodes.len())];
            let c = nodes[next(nodes.len())];
            nodes.push(if next(3) == 0 {
                aig.add_not(a)
            } else {
                aig.add_and(a, c)
            });
        }
        aig.connect_ff(ff, *nodes.last().unwrap())
            .expect("ff connect");
    }
    aig
}

/// Near-duplicate serving: a 16-component circuit warms the cone memo,
/// then a one-component edit of it is served with the memo
/// (`serve_cone_hit_*`: unchanged components splice their memoized
/// final-state rows) and without (`serve_cone_full_*`: full recompute).
/// The derived `cone_speedup_blocks16` ratio is the acceptance number for
/// cone-granularity caching; the exact-match cache is disabled in both so
/// the comparison isolates the cone path.
fn bench_cone_reuse(c: &mut Criterion) {
    let config = DeepSeqConfig {
        hidden_dim: 32,
        iterations: 4,
        ..DeepSeqConfig::default()
    };
    let model = DeepSeq::new(config);
    let frozen = InferenceModel::from_model(&model);
    let base = blocky_aig(16, 24, 0);
    let edited = blocky_aig(16, 24, 1);
    let make = |aig: &SeqAig, id| ServeRequest {
        id,
        aig: aig.clone(),
        workload: Workload::uniform(aig.num_pis(), 0.5),
        init_seed: 0,
    };
    for (name, cones) in [
        ("serve_cone_hit_blocks16", 4096),
        ("serve_cone_full_blocks16", 0),
    ] {
        let engine = Engine::with_pool(
            frozen.clone(),
            EngineOptions {
                workers: 1,
                cache_capacity: 0,
                cone_capacity: cones,
            },
            Arc::new(Pool::new(1)),
        );
        engine.serve_batch(vec![make(&base, 0)]); // warm (no-op without memo)
        let mut id = 1u64;
        c.bench_function(name, |b| {
            b.iter(|| {
                id += 1;
                let r = engine.serve_batch(vec![make(&edited, id)]);
                let served = r[0].result.as_ref().expect("serves");
                assert_eq!(served.cones_reused > 0, cones > 0);
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tape_forward, bench_tapefree_forward, bench_tapefree_per_kernel, bench_cache_hit,
        bench_cone_reuse
}
criterion_main!(benches);
