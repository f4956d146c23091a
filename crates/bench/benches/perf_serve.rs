//! Criterion benchmarks of the serving subsystem: the autograd-tape forward
//! pass vs. the tape-free [`InferenceModel`] vs. the cone memo's
//! whole-hit path, on the synthetic design suite and a training-scale
//! random circuit. These back the PR-2 acceptance criterion (tape-free
//! measurably faster than tape; cache hit faster still) and feed the
//! `BENCH_serve.json` perf-trajectory artifact collected in CI.
//! `serve_parse_aiger_*` and `serve_json_full_*` time the text work
//! around a request: decoding its AIGER body and rendering its reply.
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
use deepseq_netlist::{lower_to_aig, parse_aiger, write_aiger, SeqAig};
use deepseq_nn::{Kernel, Matrix, Pool};
use deepseq_serve::json::response_to_json;
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

/// The tape-free forward pass pinned to each GEMM kernel on a 1-thread
/// pool, so `BENCH_serve.json` records the per-kernel end-to-end numbers
/// alongside the raw GEMM microbenches of `perf_kernels`. The `blocked`
/// rows are the serving default, the long-running tape-free trajectory
/// entry that `tapefree_speedup_*` divides the tape rows by.
fn bench_tapefree_per_kernel(c: &mut Criterion) {
    for f in fixtures() {
        for kernel in Kernel::ALL {
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
                ..EngineOptions::default()
            },
            Arc::new(Pool::new(1)),
        );
        let make = |id| ServeRequest {
            id,
            aig: f.aig.clone(),
            workload: Workload::uniform(f.aig.num_pis(), 0.5),
            init_seed: 0,
        };
        // Warm the cone memo, then measure the whole-hit path (initial
        // states, partition, component keys, memo lookups and assembly).
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
/// then one-component edits of it are served with the memo
/// (`serve_cone_hit_*`: unchanged components splice their memoized rows,
/// only the edited one is propagated and read out) and without
/// (`serve_cone_full_*`: full recompute). The edits cycle through
/// [`CONE_EDITS`] variants while the memo keeps room for only
/// [`CONE_EDITS`]` / 2` of them, so an edit is evicted before it recurs
/// and no request becomes a whole hit. The derived
/// `cone_speedup_blocks16` ratio is the acceptance number for
/// cone-granularity caching.
/// One-component edits cycled by the cone benches.
const CONE_EDITS: usize = 64;

fn bench_cone_reuse(c: &mut Criterion) {
    let config = DeepSeqConfig {
        hidden_dim: 32,
        iterations: 4,
        ..DeepSeqConfig::default()
    };
    let model = DeepSeq::new(config);
    let frozen = InferenceModel::from_model(&model);
    let base = blocky_aig(16, 24, 0);
    let edits: Vec<SeqAig> = (1..=CONE_EDITS as u64)
        .map(|v| blocky_aig(16, 24, v))
        .collect();
    let make = |aig: &SeqAig, id| ServeRequest {
        id,
        aig: aig.clone(),
        workload: Workload::uniform(aig.num_pis(), 0.5),
        init_seed: 0,
    };
    for (name, cones) in [
        ("serve_cone_hit_blocks16", 16 + CONE_EDITS / 2),
        ("serve_cone_full_blocks16", 0),
    ] {
        let engine = Engine::with_pool(
            frozen.clone(),
            EngineOptions {
                workers: 1,
                cone_capacity: cones,
                ..EngineOptions::default()
            },
            Arc::new(Pool::new(1)),
        );
        engine.serve_batch(vec![make(&base, 0)]); // warm (no-op without memo)
        let mut id = 1u64;
        c.bench_function(name, |b| {
            b.iter(|| {
                id += 1;
                let edited = &edits[id as usize % CONE_EDITS];
                let r = engine.serve_batch(vec![make(edited, id)]);
                let served = r[0].result.as_ref().expect("serves");
                assert!(!served.cache_hit);
                assert_eq!(served.cones_reused, if cones > 0 { 15 } else { 0 });
            })
        });
    }
}

/// The HTTP edge's text work on the `serve_cone_*` design: decoding its
/// AIGER request body (`serve_parse_aiger_blocks16`) and rendering its
/// full JSON response (`serve_json_full_blocks16`): the text work the
/// HTTP edge adds to every request.
fn bench_text_edge(c: &mut Criterion) {
    let config = DeepSeqConfig {
        hidden_dim: 32,
        iterations: 4,
        ..DeepSeqConfig::default()
    };
    let base = blocky_aig(16, 24, 0);
    let text = write_aiger(&base);
    c.bench_function("serve_parse_aiger_blocks16", |b| {
        b.iter(|| parse_aiger(&text).expect("parses"))
    });
    let engine = Engine::with_pool(
        InferenceModel::from_model(&DeepSeq::new(config)),
        EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        },
        Arc::new(Pool::new(1)),
    );
    let response = engine
        .serve_batch(vec![ServeRequest {
            id: 0,
            workload: Workload::uniform(base.num_pis(), 0.5),
            aig: base,
            init_seed: 0,
        }])
        .pop()
        .expect("one response");
    assert!(response.result.is_ok());
    c.bench_function("serve_json_full_blocks16", |b| {
        b.iter(|| response_to_json(&response, false))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tape_forward, bench_tapefree_per_kernel, bench_cache_hit, bench_cone_reuse,
        bench_text_edge
}
criterion_main!(benches);
