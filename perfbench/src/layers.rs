//! In-process spans around the public entry points of each layer, over a
//! seeded sample of one workload's requests (traced runs only).

use std::collections::HashSet;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use deepseq_core::encoding::initial_states;
use deepseq_core::{CircuitGraph, TrainOptions};
use deepseq_netlist::{parse_aiger, SeqAig};
use deepseq_nn::{Adam, CheckpointMap, Kernel, Matrix, Pool, Tape};
use deepseq_serve::http::{read_request, write_response};
use deepseq_serve::json::response_to_json;
use deepseq_serve::{
    cone, CacheKey, Engine, EngineOptions, HttpLimits, HttpResponse, InferenceModel, ServeRequest,
    Workspace,
};
use deepseq_sim::Workload;

use crate::inputs;
use crate::server::{self, SERVER_THREADS};
use crate::serving::{load_model, Ctx, Kept, Kind, Pick, Plan};
use crate::stats::{median, ratio, Report};
use crate::train;

/// Extra timings of each cache hit in a layer sample.
const HIT_REPS: usize = 8;

/// Stream circuits served in-process before a `fresh` layer sample.
const FRESH_PRIMING: usize = 128;

/// Nanoseconds `f` takes, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Per-request span durations in nanoseconds, one vector per layer.
#[derive(Default)]
struct Spans {
    engine: Vec<u64>,
    rtt: Vec<u64>,
    read_request: Vec<u64>,
    write_response: Vec<u64>,
    serialize: Vec<u64>,
    parse: Vec<u64>,
    validate: Vec<u64>,
    key: Vec<u64>,
    dispatch: Vec<u64>,
    request_drop: Vec<u64>,
    partition: Vec<u64>,
    graph: Vec<u64>,
    propagate: Vec<u64>,
    readout: Vec<u64>,
    /// Sum of the spans that lie on the engine's path for each request.
    engine_parts: Vec<u64>,
}

fn med(ns: &[u64], per_unit: f64) -> f64 {
    median(&ns.iter().map(|&v| v as f64 / per_unit).collect::<Vec<_>>())
}

/// Structure and initial-state hashes of each component of `aig`, the
/// model-independent part of its cone-memo keys.
fn component_keys(aig: &SeqAig, h0: &Matrix) -> Vec<(Vec<u32>, (u64, u64))> {
    cone::partition(aig)
        .into_iter()
        .map(|c| {
            let key = (
                cone::component_fingerprint(aig, &c.members),
                cone::component_h0_hash(h0, &c.members),
            );
            (c.members, key)
        })
        .collect()
}

fn request_for(aig: SeqAig, pick: Pick) -> ServeRequest {
    ServeRequest {
        id: pick.id,
        workload: Workload::uniform(aig.num_pis(), 0.5),
        aig,
        init_seed: pick.init_seed,
    }
}

fn parse(text: &str) -> Result<SeqAig, String> {
    parse_aiger(text).map_err(|e| format!("parsing request: {e}"))
}

/// Serving-layer metrics over the kept requests of an untraced window:
/// each request is replayed through an in-process [`Engine`] set up like
/// the server (same pool size, cache and memo sizes, same priming), and
/// then through each layer's entry points one by one.
pub fn serving_layers(
    ctx: &Ctx,
    plan: &Plan,
    kept: &[&Kept],
    report: &mut Report,
) -> Result<(), String> {
    let mut load_ns = Vec::new();
    for _ in 0..15 {
        let (model, ns) = timed(|| {
            let map = CheckpointMap::open(&ctx.checkpoint).map_err(|e| e.to_string())?;
            InferenceModel::from_binary_checkpoint(map.bytes()).map_err(|e| e.to_string())
        });
        black_box(model?);
        load_ns.push(ns);
    }
    report.metric("checkpoint.load_ms", med(&load_ns, 1e6), "ms");

    let model = load_model(&ctx.checkpoint)?;
    let pool = Arc::new(Pool::new(SERVER_THREADS));
    let defaults = EngineOptions::default();
    let engine = Engine::with_pool(
        model.clone(),
        EngineOptions {
            workers: defaults.workers,
            cache_capacity: 256,
            cone_capacity: defaults.cone_capacity,
        },
        Arc::clone(&pool),
    );
    let kind = plan.kind();
    let d = model.config().hidden_dim;
    // Component keys the engine's cone memo holds, mirrored here so the
    // spans follow the same path (whole circuit, or extracted misses).
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let serve_untimed = |text: &str, pick: Pick, seen: &mut HashSet<_>| -> Result<(), String> {
        let aig = parse(text)?;
        let workload = Workload::uniform(aig.num_pis(), 0.5);
        let h0 = initial_states(&aig, &workload, d, pick.init_seed);
        seen.extend(component_keys(&aig, &h0).into_iter().map(|(_, k)| k));
        engine.serve_batch(vec![request_for(aig, pick)]);
        Ok(())
    };
    match kind {
        Kind::Repeat => {
            for slot in 0..inputs::REPEAT_SET {
                serve_untimed(plan.text(slot), Pick::first(slot), &mut seen)?;
            }
        }
        Kind::Eco => serve_untimed(
            plan.base_text().expect("eco has a base"),
            Pick::first(0),
            &mut seen,
        )?,
        Kind::Fresh => {
            // Stream circuits under seeds the run never sends stand in for
            // the traffic that filled the server's memo before the sample.
            for slot in 0..FRESH_PRIMING.min(plan.circuits()) {
                let pick = Pick {
                    slot,
                    init_seed: u64::MAX - slot as u64,
                    id: 0,
                };
                serve_untimed(plan.text(slot), pick, &mut seen)?;
            }
        }
    }

    // The engine's own per-call cost (batch bookkeeping, workspace
    // checkout, response assembly), measured on a one-gate cached circuit:
    // one `serve_batch` minus its exact-cache probe. It is derived from
    // engine time, so it is reported alone and is not one of the parts the
    // residual below reconciles against.
    let tiny = request_for(parse(server::WARM_AAG)?, Pick::first(0));
    engine.serve_batch(vec![tiny.clone()]);
    let mut batch = Vec::new();
    let mut probe = Vec::new();
    for _ in 0..200 {
        batch.push(timed(|| black_box(engine.serve_batch(vec![tiny.clone()]))).1);
        probe.push(timed(|| black_box(engine.lookup_cached(&tiny))).1);
    }
    let overhead_us = (med(&batch, 1e3) - med(&probe, 1e3)).max(0.0);
    report.metric("engine.overhead_us", overhead_us, "us");

    let mut ws = Workspace::with_pool(Kernel::for_serve(), Arc::clone(&pool));
    let mut s = Spans::default();
    let mut unexpected = 0usize;
    for (n, k) in kept.iter().enumerate() {
        let wire = plan.wire(k.pick);
        let text = plan.text(k.pick.slot);
        let (read, ns) = timed(|| {
            read_request(
                &mut Cursor::new(&wire),
                &mut std::io::sink(),
                &HttpLimits::default(),
            )
        });
        read.map_err(|e| format!("read_request: {e}"))?;
        s.read_request.push(ns);
        let (aig, ns) = timed(|| parse(text));
        let aig = aig?;
        s.parse.push(ns);

        let request = request_for(aig.clone(), k.pick);
        let workload = request.workload.clone();
        // The server calls `serve_batch` with one request, which runs inline
        // on the connection's thread; so does this. Which of the engine
        // call and its parts runs first alternates, so that neither always
        // finds the request's data in warm caches.
        let engine_first = n % 2 == 0;
        let mut pending = Some(request.clone());
        let mut call = || {
            let request = pending.take().expect("one engine call per request");
            timed(|| engine.serve_batch(vec![request]).pop())
        };
        let early = engine_first.then(&mut call);
        let (valid, validate_ns) = timed(|| aig.validate());
        valid.map_err(|e| format!("validate: {e}"))?;
        s.validate.push(validate_ns);
        let (key, ns) = timed(|| CacheKey::for_request(&aig, &workload, k.pick.init_seed));
        black_box(key);
        s.key.push(ns);
        let (_, ns) = timed(|| {
            let (tx, rx) = mpsc::channel();
            pool.spawn(move || {
                let _ = tx.send(());
            });
            rx.recv().expect("pool runs the job")
        });
        s.dispatch.push(ns);
        // Key plus exact-cache probe, as the engine's first step runs them.
        let (_, lookup_ns) = timed(|| black_box(engine.lookup_cached(&request)));
        // The engine consumes the request and frees it before answering.
        let spare = request.clone();
        let (_, drop_ns) = timed(|| drop(black_box(spare)));
        s.request_drop.push(drop_ns);

        let ((graph, h0), mut graph_ns) = timed(|| {
            (
                CircuitGraph::build(&aig),
                initial_states(&aig, &workload, d, k.pick.init_seed),
            )
        });
        let (parts, partition_ns) = timed(|| component_keys(&aig, &h0));
        s.partition.push(partition_ns);
        let missed: Vec<&(Vec<u32>, (u64, u64))> = parts
            .iter()
            .filter(|(_, key)| !seen.contains(key))
            .collect();
        let (propagate_ns, readout_ns) = if kind == Kind::Repeat || missed.len() == parts.len() {
            // Nothing memoized: the whole circuit propagates (for `repeat`,
            // what its cache hits save).
            let (_, p) = timed(|| model.propagate(&graph, &h0, &mut ws));
            let state = ws.state().clone();
            let (out, r) = timed(|| model.readout(&state, &mut ws));
            black_box(out);
            (p, r)
        } else {
            // The cone path: only the missed components are extracted and
            // propagated; the heads read the full (assembled) state.
            let ((sub_graph, sub_h0), ns) = timed(|| {
                let mut members: Vec<u32> =
                    missed.iter().flat_map(|(m, _)| m.iter().copied()).collect();
                members.sort_unstable();
                let sub = cone::extract(&aig, &members);
                (CircuitGraph::build(&sub), cone::gather_rows(&h0, &members))
            });
            graph_ns += ns;
            let (_, p) = timed(|| model.propagate(&sub_graph, &sub_h0, &mut ws));
            let (out, r) = timed(|| model.readout(&h0, &mut ws));
            black_box(out);
            (p, r)
        };
        seen.extend(parts.iter().map(|(_, key)| *key));
        s.graph.push(graph_ns);
        s.propagate.push(propagate_ns);
        s.readout.push(readout_ns);

        let (response, engine_ns) = match early {
            Some(done) => done,
            None => call(),
        };
        let response = response.ok_or("the engine answered no response")?;
        s.engine.push(engine_ns);
        s.rtt.push(k.rtt_ns);
        let served = response
            .result
            .as_ref()
            .map_err(|e| format!("in-process engine: {e}"))?;
        let expected_reuse = if kind == Kind::Eco {
            inputs::ECO_BLOCKS - 1
        } else {
            served.cones_reused
        };
        if served.cache_hit != (kind == Kind::Repeat) || served.cones_reused != expected_reuse {
            unexpected += 1;
        }

        let (body, ns) = timed(|| response_to_json(&response, false));
        s.serialize.push(ns);
        let http = HttpResponse::json(200, body);
        let mut sink = Vec::with_capacity(http.body.len() + 256);
        let (wrote, ns) = timed(|| write_response(&mut sink, &http));
        wrote.map_err(|e| format!("write_response: {e}"))?;
        s.write_response.push(ns);

        if served.cache_hit {
            // A hit leaves the engine as it found it, so it is timed again
            // several times, alternating with its parts; per-request medians
            // keep a few microseconds of timer noise out of the residual.
            let (mut engine_reps, mut part_reps) = (vec![engine_ns], vec![]);
            for r in 0..HIT_REPS {
                let again = request.clone();
                let spare = request.clone();
                let parts = || {
                    timed(|| black_box(aig.validate())).1
                        + timed(|| black_box(engine.lookup_cached(&request))).1
                        + timed(|| drop(black_box(spare))).1
                };
                let call = || timed(|| engine.serve_batch(vec![again])).1;
                let (e, p) = if r % 2 == 1 {
                    let p = parts();
                    (call(), p)
                } else {
                    (call(), parts())
                };
                engine_reps.push(e);
                part_reps.push(p);
            }
            part_reps.push(validate_ns + lookup_ns + drop_ns);
            *s.engine.last_mut().expect("pushed above") = med(&engine_reps, 1.0) as u64;
            s.engine_parts.push(med(&part_reps, 1.0) as u64);
        } else {
            s.engine_parts.push(
                validate_ns
                    + lookup_ns
                    + drop_ns
                    + graph_ns
                    + partition_ns
                    + propagate_ns
                    + readout_ns,
            );
        }
    }
    if kept.is_empty() {
        return Err("no requests were sampled for the layer spans".to_string());
    }
    if unexpected > 0 {
        report.mismatches += unexpected as u64;
        println!("layer sample: {unexpected} in-process responses had an unexpected cache outcome");
    }

    // Paired per-request residuals: a stall that hits one request's engine
    // call and not its parts (or the reverse) drops out of the median.
    let residual: Vec<f64> = s
        .engine
        .iter()
        .zip(&s.engine_parts)
        .map(|(&e, &p)| (e as f64 - p as f64) / 1e6)
        .collect();
    let residual_ms = median(&residual);
    println!(
        "layer sample: {} requests; median engine {:.4} ms, median of its independently timed parts {:.4} ms, \
         median residual {:.4} ms",
        kept.len(),
        med(&s.engine, 1e6),
        med(&s.engine_parts, 1e6),
        residual_ms
    );
    report.metric(
        "server.edge_ms",
        med(&s.rtt, 1e6) - med(&s.engine, 1e6),
        "ms",
    );
    report.metric("http.read_request_us", med(&s.read_request, 1e3), "us");
    report.metric("http.write_response_us", med(&s.write_response, 1e3), "us");
    report.metric("json.serialize_us", med(&s.serialize, 1e3), "us");
    report.metric("netlist.parse_us", med(&s.parse, 1e3), "us");
    report.metric("netlist.validate_us", med(&s.validate, 1e3), "us");
    report.metric("cache.key_us", med(&s.key, 1e3), "us");
    report.metric("pool.dispatch_us", med(&s.dispatch, 1e3), "us");
    report.metric("engine.request_drop_us", med(&s.request_drop, 1e3), "us");
    report.metric("cone.partition_us", med(&s.partition, 1e3), "us");
    report.metric("graph.build_us", med(&s.graph, 1e3), "us");
    report.metric("infer.propagate_ms", med(&s.propagate, 1e6), "ms");
    report.metric("infer.readout_ms", med(&s.readout, 1e6), "ms");
    report.metric("engine.latency_ms", med(&s.engine, 1e6), "ms");
    report.metric(
        "engine.residual_ratio",
        ratio(residual_ms, med(&s.engine, 1e6)),
        "ratio",
    );
    Ok(())
}

/// Training-layer metrics on the first circuits of the `train` corpus:
/// sample generation (simulation), and one tape forward, backward and
/// ADAM step per sample, as `train_on` runs them.
pub fn train_layers(report: &mut Report) {
    let mut sim_ns = Vec::new();
    let samples: Vec<_> = train::corpus_circuits()
        .iter()
        .take(2)
        .enumerate()
        .map(|(i, aig)| {
            let (sample, ns) = timed(|| train::sample(aig, i));
            sim_ns.push(ns);
            sample
        })
        .collect();
    let mut model = inputs::model();
    let opts = TrainOptions::default();
    let mut adam = Adam::new(opts.lr).with_clip_norm(opts.clip_norm);
    let mut tape = Tape::new();
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        for sample in &samples {
            tape.reset();
            let (vars, ns) = timed(|| model.forward(&mut tape, &sample.graph, &sample.init_h));
            fwd.push(ns);
            let l_tr = tape.l1_loss(vars.tr, &sample.tr_target);
            let l_lg = tape.l1_loss(vars.lg, &sample.lg_target);
            let l_tr = tape.affine(l_tr, opts.tr_weight, 0.0);
            let l_lg = tape.affine(l_lg, opts.lg_weight, 0.0);
            let loss = tape.add_scalars(vec![l_tr, l_lg]);
            let (grads, ns) = timed(|| tape.backward(loss));
            bwd.push(ns);
            let (_, ns) = timed(|| adam.step(model.params_mut(), &grads));
            step.push(ns);
        }
    }
    report.metric("train.forward_ms", med(&fwd, 1e6), "ms");
    report.metric("train.backward_ms", med(&bwd, 1e6), "ms");
    report.metric("train.adam_step_us", med(&step, 1e3), "us");
    report.metric("sim.sample_ms", med(&sim_ns, 1e6), "ms");
}
