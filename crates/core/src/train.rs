//! Multi-task training (paper Section III-A) and the average-prediction-error
//! metric (Eq. 9).
//!
//! The loss is `L = L_TR + L_LG`, both L1 (Eq. 3), optimized with ADAM.
//! Samples are circuits with one simulated workload each; the same loop
//! performs pre-training and downstream fine-tuning (only the targets
//! change).
//!
//! # Data parallelism
//!
//! [`train`] schedules its work on the shared worker pool
//! ([`Pool::global`], sized by `DEEPSEQ_THREADS`): within each optimizer
//! step, the per-sample forward/backward tape passes are independent (the
//! parameters are frozen until the step), so they fan out across the pool
//! at sample granularity — each worker task owns a private [`Tape`], kept
//! across optimizer steps and reset before each sample, and produces one
//! [`GradStore`] per sample. The per-sample
//! losses and gradients are then reduced **in ascending sample order**,
//! which makes every ADAM step, loss value and [`EpochStats`] row bitwise
//! identical at any thread count (the per-sample passes themselves are
//! bitwise thread-count-independent by the kernel-layer contract). With
//! [`TrainOptions::samples_per_step`]` = 1` (the default) the loop is
//! byte-for-byte the classic serial per-sample ADAM recipe; larger groups
//! average the group's gradients into one step and are what actually
//! parallelizes. [`evaluate`] fans its per-sample inference passes out the
//! same way and reduces the error sums in sample order.

use deepseq_netlist::SeqAig;
use deepseq_nn::trace;
use deepseq_nn::{Adam, GradStore, Matrix, Pool, Tape};
use deepseq_sim::{simulate, SimOptions, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::encoding::{initial_states, lg_targets, tr_targets};
use crate::graph::CircuitGraph;
use crate::model::DeepSeq;

/// One training sample: a preprocessed circuit, its workload-encoded initial
/// states and the simulated supervision targets.
#[derive(Debug, Clone)]
pub struct TrainSample {
    /// Preprocessed circuit.
    pub graph: CircuitGraph,
    /// Initial hidden states (`n×d`, PI rows = workload probabilities).
    pub init_h: Matrix,
    /// `n×2` transition-probability targets.
    pub tr_target: Matrix,
    /// `n×1` logic-probability targets.
    pub lg_target: Matrix,
}

impl TrainSample {
    /// Generates a sample by simulating `workload` on `aig` (the dataset
    /// pipeline of paper Fig. 1: circuit graph + simulation labels).
    pub fn generate(
        aig: &SeqAig,
        workload: &Workload,
        hidden_dim: usize,
        sim_opts: &SimOptions,
        init_seed: u64,
    ) -> Self {
        let result = simulate(aig, workload, sim_opts);
        TrainSample {
            graph: CircuitGraph::build(aig),
            init_h: initial_states(aig, workload, hidden_dim, init_seed),
            tr_target: tr_targets(&result.probs),
            lg_target: lg_targets(&result.probs),
        }
    }

    /// Builds a sample from precomputed pieces (fine-tuning with custom
    /// targets, e.g. reliability error probabilities in the `TR` slot).
    pub fn from_parts(
        graph: CircuitGraph,
        init_h: Matrix,
        tr_target: Matrix,
        lg_target: Matrix,
    ) -> Self {
        TrainSample {
            graph,
            init_h,
            tr_target,
            lg_target,
        }
    }
}

/// Options for [`train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Training epochs (paper: 50).
    pub epochs: usize,
    /// ADAM learning rate (paper: 1e-4; scaled-down runs benefit from more).
    pub lr: f32,
    /// Global-norm gradient clip (stabilizes recurrent backprop).
    pub clip_norm: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Weight of the `TR` loss term.
    pub tr_weight: f32,
    /// Weight of the `LG` loss term.
    pub lg_weight: f32,
    /// Samples per optimizer step (clamped to at least 1). `1` — the
    /// default — reproduces the paper's per-sample ADAM steps exactly.
    /// Larger groups accumulate the *mean* gradient of the group's samples
    /// into a single step; because the samples within a group are
    /// independent, they are what the trainer fans out across the worker
    /// pool. Results are bitwise identical at any thread count for any
    /// value.
    pub samples_per_step: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 20,
            lr: 1e-3,
            clip_norm: 5.0,
            seed: 0,
            tr_weight: 1.0,
            lg_weight: 1.0,
            samples_per_step: 1,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean multi-task loss over samples.
    pub loss: f64,
}

/// Evaluation metrics: average prediction error per task (paper Eq. 9).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalMetrics {
    /// Average |error| on transition probabilities.
    pub pe_tr: f64,
    /// Average |error| on logic probabilities.
    pub pe_lg: f64,
}

/// One sample's contribution to an optimizer step: its multi-task loss and
/// the gradients of that loss.
struct SampleGrad {
    loss: f64,
    grads: GradStore,
}

/// Records one sample's forward + loss on `tape` (which it resets first)
/// and runs the backward pass.
fn sample_pass(
    model: &DeepSeq,
    sample: &TrainSample,
    opts: &TrainOptions,
    tape: &mut Tape,
) -> SampleGrad {
    tape.reset();
    let vars = model.forward(tape, &sample.graph, &sample.init_h);
    let l_tr = tape.l1_loss(vars.tr, &sample.tr_target);
    let l_lg = tape.l1_loss(vars.lg, &sample.lg_target);
    let l_tr = tape.affine(l_tr, opts.tr_weight, 0.0);
    let l_lg = tape.affine(l_lg, opts.lg_weight, 0.0);
    let loss = tape.add_scalars(vec![l_tr, l_lg]);
    SampleGrad {
        loss: tape.value(loss).get(0, 0) as f64,
        grads: tape.backward(loss),
    }
}

/// Trains (or fine-tunes) `model` on `samples` using the process-wide
/// worker pool ([`Pool::global`]), returning per-epoch stats. See
/// [`train_on`] for the scheduling and determinism contract.
///
/// # Example
/// See [`the crate-level documentation`](crate).
pub fn train(model: &mut DeepSeq, samples: &[TrainSample], opts: &TrainOptions) -> Vec<EpochStats> {
    train_on(Pool::global(), model, samples, opts)
}

/// [`train`] on an explicit worker pool.
///
/// Each epoch shuffles the sample order (seeded — thread-count
/// independent), splits it into groups of
/// [`TrainOptions::samples_per_step`] samples and, per group: fans the
/// per-sample forward/backward tape passes across `pool` at sample
/// granularity (contiguous chunks, one private [`Tape`] per task, reused
/// across steps, one [`GradStore`] per sample), then reduces the losses and
/// gradients **in ascending group order** and applies one ADAM step on the
/// mean gradient. The fixed-order reduction is what keeps every step —
/// and therefore every [`EpochStats`] row and the final parameter bytes —
/// bitwise identical at any pool size, including 1 (where the group runs
/// inline, in order, exactly like the serial loop).
pub fn train_on(
    pool: &Pool,
    model: &mut DeepSeq,
    samples: &[TrainSample],
    opts: &TrainOptions,
) -> Vec<EpochStats> {
    let mut optimizer = Adam::new(opts.lr).with_clip_norm(opts.clip_norm);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut history = Vec::with_capacity(opts.epochs);
    let group_size = opts.samples_per_step.max(1);
    // One tape per task chunk, kept for the whole run: each is reset, not
    // rebuilt, before it records a sample.
    let mut tapes: Vec<Tape> = Vec::new();
    for epoch in 0..opts.epochs {
        let _epoch_span = trace::span_with(trace::SpanKind::TrainEpoch, epoch as u64);
        order.shuffle(&mut rng);
        let mut total_loss = 0.0f64;
        for group in order.chunks(group_size) {
            let _step_span = trace::span_with(trace::SpanKind::TrainStep, group.len() as u64);
            // Fan the group's samples across the pool; each task records
            // on its own tape and the passes come back in group order
            // whatever the pool size.
            let model_ref: &DeepSeq = model;
            let passes = pool.ordered_map_with(&mut tapes, group.len(), 1, Tape::new, |tape, j| {
                sample_pass(model_ref, &samples[group[j]], opts, tape)
            });
            // Ordered reduction: losses and gradients are summed in group
            // order regardless of which worker produced them. The first
            // sample's store is taken by value, so the common
            // `samples_per_step = 1` path stays as copy-free as the old
            // serial loop.
            let mut passes = passes.into_iter();
            let first = passes.next().expect("chunks() yields nonempty groups");
            total_loss += first.loss;
            let mut step_grads = first.grads;
            for pass in passes {
                total_loss += pass.loss;
                step_grads.merge(&pass.grads);
            }
            if group.len() > 1 {
                step_grads.scale(1.0 / group.len() as f32);
            }
            optimizer.step(model.params_mut(), &step_grads);
        }
        history.push(EpochStats {
            epoch,
            loss: total_loss / samples.len().max(1) as f64,
        });
    }
    history
}

/// Computes the average prediction error (Eq. 9) of `model` on `samples`
/// using the process-wide worker pool. See [`evaluate_on`].
pub fn evaluate(model: &DeepSeq, samples: &[TrainSample]) -> EvalMetrics {
    evaluate_on(Pool::global(), model, samples)
}

/// [`evaluate`] on an explicit worker pool: the per-sample inference
/// passes fan out across `pool` at sample granularity, each producing a
/// private `(error sum, count)` partial; the partials are reduced in
/// ascending sample order, so the metrics are bitwise identical at any
/// thread count.
pub fn evaluate_on(pool: &Pool, model: &DeepSeq, samples: &[TrainSample]) -> EvalMetrics {
    /// One sample's error sums and element counts, both tasks.
    #[derive(Clone, Copy)]
    struct Partial {
        tr_err: f64,
        tr_count: usize,
        lg_err: f64,
        lg_count: usize,
    }
    let partials = pool.ordered_map(
        samples.len(),
        1,
        || (),
        |(), i| {
            let sample = &samples[i];
            let preds = model.predict(&sample.graph, &sample.init_h);
            let mut p = Partial {
                tr_err: 0.0,
                tr_count: 0,
                lg_err: 0.0,
                lg_count: 0,
            };
            for (pred, t) in preds.tr.data().iter().zip(sample.tr_target.data()) {
                p.tr_err += (pred - t).abs() as f64;
                p.tr_count += 1;
            }
            for (pred, t) in preds.lg.data().iter().zip(sample.lg_target.data()) {
                p.lg_err += (pred - t).abs() as f64;
                p.lg_count += 1;
            }
            p
        },
    );
    let mut tr_err = 0.0f64;
    let mut tr_count = 0usize;
    let mut lg_err = 0.0f64;
    let mut lg_count = 0usize;
    for p in &partials {
        tr_err += p.tr_err;
        tr_count += p.tr_count;
        lg_err += p.lg_err;
        lg_count += p.lg_count;
    }
    EvalMetrics {
        pe_tr: tr_err / tr_count.max(1) as f64,
        pe_lg: lg_err / lg_count.max(1) as f64,
    }
}

/// Merges several training samples into one batched sample via
/// [`merge_graphs`](crate::graph::merge_graphs) (topological batching \[16\]).
/// A forward pass over the merged sample is mathematically identical to
/// independent passes over the parts; gradients become true mini-batch
/// gradients, and per-level tape ops grow by the batch size, which is what
/// makes this faster than per-circuit steps.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn merge_samples(samples: &[&TrainSample]) -> TrainSample {
    assert!(
        !samples.is_empty(),
        "merge_samples needs at least one sample"
    );
    let graphs: Vec<&crate::graph::CircuitGraph> = samples.iter().map(|s| &s.graph).collect();
    let graph = crate::graph::merge_graphs(&graphs);
    let d = samples[0].init_h.cols();
    let total: usize = samples.iter().map(|s| s.graph.num_nodes).sum();
    let mut init_h = Matrix::zeros(total, d);
    let mut tr_target = Matrix::zeros(total, 2);
    let mut lg_target = Matrix::zeros(total, 1);
    let mut row = 0;
    for sample in samples {
        for r in 0..sample.graph.num_nodes {
            init_h.row_mut(row)[..].copy_from_slice(sample.init_h.row(r));
            tr_target.row_mut(row)[..].copy_from_slice(sample.tr_target.row(r));
            lg_target.row_mut(row)[..].copy_from_slice(sample.lg_target.row(r));
            row += 1;
        }
    }
    TrainSample {
        graph,
        init_h,
        tr_target,
        lg_target,
    }
}

/// Like [`train`] but with topological batching: samples are merged into
/// mini-batches of `batch_size` circuits once, then trained as usual.
/// Topological batching composes with data parallelism — each *merged*
/// sample is one unit of [`TrainOptions::samples_per_step`] scheduling.
pub fn train_batched(
    model: &mut DeepSeq,
    samples: &[TrainSample],
    opts: &TrainOptions,
    batch_size: usize,
) -> Vec<EpochStats> {
    train_batched_on(Pool::global(), model, samples, opts, batch_size)
}

/// [`train_batched`] on an explicit worker pool (see [`train_on`]).
pub fn train_batched_on(
    pool: &Pool,
    model: &mut DeepSeq,
    samples: &[TrainSample],
    opts: &TrainOptions,
    batch_size: usize,
) -> Vec<EpochStats> {
    let batch_size = batch_size.max(1);
    let batches: Vec<TrainSample> = samples
        .chunks(batch_size)
        .map(|chunk| {
            let refs: Vec<&TrainSample> = chunk.iter().collect();
            merge_samples(&refs)
        })
        .collect();
    train_on(pool, model, &batches, opts)
}

/// Splits samples into train/test by a deterministic shuffle (paper uses a
/// held-out set for Table II).
pub fn train_test_split(
    samples: Vec<TrainSample>,
    test_fraction: f64,
    seed: u64,
) -> (Vec<TrainSample>, Vec<TrainSample>) {
    let mut samples = samples;
    let mut rng = StdRng::seed_from_u64(seed);
    samples.shuffle(&mut rng);
    let test_len = ((samples.len() as f64) * test_fraction).round() as usize;
    let test = samples.split_off(samples.len().saturating_sub(test_len));
    (samples, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepSeqConfig;

    fn tiny_samples(n: usize, hidden: usize) -> Vec<TrainSample> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|i| {
                let mut aig = SeqAig::new(format!("c{i}"));
                let a = aig.add_pi("a");
                let b = aig.add_pi("b");
                let g = aig.add_and(a, b);
                let nn = aig.add_not(g);
                let q = aig.add_ff("q", false);
                let g2 = aig.add_and(q, nn);
                aig.connect_ff(q, g2).unwrap();
                aig.set_output(g2, "y");
                let w = Workload::random(2, &mut rng);
                TrainSample::generate(
                    &aig,
                    &w,
                    hidden,
                    &SimOptions {
                        cycles: 128,
                        warmup: 8,
                        seed: i as u64,
                    },
                    i as u64,
                )
            })
            .collect()
    }

    #[test]
    fn loss_decreases_during_training() {
        let config = DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            seed: 0,
            ..DeepSeqConfig::default()
        };
        let mut model = DeepSeq::new(config);
        let samples = tiny_samples(4, 8);
        let history = train(
            &mut model,
            &samples,
            &TrainOptions {
                epochs: 15,
                lr: 5e-3,
                ..TrainOptions::default()
            },
        );
        let first = history.first().unwrap().loss;
        let last = history.last().unwrap().loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn training_improves_eval_metrics() {
        let config = DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            seed: 0,
            ..DeepSeqConfig::default()
        };
        let mut model = DeepSeq::new(config);
        let samples = tiny_samples(4, 8);
        let before = evaluate(&model, &samples);
        train(
            &mut model,
            &samples,
            &TrainOptions {
                epochs: 15,
                lr: 5e-3,
                ..TrainOptions::default()
            },
        );
        let after = evaluate(&model, &samples);
        assert!(
            after.pe_lg < before.pe_lg,
            "LG error did not improve: {} -> {}",
            before.pe_lg,
            after.pe_lg
        );
        assert!(
            after.pe_tr < before.pe_tr,
            "TR error did not improve: {} -> {}",
            before.pe_tr,
            after.pe_tr
        );
    }

    #[test]
    fn merged_forward_equals_individual_forwards() {
        // The batched graph must produce bit-identical predictions to
        // per-circuit passes — this pins down the offset arithmetic.
        let config = DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            seed: 5,
            ..DeepSeqConfig::default()
        };
        let model = DeepSeq::new(config);
        let samples = tiny_samples(3, 8);
        let refs: Vec<&TrainSample> = samples.iter().collect();
        let merged = merge_samples(&refs);
        let merged_preds = model.predict(&merged.graph, &merged.init_h);
        let mut row = 0;
        for sample in &samples {
            let preds = model.predict(&sample.graph, &sample.init_h);
            for r in 0..sample.graph.num_nodes {
                for c in 0..2 {
                    assert_eq!(
                        merged_preds.tr.get(row, c),
                        preds.tr.get(r, c),
                        "TR mismatch at batch row {row}"
                    );
                }
                assert_eq!(merged_preds.lg.get(row, 0), preds.lg.get(r, 0));
                row += 1;
            }
        }
    }

    #[test]
    fn batched_training_reduces_loss() {
        let config = DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            seed: 0,
            ..DeepSeqConfig::default()
        };
        let mut model = DeepSeq::new(config);
        let samples = tiny_samples(4, 8);
        let history = train_batched(
            &mut model,
            &samples,
            &TrainOptions {
                epochs: 10,
                lr: 5e-3,
                ..TrainOptions::default()
            },
            2,
        );
        assert!(history.last().unwrap().loss < history.first().unwrap().loss);
    }

    #[test]
    fn grouped_steps_train_and_match_across_pools() {
        // samples_per_step > 1 takes the data-parallel path; a 1-thread and
        // a 3-thread pool must produce identical history and loss descent.
        let config = DeepSeqConfig {
            hidden_dim: 8,
            iterations: 2,
            seed: 0,
            ..DeepSeqConfig::default()
        };
        let samples = tiny_samples(5, 8);
        let opts = TrainOptions {
            epochs: 12,
            lr: 5e-3,
            samples_per_step: 2, // groups of 2 with an odd tail group
            ..TrainOptions::default()
        };
        let mut serial_model = DeepSeq::new(config);
        let serial = train_on(&Pool::new(1), &mut serial_model, &samples, &opts);
        let mut pooled_model = DeepSeq::new(config);
        let pooled = train_on(&Pool::new(3), &mut pooled_model, &samples, &opts);
        assert_eq!(serial, pooled, "EpochStats must match bitwise");
        assert_eq!(
            serial_model.params().save_binary(),
            pooled_model.params().save_binary(),
            "trained parameters must match bitwise"
        );
        assert!(serial.last().unwrap().loss < serial.first().unwrap().loss);
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let samples = tiny_samples(10, 8);
        let (train_set, test_set) = train_test_split(samples, 0.3, 0);
        assert_eq!(train_set.len(), 7);
        assert_eq!(test_set.len(), 3);
    }

    #[test]
    fn eval_on_empty_is_zero() {
        let config = DeepSeqConfig {
            hidden_dim: 8,
            iterations: 1,
            ..DeepSeqConfig::default()
        };
        let model = DeepSeq::new(config);
        let m = evaluate(&model, &[]);
        assert_eq!(m.pe_tr, 0.0);
        assert_eq!(m.pe_lg, 0.0);
    }

    #[test]
    fn zero_weight_freezes_task() {
        // With lg_weight = 0 the LG loss cannot influence training; ensure
        // the loop still runs and returns stats.
        let config = DeepSeqConfig {
            hidden_dim: 8,
            iterations: 1,
            ..DeepSeqConfig::default()
        };
        let mut model = DeepSeq::new(config);
        let samples = tiny_samples(2, 8);
        let history = train(
            &mut model,
            &samples,
            &TrainOptions {
                epochs: 2,
                lg_weight: 0.0,
                ..TrainOptions::default()
            },
        );
        assert_eq!(history.len(), 2);
    }
}
