//! Grannite-style learning baseline (Zhang, Ren & Khailany \[18\]).
//!
//! Per the paper's re-implementation (Section V-A2): Grannite receives the
//! toggle rates of registers and primary inputs *from RTL simulation* as
//! input features, processes only the combinational logic in a **single
//! forward pass** of a DAG-GNN, and predicts toggle rates for combinational
//! gates. PI and FF activities are taken from simulation at inference time
//! too — the advantage the paper grants it — while the missing periodic
//! information exchange (no recurrence, no FF update) is its weakness.

use deepseq_core::aggregate::AggregatorLayer;
use deepseq_core::config::Aggregator;
use deepseq_core::graph::CircuitGraph;
use deepseq_core::DirectionLayer;
use deepseq_netlist::aig::{SeqAig, NUM_NODE_TYPES};
use deepseq_nn::{Act, Adam, GruCell, Linear, Matrix, Mlp, Ops, Params, Tape, TapeOps, VarId};
use deepseq_sim::NodeProbabilities;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Feature width: one-hot gate type + `p01`, `p10`, `p1` (populated only on
/// PI and FF rows, zero elsewhere).
pub const GRANNITE_FEATURES: usize = NUM_NODE_TYPES + 3;

/// Hyper-parameters of the Grannite baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GranniteConfig {
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Weight init seed.
    pub seed: u64,
}

impl Default for GranniteConfig {
    fn default() -> Self {
        GranniteConfig {
            hidden_dim: 32,
            seed: 0,
        }
    }
}

/// Builds the `n×7` Grannite feature matrix: gate-type one-hot for all
/// nodes; simulated `p01/p10/p1` on PI and FF rows only.
pub fn grannite_features(aig: &SeqAig, source_probs: &NodeProbabilities) -> Matrix {
    let n = aig.len();
    let mut feats = Matrix::zeros(n, GRANNITE_FEATURES);
    for (id, node) in aig.iter() {
        feats.set(id.index(), node.type_index(), 1.0);
        if node.is_pi() || node.is_ff() {
            feats.set(
                id.index(),
                NUM_NODE_TYPES,
                source_probs.p01[id.index()] as f32,
            );
            feats.set(
                id.index(),
                NUM_NODE_TYPES + 1,
                source_probs.p10[id.index()] as f32,
            );
            feats.set(
                id.index(),
                NUM_NODE_TYPES + 2,
                source_probs.p1[id.index()] as f32,
            );
        }
    }
    feats
}

/// Per-row supervision weights: combinational gates only (Grannite does not
/// predict PI/FF activity).
pub fn comb_mask(aig: &SeqAig) -> Vec<f32> {
    aig.iter()
        .map(|(_, node)| {
            if node.is_and() || node.is_not() {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// One Grannite training sample.
#[derive(Debug, Clone)]
pub struct GranniteSample {
    /// Preprocessed circuit.
    pub graph: CircuitGraph,
    /// `n×7` input features.
    pub features: Matrix,
    /// `n×2` toggle targets (`p01`, `p10`).
    pub target: Matrix,
    /// Supervision weights (1 on combinational gates).
    pub mask: Vec<f32>,
}

impl GranniteSample {
    /// Builds a sample from a circuit and its simulated probabilities.
    pub fn new(aig: &SeqAig, probs: &NodeProbabilities) -> Self {
        let target = Matrix::from_fn(aig.len(), 2, |r, c| {
            if c == 0 {
                probs.p01[r] as f32
            } else {
                probs.p10[r] as f32
            }
        });
        GranniteSample {
            graph: CircuitGraph::build(aig),
            features: grannite_features(aig, probs),
            target,
            mask: comb_mask(aig),
        }
    }
}

/// The Grannite baseline model.
#[derive(Debug, Clone)]
pub struct Grannite {
    config: GranniteConfig,
    params: Params,
    embed: Linear,
    layer: DirectionLayer,
    head: Mlp,
}

impl Grannite {
    /// Builds a model with fresh weights.
    pub fn new(config: GranniteConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = Params::new();
        let d = config.hidden_dim;
        let embed = Linear::new(&mut params, "embed", GRANNITE_FEATURES, d, &mut rng);
        let agg = AggregatorLayer::new(&mut params, "agg", Aggregator::Attention, d, &mut rng);
        let gru = GruCell::new(&mut params, "gru", d + GRANNITE_FEATURES, d, &mut rng);
        let head = Mlp::new(&mut params, "head", &[d, d, 2], &mut rng);
        Grannite {
            config,
            params,
            embed,
            layer: DirectionLayer { agg, gru },
            head,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GranniteConfig {
        &self.config
    }

    /// Records the single forward pass; returns the `n×2` toggle prediction.
    pub fn forward(&self, tape: &mut Tape, graph: &CircuitGraph, features: &Matrix) -> VarId {
        let feats = tape.input(features.clone());
        let h0 = self
            .embed
            .forward(&mut TapeOps::new(tape, &self.params), feats, Act::Tanh);
        let mut ops = TapeOps::with_nodes(tape, &self.params, h0, feats);
        for batch in graph.forward.iter().filter(|batch| !batch.is_empty()) {
            let h = self.layer.step(&mut ops, batch, 0..batch.len());
            ops.commit(&batch.nodes, h);
        }
        let hidden = ops.gather_state(0..graph.num_nodes);
        let raw = self.head.forward(&mut ops, hidden);
        ops.sigmoid(raw)
    }

    /// Full toggle-rate table: combinational gates from the model, PIs and
    /// FFs straight from the provided simulation results (the paper: "the
    /// transition probabilities of PIs and FFs comes from RTL level
    /// simulation").
    pub fn predict_probs(
        &self,
        aig: &SeqAig,
        source_probs: &NodeProbabilities,
    ) -> NodeProbabilities {
        let graph = CircuitGraph::build(aig);
        let features = grannite_features(aig, source_probs);
        let mut tape = Tape::new();
        let pred = self.forward(&mut tape, &graph, &features);
        let pred = tape.value(pred);
        let mut out = NodeProbabilities::zeros(aig.len());
        for (id, node) in aig.iter() {
            let v = id.index();
            if node.is_and() || node.is_not() {
                out.p01[v] = pred.get(v, 0) as f64;
                out.p10[v] = pred.get(v, 1) as f64;
                out.p1[v] = 0.5; // Grannite does not model logic probability.
            } else {
                out.p01[v] = source_probs.p01[v];
                out.p10[v] = source_probs.p10[v];
                out.p1[v] = source_probs.p1[v];
            }
        }
        out
    }
}

/// Options for [`train_grannite`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GranniteTrainOptions {
    /// Epochs (paper: 50, L1 loss).
    pub epochs: usize,
    /// ADAM learning rate.
    pub lr: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for GranniteTrainOptions {
    fn default() -> Self {
        GranniteTrainOptions {
            epochs: 20,
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// Trains Grannite with masked L1 loss; returns mean loss per epoch.
pub fn train_grannite(
    model: &mut Grannite,
    samples: &[GranniteSample],
    opts: &GranniteTrainOptions,
) -> Vec<f64> {
    let mut optimizer = Adam::new(opts.lr).with_clip_norm(5.0);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut history = Vec::with_capacity(opts.epochs);
    for _ in 0..opts.epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0f64;
        for &i in &order {
            let s = &samples[i];
            let mut tape = Tape::new();
            let pred = model.forward(&mut tape, &s.graph, &s.features);
            let loss = tape.l1_loss_weighted(pred, &s.target, s.mask.clone());
            total += tape.value(loss).get(0, 0) as f64;
            let grads = tape.backward(loss);
            optimizer.step(&mut model.params, &grads);
        }
        history.push(total / samples.len().max(1) as f64);
    }
    history
}

/// Masked average prediction error of toggle rates on combinational gates.
pub fn evaluate_grannite(model: &Grannite, samples: &[GranniteSample]) -> f64 {
    let mut err = 0.0f64;
    let mut count = 0usize;
    for s in samples {
        let mut tape = Tape::new();
        let pred = model.forward(&mut tape, &s.graph, &s.features);
        let pred = tape.value(pred);
        for r in 0..pred.rows() {
            if s.mask[r] == 0.0 {
                continue;
            }
            for c in 0..2 {
                err += (pred.get(r, c) - s.target.get(r, c)).abs() as f64;
                count += 1;
            }
        }
    }
    err / count.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepseq_sim::{simulate, SimOptions, Workload};

    fn sample_circuit() -> (SeqAig, NodeProbabilities) {
        let mut aig = SeqAig::new("s");
        let a = aig.add_pi("a");
        let b = aig.add_pi("b");
        let g = aig.add_and(a, b);
        let n = aig.add_not(g);
        let q = aig.add_ff("q", false);
        let g2 = aig.add_and(q, n);
        aig.connect_ff(q, g2).unwrap();
        aig.set_output(g2, "y");
        let r = simulate(&aig, &Workload::uniform(2, 0.5), &SimOptions::default());
        (aig, r.probs)
    }

    #[test]
    fn features_gate_pi_ff_rows() {
        let (aig, probs) = sample_circuit();
        let f = grannite_features(&aig, &probs);
        assert_eq!(f.shape(), (6, GRANNITE_FEATURES));
        // PI row carries probabilities; AND row does not.
        assert!(f.get(0, NUM_NODE_TYPES + 2) > 0.0);
        assert_eq!(f.get(2, NUM_NODE_TYPES + 2), 0.0);
    }

    #[test]
    fn mask_covers_comb_only() {
        let (aig, _) = sample_circuit();
        let m = comb_mask(&aig);
        assert_eq!(m, vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn predictions_in_unit_interval() {
        let (aig, probs) = sample_circuit();
        let model = Grannite::new(GranniteConfig {
            hidden_dim: 8,
            seed: 0,
        });
        let out = model.predict_probs(&aig, &probs);
        assert!(out.check_consistency(1.0).is_ok()); // range checks only
                                                     // PI/FF rows pass through simulation values exactly.
        assert_eq!(out.p01[0], probs.p01[0]);
        assert_eq!(out.p1[4], probs.p1[4]);
    }

    #[test]
    fn training_reduces_loss() {
        let (aig, probs) = sample_circuit();
        let samples = vec![GranniteSample::new(&aig, &probs)];
        let mut model = Grannite::new(GranniteConfig {
            hidden_dim: 8,
            seed: 0,
        });
        let history = train_grannite(
            &mut model,
            &samples,
            &GranniteTrainOptions {
                epochs: 15,
                lr: 5e-3,
                seed: 0,
            },
        );
        assert!(history.last().unwrap() < history.first().unwrap());
    }

    #[test]
    fn evaluation_improves_with_training() {
        let (aig, probs) = sample_circuit();
        let samples = vec![GranniteSample::new(&aig, &probs)];
        let mut model = Grannite::new(GranniteConfig {
            hidden_dim: 8,
            seed: 0,
        });
        let before = evaluate_grannite(&model, &samples);
        train_grannite(
            &mut model,
            &samples,
            &GranniteTrainOptions {
                epochs: 15,
                lr: 5e-3,
                seed: 0,
            },
        );
        let after = evaluate_grannite(&model, &samples);
        assert!(after < before, "{before} -> {after}");
    }
}
