//! Aggregation functions: Conv-Sum, Attention and the paper's Dual
//! Attention (Section III-B, Eq. 5–7).
//!
//! All three consume the same flattened per-level message layout produced by
//! [`CircuitGraph`](crate::graph::CircuitGraph): `k` nodes are updated, `m`
//! message edges point at them, `segments[i] ∈ [0, k)` names the owner of
//! edge `i`.
//!
//! One deliberate deviation from the paper's notation: Eq. (6) writes the
//! transition gate as a *softmax* over the single pair `(h_v^{t-1},
//! m_LG^t)` — a softmax over one logit is identically 1, which would erase
//! the gate. We use a sigmoid over the same additive score, which preserves
//! the stated intent ("mimics the transition probability computation" by
//! gating the logic message against the previous state). This is recorded in
//! DESIGN.md.

use deepseq_nn::{Act, AdditiveAttention, Linear, Ops, Params};
use rand::Rng;

use crate::config::Aggregator;

/// A parameterized aggregation layer (one per propagation direction).
#[derive(Debug, Clone)]
pub enum AggregatorLayer {
    /// Linear transform then segment sum (GCN-style conv. sum \[12\]).
    ConvSum {
        /// The shared message transform.
        transform: Linear,
    },
    /// Additive attention over predecessors (\[14\], \[16\]; paper Eq. 5).
    Attention {
        /// Scores `w1ᵀ h_v^{t-1} + w2ᵀ h_u^t` per edge.
        attention: AdditiveAttention,
    },
    /// Dual attention (paper Eq. 5–7): logic attention producing `m_LG`,
    /// a transition gate producing `m_TR`, concatenated.
    Dual {
        /// The logic attention of Eq. 5.
        attention: AdditiveAttention,
        /// The transition gate of Eq. 6.
        gate: AdditiveAttention,
    },
}

impl AggregatorLayer {
    /// Registers an aggregation layer of the given kind under `name`.
    pub fn new<R: Rng + ?Sized>(
        params: &mut Params,
        name: &str,
        kind: Aggregator,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        match kind {
            Aggregator::ConvSum => AggregatorLayer::ConvSum {
                transform: Linear::new(
                    params,
                    &format!("{name}.conv"),
                    hidden_dim,
                    hidden_dim,
                    rng,
                ),
            },
            Aggregator::Attention => AggregatorLayer::Attention {
                attention: AdditiveAttention::new(params, &format!("{name}.att"), hidden_dim, rng),
            },
            Aggregator::DualAttention => AggregatorLayer::Dual {
                attention: AdditiveAttention::new(params, &format!("{name}.att"), hidden_dim, rng),
                gate: AdditiveAttention::new(params, &format!("{name}.gate"), hidden_dim, rng),
            },
        }
    }

    /// Output feature width given the hidden dimension (`2d` for dual
    /// attention because of the `m_TR ‖ m_LG` concatenation, Eq. 7).
    pub fn output_dim(&self, hidden_dim: usize) -> usize {
        match self {
            AggregatorLayer::Dual { .. } => 2 * hidden_dim,
            _ => hidden_dim,
        }
    }

    /// The aggregation of one level batch.
    ///
    /// * `node_prev` — `k×d`, the previous states `h_v^{t-1}` of updated nodes;
    /// * `edge_prev` — `m×d`, `h_v^{t-1}` replicated per incoming edge;
    /// * `edge_msgs` — `m×d`, neighbor states `h_u^t`;
    /// * `segments` — owner of each edge;
    /// * `num_nodes` — `k`.
    ///
    /// Returns the aggregated message, `k×output_dim`.
    pub fn aggregate<O: Ops>(
        &self,
        ops: &mut O,
        node_prev: O::Value,
        edge_prev: O::Value,
        edge_msgs: O::Value,
        segments: &[usize],
        num_nodes: usize,
    ) -> O::Value {
        match self {
            AggregatorLayer::ConvSum { transform } => {
                let transformed = transform.forward(ops, edge_msgs, Act::Identity);
                ops.segment_sum(transformed, segments, num_nodes)
            }
            AggregatorLayer::Attention { attention } => {
                attention_message(ops, attention, edge_prev, edge_msgs, segments, num_nodes)
            }
            AggregatorLayer::Dual { attention, gate } => {
                // Eq. 5: logic message.
                let m_lg =
                    attention_message(ops, attention, edge_prev, edge_msgs, segments, num_nodes);
                // Eq. 6: transition gate between previous state and m_LG
                // (sigmoid — see module docs).
                let score = gate.score(ops, node_prev, m_lg);
                let alpha = ops.sigmoid(score);
                let m_tr = ops.mul_col(m_lg, alpha);
                // Eq. 7: concatenation.
                ops.concat_cols(m_tr, m_lg)
            }
        }
    }
}

/// Shared Eq. 5 implementation: additive scores, segment softmax, weighted
/// segment sum.
fn attention_message<O: Ops>(
    ops: &mut O,
    attention: &AdditiveAttention,
    edge_prev: O::Value,
    edge_msgs: O::Value,
    segments: &[usize],
    num_nodes: usize,
) -> O::Value {
    let scores = attention.score(ops, edge_prev, edge_msgs);
    let alpha = ops.segment_softmax(scores, segments, num_nodes);
    let weighted = ops.mul_col(edge_msgs, alpha);
    ops.segment_sum(weighted, segments, num_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepseq_nn::{Matrix, Tape, TapeOps};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(kind: Aggregator) -> (Params, AggregatorLayer) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let layer = AggregatorLayer::new(&mut params, "agg", kind, 4, &mut rng);
        (params, layer)
    }

    fn run(kind: Aggregator) -> (usize, usize) {
        let (params, layer) = setup(kind);
        let mut tape = Tape::new();
        // 2 nodes; node 0 has 2 predecessors, node 1 has 1.
        let node_prev = tape.input(Matrix::full(2, 4, 0.1));
        let edge_prev = tape.input(Matrix::full(3, 4, 0.1));
        let edge_msgs = tape.input(Matrix::full(3, 4, 0.5));
        let segs = vec![0, 0, 1];
        let mut ops = TapeOps::new(&mut tape, &params);
        let m = layer.aggregate(&mut ops, node_prev, edge_prev, edge_msgs, &segs, 2);
        let v = tape.value(m);
        (v.rows(), v.cols())
    }

    #[test]
    fn conv_sum_shape() {
        assert_eq!(run(Aggregator::ConvSum), (2, 4));
    }

    #[test]
    fn attention_shape() {
        assert_eq!(run(Aggregator::Attention), (2, 4));
    }

    #[test]
    fn dual_attention_doubles_width() {
        assert_eq!(run(Aggregator::DualAttention), (2, 8));
        let (_, layer) = setup(Aggregator::DualAttention);
        assert_eq!(layer.output_dim(4), 8);
    }

    #[test]
    fn attention_is_convex_combination() {
        // With identical keys the attention output must equal the key value,
        // regardless of weights (softmax weights sum to 1).
        let (params, layer) = setup(Aggregator::Attention);
        let mut tape = Tape::new();
        let node_prev = tape.input(Matrix::full(1, 4, 0.3));
        let edge_prev = tape.input(Matrix::full(3, 4, 0.3));
        let edge_msgs = tape.input(Matrix::full(3, 4, 0.7));
        let mut ops = TapeOps::new(&mut tape, &params);
        let m = layer.aggregate(&mut ops, node_prev, edge_prev, edge_msgs, &[0, 0, 0], 1);
        for &v in tape.value(m).data() {
            assert!((v - 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn dual_tr_part_is_gated_lg() {
        let (params, layer) = setup(Aggregator::DualAttention);
        let mut tape = Tape::new();
        let node_prev = tape.input(Matrix::full(1, 4, 0.2));
        let edge_prev = tape.input(Matrix::full(2, 4, 0.2));
        let edge_msgs = tape.input(Matrix::full(2, 4, 1.0));
        let mut ops = TapeOps::new(&mut tape, &params);
        let m = layer.aggregate(&mut ops, node_prev, edge_prev, edge_msgs, &[0, 0], 1);
        let v = tape.value(m);
        // Columns 4..8 hold m_LG = 1.0; columns 0..4 hold gate·m_LG with a
        // sigmoid gate in (0, 1).
        for c in 4..8 {
            assert!((v.get(0, c) - 1.0).abs() < 1e-5);
        }
        for c in 0..4 {
            let g = v.get(0, c);
            assert!(g > 0.0 && g < 1.0, "gate out of range: {g}");
        }
    }
}
