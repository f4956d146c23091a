//! DeepSeq: deep sequential circuit learning (Khan et al., DATE 2024).
//!
//! This crate implements the paper's primary contribution: a DAG-GNN over
//! sequential and-inverter graphs with
//!
//! * a **customized propagation scheme** (Fig. 2) — flip-flop cycles are cut
//!   (FFs become pseudo-primary-inputs), a forward levelized pass reads FF
//!   states without writing them, a reverse pass propagates implication
//!   information backwards, and a final step copies each FF's D-input
//!   representation into the FF, mimicking the clock edge; repeated `T`
//!   times ([`PropagationScheme::Custom`]);
//! * a **dual attention** aggregation (Eq. 5–7) that learns logic behaviour
//!   (attention over predecessors) and transition behaviour (a gate between
//!   the aggregated logic message and the node's previous state) at once
//!   ([`Aggregator::DualAttention`]);
//! * a **multi-task objective** (Eq. 3): L1 regression of per-node `0→1` /
//!   `1→0` transition probabilities and logic-1 probabilities, produced by
//!   simulating one random workload per circuit;
//! * the **baselines** of Table II — DAG-ConvGNN and DAG-RecGNN with
//!   conv-sum or attention aggregation — expressed as configurations of the
//!   same model.
//!
//! The forward pass is written once, generic over
//! [`Ops`](deepseq_nn::Ops) (see [`model`]): [`DeepSeq::forward`] runs it
//! on the autograd tape, `deepseq-serve` on its scratch-buffer backend.
//!
//! # Quickstart
//!
//! ```
//! use deepseq_core::{DeepSeq, DeepSeqConfig, TrainOptions, TrainSample};
//! use deepseq_core::train::{evaluate, train};
//! use deepseq_netlist::SeqAig;
//! use deepseq_sim::{SimOptions, Workload};
//!
//! // A 2-gate sequential circuit and a random workload.
//! let mut aig = SeqAig::new("demo");
//! let a = aig.add_pi("a");
//! let q = aig.add_ff("q", false);
//! let g = aig.add_and(a, q);
//! let n = aig.add_not(g);
//! aig.connect_ff(q, n)?;
//! aig.set_output(g, "y");
//!
//! let config = DeepSeqConfig { hidden_dim: 8, iterations: 2, ..DeepSeqConfig::default() };
//! let mut model = DeepSeq::new(config);
//! let sample = TrainSample::generate(
//!     &aig,
//!     &Workload::uniform(1, 0.5),
//!     config.hidden_dim,
//!     &SimOptions::default(),
//!     0,
//! );
//! let history = train(&mut model, std::slice::from_ref(&sample), &TrainOptions {
//!     epochs: 3,
//!     ..TrainOptions::default()
//! });
//! assert_eq!(history.len(), 3);
//! let metrics = evaluate(&model, std::slice::from_ref(&sample));
//! assert!(metrics.pe_lg <= 1.0);
//! # Ok::<(), deepseq_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod config;
pub mod encoding;
pub mod graph;
pub mod model;
pub mod train;

pub use aggregate::AggregatorLayer;
pub use config::{Aggregator, DeepSeqConfig, PropagationScheme};
pub use graph::{merge_graphs, CircuitGraph, LevelBatch};
pub use model::{DeepSeq, DirectionLayer, ForwardVars, Predictions, Step};
pub use train::{
    evaluate, evaluate_on, merge_samples, train, train_batched, train_batched_on, train_on,
    train_test_split, EpochStats, EvalMetrics, TrainOptions, TrainSample,
};
