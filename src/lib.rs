//! # DeepSeq — deep sequential circuit learning, reproduced in Rust
//!
//! A full reproduction of *"DeepSeq: Deep Sequential Circuit Learning"*
//! (Khan, Shi, Li, Xu — DATE 2024): a graph neural network that learns
//! general representations of sequential netlists, pre-trained to predict
//! per-gate logic and transition probabilities and fine-tuned for dynamic
//! power estimation and reliability analysis.
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`netlist`] | `deepseq-netlist` | sequential AIGs, generic netlists, `.bench` I/O, lowering |
//! | [`sim`] | `deepseq-sim` | 64-lane bit-parallel simulation, workloads, fault injection |
//! | [`nn`] | `deepseq-nn` | matrices, blocked GEMM kernels, autograd tape, layers, ADAM |
//! | [`core`] | `deepseq-core` | **the DeepSeq model**, propagation schemes, training |
//! | [`data`] | `deepseq-data` | benchmark families, the six Table IV designs |
//! | [`power`] | `deepseq-power` | power pipeline: probabilistic + Grannite baselines, SAIF |
//! | [`reliability`] | `deepseq-reliability` | analytical baseline, reliability fine-tuning |
//! | [`serve`] | `deepseq-serve` | batched tape-free inference engine, binary checkpoints, cone memo |
//!
//! # Quickstart
//!
//! ```
//! use deepseq::core::{DeepSeq, DeepSeqConfig, TrainOptions, TrainSample};
//! use deepseq::core::train::{evaluate, train};
//! use deepseq::netlist::SeqAig;
//! use deepseq::sim::{SimOptions, Workload};
//!
//! // Build a sequential circuit.
//! let mut aig = SeqAig::new("quickstart");
//! let a = aig.add_pi("a");
//! let q = aig.add_ff("q", false);
//! let g = aig.add_and(a, q);
//! let n = aig.add_not(g);
//! aig.connect_ff(q, n)?;
//! aig.set_output(g, "y");
//!
//! // Simulate a workload, train, predict.
//! let config = DeepSeqConfig { hidden_dim: 8, iterations: 2, ..Default::default() };
//! let mut model = DeepSeq::new(config);
//! let sample = TrainSample::generate(&aig, &Workload::uniform(1, 0.5),
//!                                    config.hidden_dim, &SimOptions::default(), 0);
//! train(&mut model, std::slice::from_ref(&sample),
//!       &TrainOptions { epochs: 2, ..Default::default() });
//! let metrics = evaluate(&model, std::slice::from_ref(&sample));
//! assert!(metrics.pe_lg <= 1.0);
//! # Ok::<(), deepseq::netlist::NetlistError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harnesses regenerating every table of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use deepseq_core as core;
pub use deepseq_data as data;
pub use deepseq_netlist as netlist;
pub use deepseq_nn as nn;
pub use deepseq_power as power;
pub use deepseq_reliability as reliability;
pub use deepseq_serve as serve;
pub use deepseq_sim as sim;
