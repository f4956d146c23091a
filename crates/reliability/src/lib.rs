//! Reliability analysis — downstream task 2 of the DeepSeq paper
//! (Section V-B, Table VII).
//!
//! Three estimators of circuit reliability under transient faults are
//! compared:
//!
//! 1. **GT** — Monte-Carlo fault injection
//!    ([`deepseq_sim::inject_faults`]): fault-free and faulty simulation of
//!    the same patterns (paper: 1 000 patterns × 100 cycles, 0.05 % error
//!    rate);
//! 2. **Analytical** — an SPRA-style propagation baseline \[32\]
//!    ([`analytical`]);
//! 3. **DeepSeq** — the pre-trained model fine-tuned with per-node
//!    `0→1`/`1→0` error probabilities ([`finetune`]).
//!
//! The circuit-level metric is the mean over primary outputs of the
//! probability that the output is correct.
//!
//! # Example
//!
//! ```
//! use deepseq_netlist::SeqAig;
//! use deepseq_reliability::{analyze, AnalyticalOptions};
//! use deepseq_sim::Workload;
//!
//! let mut aig = SeqAig::new("demo");
//! let a = aig.add_pi("a");
//! let n = aig.add_not(a);
//! aig.set_output(n, "y");
//! let r = analyze(&aig, &Workload::uniform(1, 0.5), &AnalyticalOptions::default());
//! assert!(r.output_reliability > 0.99 && r.output_reliability < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytical;
pub mod finetune;

pub use analytical::{analyze, AnalyticalOptions, AnalyticalResult};
pub use finetune::{predict_reliability, reliability_sample, ReliabilityPrediction};
