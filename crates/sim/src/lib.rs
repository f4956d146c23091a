//! Bit-parallel cycle-accurate simulation for the DeepSeq reproduction.
//!
//! This crate produces every piece of "ground truth" the paper consumes:
//!
//! * [`workload`] — per-PI stimulus models (logic-1 probability and toggle
//!   density, sampled as 2-state Markov chains). The paper randomly draws
//!   logic-1 probabilities per PI and simulates a 10 000-cycle pattern
//!   (Section III-B).
//! * [`engine`] — a 64-lane bit-parallel sequential simulator over
//!   [`SeqAig`](deepseq_netlist::SeqAig) and generic
//!   [`Netlist`](deepseq_netlist::Netlist)s. Each bit lane is an independent
//!   stimulus stream, so a `cycles`-cycle run collects `64 × cycles` samples.
//! * [`probability`] — logic-1 probability and `0→1` / `1→0` transition
//!   probabilities per node: the two supervision sets of the multi-task
//!   objective (Section III-A).
//! * [`fault`] — Monte-Carlo transient-fault injection producing the per-node
//!   error probabilities and circuit reliability used by the downstream
//!   reliability task (Section V-B).
//!
//! # Example
//!
//! ```
//! use deepseq_netlist::SeqAig;
//! use deepseq_sim::{simulate, SimOptions, Workload};
//!
//! let mut aig = SeqAig::new("toggle");
//! let q = aig.add_ff("q", false);
//! let n = aig.add_not(q);
//! aig.connect_ff(q, n)?;
//! aig.set_output(q, "y");
//!
//! let workload = Workload::uniform(aig.num_pis(), 0.5);
//! let result = simulate(&aig, &workload, &SimOptions::default());
//! // A free-running toggle flip-flop is 1 half the time and transitions
//! // every cycle.
//! assert!((result.probs.p1[q.index()] - 0.5).abs() < 0.02);
//! assert!((result.probs.p01[q.index()] - 0.5).abs() < 0.02);
//! # Ok::<(), deepseq_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod probability;
pub mod workload;

pub use engine::{simulate, simulate_netlist, SimOptions, SimResult};
pub use fault::{inject_faults, FaultOptions, FaultResult};
pub use probability::NodeProbabilities;
pub use workload::{PiStimulus, Workload};
