//! Gate-level netlist representations for the DeepSeq reproduction.
//!
//! This crate provides the two circuit representations used throughout the
//! workspace:
//!
//! * [`SeqAig`] — a *sequential and-inverter graph*: primary inputs, 2-input
//!   AND gates, inverters and D flip-flops. This is the canonical form the
//!   DeepSeq model consumes (paper, Section III). FF feedback may create
//!   cycles; [`levels`](crate::level) cuts them by treating FFs as
//!   pseudo-primary-inputs, exactly as in Fig. 2 of the paper.
//! * [`Netlist`] — a generic multi-gate-type netlist (`AND/OR/NAND/NOR/XOR/
//!   XNOR/NOT/BUF/MUX/DFF`) as found in realistic designs. [`lower`] converts
//!   it into a [`SeqAig`] *without optimization*, tracking for every original
//!   gate the AIG node that carries the same switching activity
//!   (paper, Section V-A2).
//!
//! # Example
//!
//! Build the 2-bit counter from Fig. 2 style circuits and levelize it:
//!
//! ```
//! use deepseq_netlist::{SeqAig, level::Levels};
//!
//! let mut aig = SeqAig::new("counter");
//! let en = aig.add_pi("en");
//! let q0 = aig.add_ff("q0", false);
//! let n = aig.add_not(q0);
//! let d0 = aig.add_and(en, n); // toggle bit 0 while enabled
//! aig.connect_ff(q0, d0)?;
//! aig.set_output(q0, "out0");
//! aig.validate()?;
//! let levels = Levels::build(&aig);
//! assert_eq!(levels.level_of(en), 0);
//! # Ok::<(), deepseq_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aig;
pub mod aiger;
pub mod bench_io;
pub mod error;
pub mod hash;
pub mod level;
pub mod lower;
pub mod netlist;
pub mod stats;

pub use aig::{AigNode, NodeId, SeqAig, NUM_NODE_TYPES};
pub use aiger::{parse_aiger, write_aiger};
pub use error::NetlistError;
pub use hash::structural_hash;
pub use level::Levels;
pub use lower::{lower_to_aig, LoweredNetlist};
pub use netlist::{GateId, GateKind, GateRef, Netlist};
pub use stats::{CircuitStats, FamilyStats};
