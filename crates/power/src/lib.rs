//! Dynamic power estimation — downstream task 1 of the DeepSeq paper
//! (Section V-A, Tables V and VI).
//!
//! The paper's pipeline (Fig. 3) compares four sources of switching
//! activity, each translated into a SAIF file and evaluated by a power
//! analysis tool:
//!
//! 1. **GT** — logic simulation of the testbench workload ([`deepseq_sim`]);
//! 2. **Probabilistic** — the non-simulative baseline of Ghosh et al. \[27\]
//!    ([`probabilistic`]);
//! 3. **Grannite** — the GNN baseline of Zhang et al. \[18\], re-implemented
//!    per the paper's description ([`grannite`]);
//! 4. **DeepSeq** — the fine-tuned model of [`deepseq_core`].
//!
//! The commercial tool + TSMC 90 nm library are replaced by [`cells`] +
//! [`analyze`] (a ½·C·V²·f·TC power model over a 90 nm-class capacitance
//! table); [`saif`] reproduces the interchange format so activity really
//! flows through SAIF files as in Fig. 3.
//!
//! # Example
//!
//! ```
//! use deepseq_netlist::netlist::{GateKind, Netlist};
//! use deepseq_power::{run_pipeline, PipelineConfig};
//! use deepseq_sim::Workload;
//!
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_named_gate(GateKind::Xor, vec![a, b], "g");
//! nl.set_output(g, "y");
//!
//! let result = run_pipeline(&nl, &Workload::uniform(2, 0.5), None, None,
//!                           &PipelineConfig::default());
//! assert!(result.gt_mw > 0.0);
//! // The probabilistic method is close on this trivial circuit.
//! assert!(result.probabilistic.error_pct < 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod cells;
pub mod grannite;
pub mod pipeline;
pub mod probabilistic;
pub mod saif;

pub use analyze::{analyze_power, percent_error, PowerReport};
pub use cells::{watts_to_mw, CellLibrary};
pub use grannite::{
    evaluate_grannite, train_grannite, Grannite, GranniteConfig, GranniteSample,
    GranniteTrainOptions,
};
pub use pipeline::{
    deepseq_probs, finetune_samples, run_pipeline, saif_for_netlist, DesignPowerResult,
    MethodPower, PipelineConfig,
};
pub use probabilistic::{estimate, ProbabilisticOptions};
pub use saif::{parse_saif, write_saif, NetActivity, SaifDocument, SaifError};
