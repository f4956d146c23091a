//! Benchmark circuit generation for the DeepSeq reproduction.
//!
//! The paper trains on subcircuits extracted from ISCAS'89 / ITC'99 /
//! OpenCores netlists (Table I) and evaluates downstream tasks on six large
//! OpenCores designs (Table IV). Neither corpus is available offline, so
//! this crate synthesizes stand-ins:
//!
//! * [`random`] — parameterized random sequential AIGs;
//! * [`dataset`] — family presets matching Table I statistics and corpus
//!   assembly;
//! * [`blocks`] / [`designs`] — structural analogs of the six Table IV test
//!   designs (router, PLL, timer, RTC, audio controller, memory controller)
//!   built from real hardware blocks;
//! * [`extract`] — output-cone subcircuit extraction (the paper's 150–300
//!   node windows), usable on real netlists parsed from `.bench` files.
//!
//! # Example
//!
//! ```
//! use deepseq_data::dataset::{Corpus, Family};
//!
//! let corpus = Corpus::generate(30, 0);
//! assert_eq!(corpus.families.len(), 3);
//! for stats in corpus.stats() {
//!     println!("{stats}");
//! }
//! let iscas = &corpus.families[0];
//! assert_eq!(iscas.0, Family::Iscas89);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod dataset;
pub mod designs;
pub mod extract;
pub mod random;

pub use dataset::{generate_family, Corpus, Family};
pub use designs::{all_designs, design_by_name, paper_node_count};
pub use extract::{extract_cone, extract_random_cones, ExtractOptions};
pub use random::{random_circuit, sample_spec, CircuitSpec};
