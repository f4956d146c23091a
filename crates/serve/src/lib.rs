//! # deepseq-serve — batched tape-free inference for DeepSeq
//!
//! Downstream, a trained DeepSeq model is a *frozen embedding provider*:
//! power estimation (paper Section IV-C), reliability analysis and the
//! disentangled follow-up DeepSeq2 all issue many forward queries against
//! the same weights, often on the same or near-identical circuits. This
//! crate is the serving chassis for that traffic:
//!
//! * [`InferenceModel`] — a **tape-free forward pass**: the frozen model's
//!   own propagation schedule, level step and readout (written once in
//!   `deepseq-core` against [`Ops`](deepseq_nn::Ops)) run on a serving
//!   backend that evaluates into reused [`Workspace`] scratch buffers. No
//!   autograd tape is grown, and predictions are bitwise-equal to
//!   [`DeepSeq::predict`](deepseq_core::DeepSeq::predict) on the same
//!   checkpoint;
//! * **blocked GEMM kernels** — every product of the forward pass
//!   dispatches through the [`Kernel`](deepseq_nn::Kernel) carried by the
//!   [`Workspace`] (default: `blocked`, as in training; override with the
//!   `DEEPSEQ_KERNEL` environment variable). The kernels are bitwise-equal
//!   on finite inputs, so choosing between them is pure performance;
//! * **level parallelism** — big levels and large products fan out across
//!   the shared worker [`Pool`](deepseq_nn::Pool) (sized by
//!   `DEEPSEQ_THREADS`), with outputs bitwise-identical at any thread
//!   count;
//! * **`DSQM` checkpoints** — the one format every load path reads, its
//!   CRC verified before any weight is trusted
//!   ([`InferenceModel::from_binary_checkpoint`]; [`load_checkpoint`]
//!   reads a file). The text format is for `deepseq-serve convert` only;
//! * [`ConeMemo`] — the one **content-addressed LRU**: the final state
//!   rows and head rows of each weakly connected component, keyed by
//!   exactly what the forward pass reads (model generation, the
//!   component's order-sensitive structure and its initial-state rows).
//!   A request whose components all hit is answered without running the
//!   model, a near-duplicate recomputes only its changed components, and
//!   every answer is bitwise what an uncached engine returns;
//! * [`Engine`] — [`Engine::serve`] answers one request on the calling
//!   thread, and [`Engine::serve_batch`] runs it for independent requests
//!   across the **same shared pool** the level parallelism runs on (one
//!   pool for the whole process, not one thread set per engine), one
//!   workspace per request in progress;
//! * [`HttpServer`] — a **std-only HTTP/1.1 front door** for the engine
//!   (`POST /v1/embed`, `/healthz`, `/metrics`, graceful drain), with
//!   bounded admission (429 on overflow) and per-request deadlines (504
//!   on expiry). See `docs/SERVING.md` for the wire protocol;
//! * the `deepseq-serve` **CLI** — AIGER / `.bench` circuits in, JSON
//!   predictions out, a `DSQM`↔text checkpoint converter, and a `serve`
//!   mode that runs the HTTP server.
//!
//! # Example
//!
//! ```
//! use deepseq_core::{DeepSeq, DeepSeqConfig};
//! use deepseq_netlist::SeqAig;
//! use deepseq_serve::{Engine, EngineOptions, InferenceModel, ServeRequest};
//! use deepseq_sim::Workload;
//!
//! // Freeze a (here: untrained) model and start an engine.
//! let model = DeepSeq::new(DeepSeqConfig { hidden_dim: 8, iterations: 2,
//!                                          ..DeepSeqConfig::default() });
//! let engine = Engine::new(InferenceModel::from_model(&model),
//!                          EngineOptions { workers: 2, ..EngineOptions::default() });
//!
//! // Serve a circuit under a workload.
//! let mut aig = SeqAig::new("toggle");
//! let q = aig.add_ff("q", false);
//! let n = aig.add_not(q);
//! aig.connect_ff(q, n)?;
//! let responses = engine.serve_batch(vec![ServeRequest {
//!     id: 0, aig, workload: Workload::uniform(0, 0.5), init_seed: 0,
//! }]);
//! let served = responses[0].result.as_ref().unwrap();
//! assert_eq!(served.data.predictions.lg.rows(), 2);
//! # Ok::<(), deepseq_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cone;
pub mod engine;
pub mod http;
pub mod infer;
pub mod json;
pub mod metrics;
pub mod server;

use std::error::Error;
use std::fmt;

use deepseq_netlist::NetlistError;
use deepseq_nn::ParamsError;

pub use cache::{CacheKey, CacheStats, CachedInference, ConeEntry, ConeKey, ConeMemo};
pub use engine::{
    panics_caught, Engine, EngineError, EngineOptions, ServeRequest, ServeResponse, ServedInference,
};
pub use http::{HttpLimits, HttpRequest, HttpResponse};
pub use infer::{load_checkpoint, InferenceModel, InferenceOutput, Workspace};
pub use metrics::Metrics;
pub use server::{DrainReport, HttpServer, ServerOptions};

/// Errors of the serving subsystem.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A checkpoint failed to parse or decode.
    Checkpoint(ParamsError),
    /// A file could not be read (the I/O error's message).
    Io(String),
    /// The request's circuit is structurally invalid.
    Netlist(NetlistError),
    /// The request's workload covers fewer PIs than the circuit has.
    WorkloadTooShort {
        /// PIs in the circuit.
        pis: usize,
        /// Stimuli in the workload.
        stimuli: usize,
    },
    /// The engine's machinery failed while processing the request (a
    /// caught panic) — a server-side 500, unlike every other variant,
    /// which is the client's fault.
    Engine(engine::EngineError),
}

impl ServeError {
    /// True for server-side failures (HTTP 500); false for request errors
    /// (HTTP 400).
    pub fn is_internal(&self) -> bool {
        matches!(self, ServeError::Engine(_))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            ServeError::Io(detail) => write!(f, "I/O error: {detail}"),
            ServeError::Netlist(e) => write!(f, "invalid circuit: {e}"),
            ServeError::WorkloadTooShort { pis, stimuli } => {
                write!(f, "workload covers {stimuli} PIs but the circuit has {pis}")
            }
            ServeError::Engine(e) => write!(f, "internal engine failure: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Netlist(e) => Some(e),
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<engine::EngineError> for ServeError {
    fn from(e: engine::EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<ParamsError> for ServeError {
    fn from(e: ParamsError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<NetlistError> for ServeError {
    fn from(e: NetlistError) -> Self {
        ServeError::Netlist(e)
    }
}
