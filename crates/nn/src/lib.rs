//! Minimal tensor + reverse-mode autograd engine for the DeepSeq
//! reproduction.
//!
//! The original DeepSeq implementation uses PyTorch Geometric; nothing
//! comparable exists offline in Rust, so this crate is the substrate built in
//! its place. It provides exactly what the paper's model needs, and nothing
//! more:
//!
//! * [`Matrix`] — dense row-major `f32` matrices;
//! * [`kernels`] — the reference and register-tiled GEMM variants behind
//!   the [`Kernel`] dispatch enum (selectable via `DEEPSEQ_KERNEL`),
//!   bitwise-equal to each other on finite inputs (the numerics contract
//!   documented in [`kernels`]), including the fused gate op
//!   `act(x·W + h·U + b)` used by both training and serving;
//! * [`numerics`] — relative-error comparison primitives for the checks
//!   that compare against different arithmetic (finite-difference
//!   gradients);
//! * [`pool`] — the persistent worker [`Pool`] (sized by `DEEPSEQ_THREADS`)
//!   that large products, the serve path and the data-parallel training
//!   loop fan out across, with results bitwise-identical at any thread
//!   count;
//! * [`fault`] — opt-in (`DEEPSEQ_FAULT`) deterministic fault injection
//!   behind the same single-atomic disarmed fast path as [`trace`]: named
//!   points (checkpoint corruption, task panics, slow stages, cache
//!   evictions, socket-write failures, dropped replies) with a seeded,
//!   thread-stable PRNG so every recovery path is exercisable in CI;
//! * [`trace`] — opt-in (`DEEPSEQ_TRACE`) span recording behind a single
//!   atomic check: per-stage timings from the HTTP edge down to GEMM
//!   dispatch, exported as span trees, chrome://tracing JSON and the
//!   `deepseq_stage_seconds` metrics;
//! * [`Tape`] — a define-by-run reverse-mode autograd tape with the segment
//!   ops (gather / segment-softmax / segment-sum) that make levelized
//!   "topological batching" over circuit graphs efficient;
//! * [`ops`] — the [`Ops`] trait the model's forward pass is written
//!   against, with [`TapeOps`], its autograd-tape backend (the serving
//!   workspace in `deepseq-serve` is the other), and the value arithmetic
//!   both backends share;
//! * [`layers`] — [`Linear`], 3-layer [`Mlp`] regressor heads, [`GruCell`]
//!   (the paper's Combine function, Eq. 8) and [`AdditiveAttention`]
//!   (the scoring used by Eq. 5/6), generic over [`Ops`];
//! * [`Adam`] — the optimizer used throughout the paper (lr `1e-4`);
//! * [`Params`] / [`GradStore`] — named parameter store with its `DSQP`
//!   binary checkpoint format (no serialization dependencies); the
//!   gradient store is dense and id-ordered, so reductions over it are
//!   deterministic — the primitive behind bitwise-reproducible
//!   data-parallel training.
//!
//! # Example: one training step
//!
//! ```
//! use deepseq_nn::{Adam, Matrix, Mlp, Params, Tape, TapeOps};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let head = Mlp::new(&mut params, "head", &[4, 8, 1], &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! let x = Matrix::full(3, 4, 0.5);
//! let target = Matrix::full(3, 1, 0.25);
//! let mut tape = Tape::new();
//! let xv = tape.input(x);
//! let pred = head.forward(&mut TapeOps::new(&mut tape, &params), xv);
//! let loss = tape.l1_loss(pred, &target);
//! let grads = tape.backward(loss);
//! opt.step(&mut params, &grads);
//! assert!(tape.value(loss).get(0, 0) >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod kernels;
pub mod layers;
pub mod matrix;
pub mod numerics;
pub mod ops;
pub mod optim;
pub mod params;
pub mod pool;
pub mod tape;
pub mod trace;

pub use config::{report_warning, warning_count, warnings};
pub use fault::{FaultPoint, FaultSpec};
pub use kernels::{simd_accelerated, Act, Kernel};
pub use layers::{AdditiveAttention, GruCell, Linear, Mlp};
pub use matrix::Matrix;
pub use ops::{Ops, TapeOps};
pub use optim::Adam;
pub use params::{
    append_crc_trailer, crc32, verify_crc_trailer, write_atomic, BinReader, CheckpointMap,
    GradStore, ParamId, Params, ParamsError,
};
pub use pool::{Pool, PoolStats};
pub use tape::{Tape, VarId};
pub use trace::{SpanKind, SpanRecord};
