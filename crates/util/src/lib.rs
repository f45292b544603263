#![warn(missing_docs)]
//! Shared utilities for the ExtremeEarth workspace.
//!
//! Everything in this crate is deliberately dependency-free and fully
//! deterministic: all randomness flows from explicitly-seeded generators so
//! that every experiment in the repository reproduces bit-for-bit.
//!
//! Modules:
//! * [`rng`] — `SplitMix64` / `Xoshiro256PlusPlus` pseudo-random generators
//!   with the handful of distributions the simulators need.
//! * [`noise`] — 2-D value noise and fractal Brownian motion, used by the
//!   synthetic-world generator.
//! * [`stats`] — summary statistics, confusion matrices and classification
//!   metrics shared by the evaluation harness.
//! * [`bytes`] — human-readable byte-size formatting for reports.
//! * [`timeline`] — virtual-time primitives shared by the discrete-event
//!   simulators.
//! * [`par`] — the workspace's single threading idiom: chunked fan-out
//!   over a persistent helper pool with deterministic fixed-order
//!   reduction.
//! * [`json`] — a small JSON value tree, emitter and parser (no external
//!   serialisation crates).
//! * [`poll`] — `poll(2)` / wake-pipe / rlimit wrappers for the
//!   event-driven serve tier (declared `extern "C"`, no libc crate).
//! * [`ring`] — the consistent-hash ring shared by the shard data
//!   loaders and the scatter-gather router tier.
//! * [`http1`] — an incremental HTTP/1.1 response decoder for
//!   nonblocking client sockets (the loadgen fleet and the router's
//!   shard-client pool).

pub mod bytes;
pub mod http1;
pub mod json;
pub mod noise;
pub mod par;
pub mod poll;
pub mod ring;
pub mod rng;
pub mod stats;
pub mod timeline;

pub use rng::Rng;
