#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! End-to-end and per-layer benchmark of the LDPRecover reproduction.
//!
//! The `perfbench` binary runs one workload per process. An untraced run
//! times the library's own entry points ([`workload`]); a traced run
//! replays the same work from each layer's public functions with a span
//! around every call ([`replay`], [`trace`]) and checks the replay
//! against the library bit for bit ([`digest`]). See `perfbench/README.md`.

pub mod digest;
pub mod measure;
pub mod replay;
pub mod trace;
pub mod workload;
