//! Real-thread benchmark of the RAMR workspace.
//!
//! One run measures one workload at an equal thread budget across the
//! three backends, checks every output against a serial reference, and
//! reports either the end-to-end metrics (untraced run) or the per-layer
//! metrics (traced run). See `README.md` beside this crate.

pub mod bench;
pub mod check;
pub mod gen;
pub mod probes;
pub mod serve;
pub mod stats;
pub mod tasks;
pub mod trace;
