//! Experiment harness for the IPDPS'14 OBM reproduction: regenerates every
//! table and figure of the paper's evaluation (run
//! `cargo run --release -p obm-cli -- experiments all`).
//! Performance is benchmarked by `perfbench/`, outside the workspace.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod lineup;
pub mod pool;
pub mod sim_bridge;
pub mod table;
