//! Parameter sweeps that regenerate every figure in the paper's evaluation
//! (§III and §VI).
//!
//! | Module | Figure | What it sweeps |
//! |--------|--------|----------------|
//! | [`randomness`] | Figs. 3, 4 | election-timeout randomization ranges, 5-server Raft |
//! | [`scale`] | Fig. 9 | cluster size 8–128, Raft vs ESCAPE |
//! | [`phases`] | Fig. 10 | forced competing-candidate phases 0–3 at five scales |
//! | [`loss`] | Fig. 11 | message-loss rate 0–40 %, Raft vs Z-Raft vs ESCAPE |
//!
//! Each sweep returns plain result structs; `escape-bench`'s
//! `figures <name>` formats them as the paper's rows/series (CSV +
//! summary tables).

pub mod loss;
pub mod phases;
pub mod randomness;
pub mod scale;

pub use loss::{run_loss_sweep, LossPoint};
pub use phases::{run_phases_sweep, PhasesPoint};
pub use randomness::{run_randomness_sweep, RandomnessPoint};
pub use scale::{run_scale_sweep, ScalePoint};
