//! # ssplane-bench
//!
//! Figure-regeneration library for the `ss-plane` paper reproduction.
//!
//! Every figure in the paper's evaluation is backed by one module in
//! [`figures`], returning typed series that the `repro` binary renders,
//! the Criterion benches time, and the workspace integration tests assert
//! shape properties on (`tests/figures.rs`, one test per figure).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod render;
