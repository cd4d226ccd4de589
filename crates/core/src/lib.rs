//! # ssplane-core
//!
//! The primary contribution of the `ss-plane` paper reproduction:
//! **sun-synchronous-plane constellation design** (§4 of *"Sustainability
//! or Survivability? Eliminating the Need to Choose in LEO Satellite
//! Constellations"*, HotNets 2025).
//!
//! The pipeline:
//!
//! 1. [`ssplane`] — the **SS-plane primitive**: a sun-synchronous orbital
//!    plane is a *fixed curve* on the (latitude, local-time-of-day) demand
//!    grid; a plane with satellites spaced for a continuous street of
//!    coverage contributes one satellite of capacity to every grid cell
//!    its swath touches.
//! 2. [`designer`] — the paper's greedy cover algorithm (§4.2): repeatedly
//!    put an SS-plane through the maximum-demand cell and subtract one
//!    satellite of capacity along its path, until the grid is satisfied.
//! 3. [`walker_baseline`] — the comparison system: multi-shell
//!    Walker-delta constellations whose shell inclinations are chosen from
//!    the population-density profile (the stronger, demand-aware variant
//!    of the uniform baseline).
//! 4. [`rgt_analysis`] — the §2.2 negative result: covering a single
//!    repeat ground track costs *more* satellites than uniform Walker
//!    coverage (Fig. 1) — plus the demand-driven RGT designer that lets
//!    scenarios evaluate the losing option side by side.
//! 5. [`evaluate`] — satellite-count sweeps (Fig. 9), simulation-based
//!    demand-satisfaction verification, and per-satellite radiation
//!    statistics (Fig. 10).
//! 6. [`system`] — the pluggable design/evaluation API: the [`Designer`]
//!    trait and [`DesignedSystem`] output every downstream stage (attack,
//!    fluence, survivability, networking) consumes generically.
//! 7. [`cache`] — the compute-once [`KernelCache`] of the fluence and
//!    SS-candidate kernels, which a sweep shares across its points.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod designer;
pub mod error;
pub mod evaluate;
pub mod rgt_analysis;
pub mod ssplane;
pub mod sustainability;
pub mod system;
pub mod walker_baseline;

pub use cache::KernelCache;
pub use designer::{design_ss_constellation, DesignConfig, SsConstellation};
pub use error::{CoreError, Result};
pub use rgt_analysis::{design_rgt_constellation, RgtConstellation, RgtDesignConfig};
pub use ssplane::SsPlane;
pub use system::{
    DesignParams, DesignSummary, DesignedSystem, Designer, RgtDesigner, SsDesigner, SystemPlane,
    WalkerDesigner,
};
pub use walker_baseline::{design_walker_constellation, WalkerConstellation};
