//! # ssplane-demand
//!
//! The spatiotemporal Internet-bandwidth-demand substrate of the `ss-plane`
//! project (§3.1 of the paper).
//!
//! The paper grounds its demand model in two external datasets that are not
//! redistributable, so this crate implements calibrated synthetic
//! equivalents, each calibrated to the paper figure it stands in for:
//!
//! * [`population`] — a procedural stand-in for the SEDAC Gridded World
//!   Population: a 0.5°-resolution density grid whose *max-density-per-
//!   latitude* profile matches the paper's Fig. 3 (population clustered at
//!   intermediate northern latitudes, peak ≈ 6000 /km²).
//! * [`diurnal`] — a generative stand-in for CESNET-TimeSeries24: per-site
//!   throughput seasonality with waking/sleeping cycles whose
//!   median/95th-percentile-of-median-normalized-load curves match Fig. 4.
//! * [`spatiotemporal`] — their product: bandwidth demand as a function of
//!   (latitude, longitude, local solar time), the model behind Fig. 5.
//! * [`grid`] — the **sun-relative demand grid**: demand as a function of
//!   (latitude, local time of day), stationary in the sun-relative frame —
//!   the object the SS-plane designer covers (Fig. 8).
//! * [`gravity`] — the population-scale workload: a seeded gravity model
//!   over the top demand cells emitting 10⁵–10⁶ city-pair flows whose
//!   rates conserve the grid's demand mass, deterministic per seed and
//!   across thread counts.
//!
//! Everything is deterministic given a seed; no files are read.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
#![forbid(unsafe_code)]

pub mod diurnal;
pub mod error;
pub mod gravity;
pub mod grid;
pub mod population;
pub mod spatiotemporal;

pub use diurnal::DiurnalModel;
pub use error::{DemandError, Result};
pub use gravity::{gravity_flows, gravity_sites, GravityConfig, GravityFlow, GravityFlows};
pub use grid::LatTodGrid;
pub use population::PopulationGrid;
pub use spatiotemporal::DemandModel;
