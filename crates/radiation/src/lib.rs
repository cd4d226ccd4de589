//! # ssplane-radiation
//!
//! Near-Earth trapped-radiation substrate for the `ss-plane` project
//! (§3.2 of the paper) — a from-scratch, calibrated stand-in for the
//! IRENE (AE9/AP9) model the paper uses, which is export-controlled and
//! unavailable offline.
//!
//! Physical structure reproduced (DESIGN.md §2 documents the substitution):
//!
//! * [`dipole`] — an **offset tilted dipole** geomagnetic field. The
//!   ~11.5° tilt and ~500 km offset of the dipole center are what create
//!   the *South Atlantic Anomaly*: on the side opposite the offset the
//!   field at a given altitude is weaker, so the inner belt reaches down
//!   into LEO.
//! * [`lshell`] — McIlwain L-shell and B/B₀ magnetic coordinates in the
//!   dipole approximation: the natural coordinates of trapped particles.
//! * [`belts`] — parametric Van Allen belt flux profiles: inner-belt
//!   protons and electrons (L ≈ 1.3–2), outer-belt electrons (L ≈ 4–6,
//!   whose "horns" intersect LEO at 55–70° latitude — the reason
//!   moderate-inclination orbits are a radiation worst case, Fig. 7).
//! * [`solar`] — a solar-cycle-24-like activity driver modulating the
//!   belts (used by the Fig. 6 "sample of 128 days" map).
//! * [`flux`] — the combined environment: flux by species at any position
//!   and epoch, plus gridded maps (Fig. 6).
//! * [`fluence`] — daily fluence accumulation along orbits (Fig. 7) and
//!   per-constellation statistics (Fig. 10).
//!
//! Absolute flux levels are calibrated to the decades the paper reports
//! (electron daily fluence of order 10⁹–10¹⁰ #/cm²/MeV at 560 km, protons
//! of order 10⁷); the *spatial structure* is what the paper's arguments
//! depend on, and it emerges from the field geometry rather than from
//! curve fitting.

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
#![forbid(unsafe_code)]

pub mod belts;
pub mod dipole;
pub mod error;
pub mod fluence;
pub mod flux;
pub mod lshell;
pub mod solar;

pub use error::{RadiationError, Result};
pub use flux::{RadiationEnvironment, Species};
pub use lshell::MagneticCoords;
