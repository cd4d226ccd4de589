//! # ssplane-astro
//!
//! Orbital-mechanics substrate for the `ss-plane` project, a reproduction of
//! *"Sustainability or Survivability? Eliminating the Need to Choose in LEO
//! Satellite Constellations"* (HotNets 2025).
//!
//! This crate implements, from scratch, every piece of astrodynamics the
//! paper relies on:
//!
//! * time systems ([`time`]): Julian dates, Greenwich Mean Sidereal Time,
//!   local solar time;
//! * small fixed-size linear algebra ([`linalg`]);
//! * Keplerian orbital elements and anomaly conversions ([`kepler`]);
//! * two-body propagation with secular J2 effects ([`propagate`]) — J2 nodal
//!   precession is the physical mechanism that makes sun-synchronous orbits
//!   possible, so it is treated as a first-class citizen;
//! * a low-precision solar ephemeris ([`sun`]);
//! * reference frames ([`frames`]): ECI ↔ ECEF ↔ geodetic, plus the
//!   *sun-relative* frame in which the paper's demand model is stationary;
//! * spherical-Earth geography helpers ([`geo`]);
//! * coverage geometry ([`coverage`]): min-elevation coverage caps and
//!   streets-of-coverage constellation sizing;
//! * Walker-delta constellation generation ([`walker`]);
//! * sun-synchronous orbit design ([`sunsync`]);
//! * repeat-ground-track orbit design ([`rgt`]);
//! * ground tracks and swaths ([`ground_track`]).
//!
//! It also hosts the workspace's one thread pool, the index-ordered
//! [`par::par_map`], because every downstream crate depends on it.
//!
//! ## Conventions
//!
//! * Lengths are in **kilometers**, velocities in **km/s**, angles in
//!   **radians** (helpers in [`angles`] wrap them), times in **seconds**.
//! * Epochs are carried as seconds since J2000.0 (TT ≈ UTC is assumed; the
//!   sub-minute difference is irrelevant at the fidelity of the paper).
//! * The Earth is modeled as a rotating sphere of radius
//!   [`constants::EARTH_RADIUS_KM`] with a J2 zonal harmonic. This is the
//!   same fidelity the paper works at.
//!
//! ## Quick example
//!
//! ```
//! use ssplane_astro::sunsync;
//!
//! // The paper's reference altitude: ~560 km sun-synchronous orbit.
//! let orbit = sunsync::sun_synchronous_orbit(560.0).unwrap();
//! assert!(orbit.inclination_deg() > 97.0 && orbit.inclination_deg() < 98.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
#![forbid(unsafe_code)]

pub mod angles;
pub mod constants;
pub mod coverage;
pub mod eclipse;
pub mod error;
pub mod frames;
pub mod geo;
pub mod ground_track;
pub mod kepler;
pub mod linalg;
pub mod par;
pub mod propagate;
pub mod rgt;
pub mod sun;
pub mod sunsync;
pub mod time;
pub mod walker;

pub use error::{AstroError, Result};
pub use kepler::OrbitalElements;
pub use linalg::Vec3;
pub use time::Epoch;
