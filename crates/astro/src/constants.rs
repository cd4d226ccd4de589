//! Physical and astronomical constants used throughout the workspace.
//!
//! Values follow Vallado, *Fundamentals of Astrodynamics and Applications*
//! (the paper's astrodynamics reference), WGS-84/EGM-96 where applicable.

/// Earth gravitational parameter μ = GM⊕ \[km³/s²\] (EGM-96).
pub const EARTH_MU: f64 = 398_600.441_8;

/// Earth equatorial radius \[km\] (WGS-84).
///
/// Used both as the orbital reference radius for J2 and as the spherical
/// Earth radius for coverage geometry (the paper works at spherical-Earth
/// fidelity).
pub const EARTH_RADIUS_KM: f64 = 6378.137;

/// Earth second zonal harmonic J₂ (dimensionless, EGM-96).
///
/// J₂ drives the secular nodal precession that sun-synchronous orbits
/// exploit: `Ω̇ = -(3/2) J₂ n (Re/p)² cos i`.
pub const EARTH_J2: f64 = 1.082_626_68e-3;

/// Earth inertial rotation rate \[rad/s\] (sidereal).
pub const EARTH_ROTATION_RATE: f64 = 7.292_115_146_706_979e-5;

/// Mean solar day \[s\].
const SOLAR_DAY_S: f64 = 86_400.0;

/// Sidereal day \[s\] — one Earth rotation relative to the stars; the
/// tests check [`EARTH_ROTATION_RATE`] and GMST against it.
#[cfg(test)]
pub const SIDEREAL_DAY_S: f64 = 86_164.090_53;

/// Mean tropical year \[days\] — drives the required sun-synchronous nodal
/// precession rate of 360° per year.
const TROPICAL_YEAR_DAYS: f64 = 365.242_19;

/// Required nodal precession rate for a sun-synchronous orbit \[rad/s\]:
/// one full revolution of the ascending node per tropical year, eastward.
pub const SUN_SYNC_NODE_RATE: f64 =
    2.0 * core::f64::consts::PI / (TROPICAL_YEAR_DAYS * SOLAR_DAY_S);

/// Obliquity of the ecliptic at J2000 \[rad\] (23.439 291°).
pub const OBLIQUITY_J2000: f64 = 0.409_092_804_222_329_3;

/// Astronomical unit \[km\].
pub const AU_KM: f64 = 1.495_978_707e8;

/// Julian date of the J2000.0 epoch (2000-01-01 12:00 TT).
pub const JD_J2000: f64 = 2_451_545.0;

/// Seconds per Julian day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// Julian century in days.
pub const JULIAN_CENTURY_DAYS: f64 = 36_525.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sun_sync_rate_matches_degrees_per_day() {
        // The canonical value quoted in astrodynamics texts: ~0.9856°/day.
        let deg_per_day = SUN_SYNC_NODE_RATE.to_degrees() * SOLAR_DAY_S;
        assert!((deg_per_day - 0.9856).abs() < 1e-3, "got {deg_per_day}");
    }

    #[test]
    fn sidereal_day_shorter_than_solar() {
        assert!(std::hint::black_box(SIDEREAL_DAY_S) < SOLAR_DAY_S);
        // Earth rotation rate consistent with the sidereal day to ~1e-9.
        let rate = 2.0 * core::f64::consts::PI / SIDEREAL_DAY_S;
        assert!((rate - EARTH_ROTATION_RATE).abs() / EARTH_ROTATION_RATE < 1e-6);
    }
}
