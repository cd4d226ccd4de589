//! Low-precision solar ephemeris.
//!
//! Implements the Astronomical Almanac's low-precision solar position
//! (accurate to ~0.01° between 1950 and 2050 — far beyond the needs of
//! local-solar-time bookkeeping), plus helpers for the quantities the
//! SS-plane design revolves around: the sun's right ascension, solar
//! declination, and mean local solar time.

use crate::angles::{wrap_hours, wrap_two_pi};
use crate::constants::{AU_KM, OBLIQUITY_J2000};
use crate::linalg::Vec3;
use crate::time::Epoch;

/// Geometric solar position in the ECI (equatorial, J2000-aligned) frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SunPosition {
    /// Unit vector from the Earth's center toward the Sun, ECI frame.
    pub direction_eci: Vec3,
    /// Distance to the Sun \[km\].
    pub distance_km: f64,
    /// Apparent ecliptic longitude \[rad\].
    pub ecliptic_longitude: f64,
    /// Right ascension \[rad\], in `[0, 2π)`.
    pub right_ascension: f64,
    /// Declination \[rad\].
    pub declination: f64,
}

/// Computes the solar position at `epoch` (Astronomical Almanac
/// low-precision formulae; Vallado alg. 29).
pub fn sun_position(epoch: Epoch) -> SunPosition {
    let t = epoch.julian_centuries();
    // Mean longitude and mean anomaly of the Sun [deg].
    let mean_lon = 280.460 + 36_000.771 * t;
    let mean_anom = (357.529_109_2 + 35_999.050_34 * t).to_radians();
    // Ecliptic longitude with equation-of-center correction [deg].
    let ecl_lon_deg =
        mean_lon + 1.914_666_471 * mean_anom.sin() + 0.019_994_643 * (2.0 * mean_anom).sin();
    let ecl_lon = wrap_two_pi(ecl_lon_deg.to_radians());
    let distance_au =
        1.000_140_612 - 0.016_708_617 * mean_anom.cos() - 0.000_139_589 * (2.0 * mean_anom).cos();

    let eps = OBLIQUITY_J2000;
    let (sin_l, cos_l) = ecl_lon.sin_cos();
    let direction = Vec3::new(cos_l, eps.cos() * sin_l, eps.sin() * sin_l);

    let right_ascension = wrap_two_pi((eps.cos() * sin_l).atan2(cos_l));
    let declination = (eps.sin() * sin_l).asin();

    SunPosition {
        direction_eci: direction,
        distance_km: distance_au * AU_KM,
        ecliptic_longitude: ecl_lon,
        right_ascension,
        declination,
    }
}

/// Mean local solar time \[hours, 0-24) at the given **inertial** right
/// ascension `alpha` \[rad\] and epoch.
///
/// This is the clock the SS-plane design runs on: a point whose right
/// ascension stays fixed relative to the Sun's keeps a constant mean local
/// solar time. 12:00 corresponds to `alpha` equal to the Sun's mean right
/// ascension.
pub fn local_solar_time_of_right_ascension(epoch: Epoch, alpha: f64) -> f64 {
    // Use the *mean* sun (uniform motion) so that the mapping is exactly
    // periodic with the mean solar day; the equation of time (< ±16 min)
    // is deliberately excluded, matching the paper's use of mean local time.
    let t = epoch.julian_centuries();
    let mean_sun_ra = wrap_two_pi((280.460f64 + 36_000.771 * t).to_radians());
    wrap_hours(12.0 + (alpha - mean_sun_ra).to_degrees() / 15.0)
}

/// Mean local solar time \[hours, 0-24) at a **ground** longitude \[rad\]
/// (east positive) and epoch.
pub fn local_solar_time_of_longitude(epoch: Epoch, longitude: f64) -> f64 {
    let gmst = epoch.gmst();
    // The inertial right ascension currently over this longitude:
    local_solar_time_of_right_ascension(epoch, wrap_two_pi(gmst + longitude))
}

/// Sub-solar ground longitude \[rad, (-π, π]\] at `epoch`: where it is
/// mean local noon. The tests pin the local-solar-time conversions to it.
#[cfg(test)]
pub fn subsolar_longitude(epoch: Epoch) -> f64 {
    let t = epoch.julian_centuries();
    let mean_sun_ra = wrap_two_pi((280.460f64 + 36_000.771 * t).to_radians());
    crate::angles::wrap_pi(mean_sun_ra - epoch.gmst())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sun_near_vernal_equinox_in_march() {
        // ~2020 March 20: sun's declination crosses zero, RA near 0.
        let e = Epoch::from_calendar(2020, 3, 20, 4, 0, 0.0);
        let s = sun_position(e);
        assert!(s.declination.to_degrees().abs() < 0.6, "decl {}", s.declination.to_degrees());
        let ra_deg = s.right_ascension.to_degrees();
        assert!(!(2.0..=358.0).contains(&ra_deg), "ra {ra_deg}");
    }

    #[test]
    fn sun_declination_at_solstices() {
        let summer = sun_position(Epoch::from_calendar(2020, 6, 20, 22, 0, 0.0));
        assert!((summer.declination.to_degrees() - 23.43).abs() < 0.1);
        let winter = sun_position(Epoch::from_calendar(2020, 12, 21, 10, 0, 0.0));
        assert!((winter.declination.to_degrees() + 23.43).abs() < 0.1);
    }

    #[test]
    fn sun_distance_seasonal_variation() {
        // Perihelion early January (~0.983 AU), aphelion early July (~1.017 AU).
        let jan = sun_position(Epoch::from_calendar(2021, 1, 3, 0, 0, 0.0));
        let jul = sun_position(Epoch::from_calendar(2021, 7, 5, 0, 0, 0.0));
        assert!(jan.distance_km < jul.distance_km);
        assert!((jan.distance_km / AU_KM - 0.9833).abs() < 2e-3);
        assert!((jul.distance_km / AU_KM - 1.0167).abs() < 2e-3);
    }

    #[test]
    fn direction_is_unit() {
        let s = sun_position(Epoch::J2000 + 12345.0 * 86400.0 / 100.0);
        assert!((s.direction_eci.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solar_time_of_suns_ra_is_noon() {
        for days in [0.0, 100.3, 2000.7] {
            let e = Epoch::from_days_j2000(days);
            let t = e.julian_centuries();
            let mean_ra = wrap_two_pi((280.460f64 + 36_000.771 * t).to_radians());
            let lst = local_solar_time_of_right_ascension(e, mean_ra);
            assert!((lst - 12.0).abs() < 1e-9, "lst {lst}");
        }
    }

    #[test]
    fn solar_time_increases_eastward() {
        let e = Epoch::from_calendar(2022, 5, 4, 9, 30, 0.0);
        let t0 = local_solar_time_of_longitude(e, 0.0);
        let t15e = local_solar_time_of_longitude(e, 15f64.to_radians());
        // 15° east = +1 hour (mod 24).
        let diff = crate::angles::wrap_hours(t15e - t0);
        assert!((diff - 1.0).abs() < 1e-6, "diff {diff}");
    }

    #[test]
    fn greenwich_solar_time_tracks_utc() {
        // Mean solar time at longitude 0 should equal UTC within the
        // equation-of-time-free model (~small numerical slack).
        for (y, m, d, h) in [(2020, 1, 1, 6), (2021, 7, 15, 18), (2023, 3, 3, 0)] {
            let e = Epoch::from_calendar(y, m, d, h, 0, 0.0);
            let lst = local_solar_time_of_longitude(e, 0.0);
            let err = (lst - h as f64).abs().min(24.0 - (lst - h as f64).abs());
            assert!(err < 0.1, "{y}-{m}-{d} {h}h: lst {lst}");
        }
    }

    #[test]
    fn subsolar_longitude_midnight_is_antimeridian() {
        let e = Epoch::from_calendar(2021, 3, 21, 0, 0, 0.0);
        let lon = subsolar_longitude(e).to_degrees();
        assert!(lon.abs() > 176.0, "subsolar lon at UTC midnight: {lon}");
    }
}
