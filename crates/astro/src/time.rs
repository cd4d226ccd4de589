//! Time systems: epochs, Julian dates, and Greenwich Mean Sidereal Time.
//!
//! All epochs are carried as seconds relative to J2000.0 (2000-01-01
//! 12:00:00). The workspace treats UTC ≈ UT1 ≈ TT: the differences
//! (≲ 70 s) shift absolute phases by fractions of a degree, far below the
//! fidelity of a constellation design study, and keeping a single time
//! scale removes a whole class of bookkeeping bugs.

use crate::constants::{JD_J2000, JULIAN_CENTURY_DAYS, SECONDS_PER_DAY};
use core::f64::consts::TAU;
use core::ops::{Add, Sub};

/// An instant in time, stored as seconds since the J2000.0 epoch.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Epoch {
    seconds_since_j2000: f64,
}

impl Epoch {
    /// The J2000.0 epoch itself.
    pub const J2000: Epoch = Epoch { seconds_since_j2000: 0.0 };

    /// Builds an epoch from seconds since J2000.0.
    #[inline]
    const fn from_seconds_j2000(seconds: f64) -> Self {
        Epoch { seconds_since_j2000: seconds }
    }

    /// Builds an epoch from days since J2000.0.
    #[inline]
    pub fn from_days_j2000(days: f64) -> Self {
        Epoch { seconds_since_j2000: days * SECONDS_PER_DAY }
    }

    /// Builds an epoch from a Julian date.
    #[inline]
    fn from_julian_date(jd: f64) -> Self {
        Epoch::from_days_j2000(jd - JD_J2000)
    }

    /// Builds an epoch from a calendar date/time (proleptic Gregorian,
    /// treated as UTC). Months are 1-12, days 1-31; no validation of
    /// calendar legality beyond the algorithm's domain (years 1901-2099).
    pub fn from_calendar(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: f64,
    ) -> Self {
        // Vallado's "JDay" algorithm, valid 1901-2099.
        let y = year as f64;
        let m = month as f64;
        let d = day as f64;
        let jd = 367.0 * y - ((7.0 * (y + ((m + 9.0) / 12.0).floor())) / 4.0).floor()
            + (275.0 * m / 9.0).floor()
            + d
            + 1_721_013.5;
        let frac = (hour as f64 * 3600.0 + minute as f64 * 60.0 + second) / SECONDS_PER_DAY;
        Epoch::from_julian_date(jd + frac)
    }

    /// Seconds since J2000.0, exactly as stored (unlike
    /// [`Self::julian_date`], which rounds).
    #[inline]
    pub fn seconds_j2000(self) -> f64 {
        self.seconds_since_j2000
    }

    /// Days since J2000.0.
    #[inline]
    fn days_j2000(self) -> f64 {
        self.seconds_since_j2000 / SECONDS_PER_DAY
    }

    /// Julian date.
    #[inline]
    pub fn julian_date(self) -> f64 {
        JD_J2000 + self.days_j2000()
    }

    /// Julian centuries since J2000.0 (used by low-precision ephemerides).
    #[inline]
    pub fn julian_centuries(self) -> f64 {
        self.days_j2000() / JULIAN_CENTURY_DAYS
    }

    /// Greenwich Mean Sidereal Time \[rad\], in `[0, 2π)`.
    ///
    /// IAU 1982 model (Vallado eq. 3-47), adequate to ≪ 0.1° over the
    /// simulation horizons used here.
    pub fn gmst(self) -> f64 {
        let t = self.julian_centuries();
        // Seconds of sidereal time.
        let gmst_s =
            67_310.548_41 + (876_600.0 * 3600.0 + 8_640_184.812_866) * t + 0.093_104 * t * t
                - 6.2e-6 * t * t * t;
        let frac = (gmst_s % SECONDS_PER_DAY) / SECONDS_PER_DAY;
        let rad = frac * TAU;
        if rad < 0.0 {
            rad + TAU
        } else {
            rad
        }
    }
}

impl Add<f64> for Epoch {
    type Output = Epoch;
    /// Advances the epoch by `rhs` seconds.
    #[inline]
    fn add(self, rhs: f64) -> Epoch {
        Epoch::from_seconds_j2000(self.seconds_since_j2000 + rhs)
    }
}

impl Sub<Epoch> for Epoch {
    type Output = f64;
    /// Difference between epochs in seconds.
    #[inline]
    fn sub(self, rhs: Epoch) -> f64 {
        self.seconds_since_j2000 - rhs.seconds_since_j2000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn j2000_calendar_round_trip() {
        let e = Epoch::from_calendar(2000, 1, 1, 12, 0, 0.0);
        assert!((e.julian_date() - JD_J2000).abs() < 1e-9);
        assert!((e - Epoch::J2000).abs() < 1e-4);
    }

    #[test]
    fn known_julian_date_vallado_example() {
        // Vallado example 3-4: 1996-10-26 14:20:00 UTC -> JD 2450383.09722222.
        let e = Epoch::from_calendar(1996, 10, 26, 14, 20, 0.0);
        assert!((e.julian_date() - 2_450_383.097_222_22).abs() < 1e-6);
    }

    #[test]
    fn gmst_at_j2000_matches_reference() {
        // GMST at J2000.0 is 280.4606...° (18h 41m 50.5s).
        let gmst_deg = Epoch::J2000.gmst().to_degrees();
        assert!((gmst_deg - 280.4606).abs() < 0.01, "gmst = {gmst_deg}");
    }

    #[test]
    fn gmst_advances_one_rev_per_sidereal_day() {
        use crate::constants::SIDEREAL_DAY_S;
        let e0 = Epoch::J2000;
        let e1 = e0 + SIDEREAL_DAY_S;
        let d = crate::angles::separation(e0.gmst(), e1.gmst());
        assert!(d < 1e-4, "gmst drift over one sidereal day = {d} rad");
    }

    #[test]
    fn epoch_arithmetic() {
        let e = Epoch::J2000 + 3600.0;
        assert!((e - Epoch::J2000 - 3600.0).abs() < 1e-12);
        assert!((e.days_j2000() - 3600.0 / 86400.0).abs() < 1e-12);
    }
}
