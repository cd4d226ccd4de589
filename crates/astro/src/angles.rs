//! Angle helpers: normalization and wrapping.

use core::f64::consts::{PI, TAU};

/// Normalizes an angle to `[0, 2π)`.
#[inline]
pub fn wrap_two_pi(angle: f64) -> f64 {
    let a = angle % TAU;
    if a < 0.0 {
        a + TAU
    } else {
        a
    }
}

/// Normalizes an angle to `(-π, π]`.
#[inline]
pub fn wrap_pi(angle: f64) -> f64 {
    let a = wrap_two_pi(angle);
    if a > PI {
        a - TAU
    } else {
        a
    }
}

/// Smallest absolute angular separation between two angles \[rad\],
/// in `[0, π]`. The pipeline itself never calls it: it is the angle
/// comparison the tests of this and downstream crates check live code
/// with.
#[inline]
pub fn separation(a: f64, b: f64) -> f64 {
    wrap_pi(a - b).abs()
}

/// Wraps an hour-of-day value to `[0, 24)`.
#[inline]
pub fn wrap_hours(h: f64) -> f64 {
    let r = h % 24.0;
    if r < 0.0 {
        r + 24.0
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_two_pi_ranges() {
        assert!((wrap_two_pi(-0.1) - (TAU - 0.1)).abs() < 1e-12);
        assert!((wrap_two_pi(TAU + 0.3) - 0.3).abs() < 1e-12);
        assert_eq!(wrap_two_pi(0.0), 0.0);
    }

    #[test]
    fn wrap_pi_ranges() {
        assert!((wrap_pi(PI + 0.1) - (-PI + 0.1)).abs() < 1e-12);
        assert!((wrap_pi(-PI - 0.1) - (PI - 0.1)).abs() < 1e-12);
        assert!((wrap_pi(PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn separation_is_symmetric_and_small() {
        assert!((separation(0.1, TAU - 0.1) - 0.2).abs() < 1e-12);
        assert!((separation(TAU - 0.1, 0.1) - 0.2).abs() < 1e-12);
        assert!(separation(1.0, 1.0) < 1e-15);
    }

    #[test]
    fn wrap_hours_ranges() {
        assert!((wrap_hours(-1.0) - 23.0).abs() < 1e-12);
        assert!((wrap_hours(25.5) - 1.5).abs() < 1e-12);
        assert_eq!(wrap_hours(0.0), 0.0);
    }
}
