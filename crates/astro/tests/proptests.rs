//! Property-based tests for the astrodynamics substrate.

use proptest::prelude::*;
use ssplane_astro::angles::{separation, wrap_hours, wrap_pi, wrap_two_pi};
use ssplane_astro::coverage::{
    coverage_half_angle, sats_per_plane_half_overlap, street_half_width,
};
use ssplane_astro::frames::{ecef_to_eci, eci_to_ecef, ground_to_sun_relative};
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::kepler::{eccentric_to_true, solve_kepler, true_to_eccentric, OrbitalElements};
use ssplane_astro::linalg::Vec3;
use ssplane_astro::sunsync::sun_synchronous_inclination;
use ssplane_astro::time::Epoch;
use std::f64::consts::{PI, TAU};

proptest! {
    #[test]
    fn wrap_two_pi_in_range(a in -1e6f64..1e6) {
        let w = wrap_two_pi(a);
        prop_assert!((0.0..TAU).contains(&w));
        // Idempotent.
        prop_assert!((wrap_two_pi(w) - w).abs() < 1e-12);
        // Same angle modulo 2π.
        prop_assert!(separation(a, w) < 1e-6);
    }

    #[test]
    fn wrap_pi_in_range(a in -1e6f64..1e6) {
        let w = wrap_pi(a);
        prop_assert!((-PI..=PI).contains(&w));
        prop_assert!(separation(a, w) < 1e-6);
    }

    #[test]
    fn wrap_hours_in_range(h in -1e5f64..1e5) {
        let w = wrap_hours(h);
        prop_assert!((0.0..24.0).contains(&w));
    }

    #[test]
    fn kepler_equation_satisfied(m in 0.0f64..TAU, e in 0.0f64..0.95) {
        let ea = solve_kepler(m, e).unwrap();
        let resid = separation(ea - e * ea.sin(), m);
        prop_assert!(resid < 1e-9, "residual {resid}");
    }

    #[test]
    fn anomaly_round_trip(nu in 0.0f64..TAU, e in 0.0f64..0.9) {
        let ea = true_to_eccentric(nu, e);
        prop_assert!(separation(eccentric_to_true(ea, e), nu) < 1e-9);
    }

    #[test]
    fn elements_cartesian_round_trip(
        alt in 300.0f64..3000.0,
        ecc in 0.0f64..0.05,
        inc in 0.05f64..3.0,
        raan in 0.0f64..TAU,
        argp in 0.0f64..TAU,
        ma in 0.0f64..TAU,
    ) {
        let el = OrbitalElements {
            semi_major_axis_km: 6378.137 + alt,
            eccentricity: ecc,
            inclination: inc,
            raan,
            arg_perigee: argp,
            mean_anomaly: ma,
        };
        let (r, v) = el.to_cartesian().unwrap();
        prop_assert!([r.x, r.y, r.z, v.x, v.y, v.z].iter().all(|c| c.is_finite()));
        let back = OrbitalElements::from_cartesian(r, v).unwrap();
        prop_assert!((back.semi_major_axis_km - el.semi_major_axis_km).abs() < 1e-5);
        prop_assert!((back.eccentricity - el.eccentricity).abs() < 1e-8);
        prop_assert!((back.inclination - el.inclination).abs() < 1e-8);
        // Compare the full argument of latitude + node to dodge the
        // circular-orbit degeneracy of ω.
        let (r2, v2) = back.to_cartesian().unwrap();
        prop_assert!((r - r2).norm() < 1e-4, "position mismatch {:?}", (r - r2).norm());
        prop_assert!((v - v2).norm() < 1e-7);
    }

    #[test]
    fn geo_round_trip(lat in -1.5f64..1.5, lon in -3.1f64..3.1) {
        let p = GeoPoint::new(lat, lon);
        let q = GeoPoint::from_vector(p.to_unit_vector()).unwrap();
        prop_assert!((p.lat - q.lat).abs() < 1e-10);
        prop_assert!(separation(p.lon, q.lon) < 1e-10);
    }

    #[test]
    fn central_angle_symmetric_and_triangle(
        lat1 in -1.5f64..1.5, lon1 in -3.1f64..3.1,
        lat2 in -1.5f64..1.5, lon2 in -3.1f64..3.1,
        lat3 in -1.5f64..1.5, lon3 in -3.1f64..3.1,
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let c = GeoPoint::new(lat3, lon3);
        let ab = a.central_angle_to(&b);
        prop_assert!((ab - b.central_angle_to(&a)).abs() < 1e-12);
        prop_assert!(ab <= a.central_angle_to(&c) + c.central_angle_to(&b) + 1e-9);
        prop_assert!((0.0..=PI + 1e-12).contains(&ab));
    }

    #[test]
    fn eci_ecef_round_trip(
        x in -9000.0f64..9000.0, y in -9000.0f64..9000.0, z in -9000.0f64..9000.0,
        days in -3650.0f64..3650.0,
    ) {
        let e = Epoch::from_days_j2000(days);
        let r = Vec3::new(x, y, z);
        let back = ecef_to_eci(e, eci_to_ecef(e, r));
        prop_assert!((back - r).norm() < 1e-8);
        // Rotation preserves norm.
        prop_assert!((eci_to_ecef(e, r).norm() - r.norm()).abs() < 1e-8);
    }

    #[test]
    fn coverage_half_angle_bounded(alt in 200.0f64..5000.0, elev in 0.0f64..1.4) {
        let theta = coverage_half_angle(alt, elev).unwrap();
        prop_assert!(theta > 0.0 && theta < PI / 2.0);
        // Larger elevation shrinks coverage.
        if elev + 0.05 < 1.4 {
            prop_assert!(coverage_half_angle(alt, elev + 0.05).unwrap() < theta);
        }
    }

    #[test]
    fn street_width_below_theta(theta in 0.02f64..1.0, extra in 0usize..64) {
        let s_min = (PI / theta).ceil() as usize;
        let c = street_half_width(theta, s_min + extra).unwrap();
        prop_assert!((0.0..=theta + 1e-12).contains(&c));
        // More satellites never narrows the street.
        let c2 = street_half_width(theta, s_min + extra + 1).unwrap();
        prop_assert!(c2 >= c - 1e-12);
    }

    #[test]
    fn half_overlap_count_covers(theta in 0.02f64..1.0) {
        let s = sats_per_plane_half_overlap(theta);
        // Spacing 2π/s must be at most θ.
        prop_assert!(TAU / s as f64 <= theta + 1e-12);
    }

    #[test]
    fn sso_inclination_retrograde_monotone(alt in 250.0f64..2000.0) {
        let i = sun_synchronous_inclination(alt).unwrap();
        prop_assert!(i > PI / 2.0 && i < PI);
        let i2 = sun_synchronous_inclination(alt + 50.0).unwrap();
        prop_assert!(i2 > i, "SSO inclination must grow with altitude");
    }

    #[test]
    fn sun_relative_lat_preserved(lat in -1.5f64..1.5, lon in -3.1f64..3.1, days in 0.0f64..365.0) {
        let e = Epoch::from_days_j2000(days);
        let sr = ground_to_sun_relative(e, GeoPoint::new(lat, lon));
        prop_assert!((sr.lat - lat).abs() < 1e-12);
        prop_assert!((0.0..24.0).contains(&sr.local_time_h));
    }
}
