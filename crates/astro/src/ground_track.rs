//! Ground tracks: sampled sub-satellite paths and their coverage swaths.

use crate::error::Result;
use crate::frames::subsatellite_point;
use crate::geo::GeoPoint;
use crate::kepler::OrbitalElements;
use crate::propagate::J2Propagator;
use crate::time::Epoch;

/// One sample of a ground track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackSample {
    /// Sample epoch.
    pub epoch: Epoch,
    /// Sub-satellite point.
    pub point: GeoPoint,
    /// Altitude above the spherical Earth \[km\].
    pub altitude_km: f64,
}

/// A sampled ground track.
#[derive(Debug, Clone, Default)]
pub struct GroundTrack {
    /// Samples in time order.
    pub samples: Vec<TrackSample>,
}

impl GroundTrack {
    /// Samples the ground track of `elements` starting at `epoch` for
    /// `duration_s` seconds with the given step, under secular J2 motion.
    ///
    /// # Errors
    /// Propagates element validation / Kepler-solver failure.
    pub fn sample(
        epoch: Epoch,
        elements: &OrbitalElements,
        duration_s: f64,
        step_s: f64,
    ) -> Result<GroundTrack> {
        let prop = J2Propagator::new(epoch, *elements)?;
        let n = (duration_s / step_s).ceil() as usize;
        let mut samples = Vec::with_capacity(n + 1);
        for k in 0..=n {
            // The final sample lands exactly at `duration_s` even when the
            // step does not divide it.
            let t = epoch + (k as f64 * step_s).min(duration_s);
            let r = prop.position_at(t)?;
            let (point, altitude_km) =
                subsatellite_point(t, r).expect("orbital radius is never zero");
            samples.push(TrackSample { epoch: t, point, altitude_km });
        }
        Ok(GroundTrack { samples })
    }

    /// Minimum central angle \[rad\] from `target` to any sample of the
    /// track (∞ if the track is empty).
    fn min_central_angle_to(&self, target: &GeoPoint) -> f64 {
        self.samples.iter().map(|s| s.point.central_angle_to(target)).fold(f64::INFINITY, f64::min)
    }

    /// Whether `target` lies inside the swath of half-width
    /// `swath_half_angle` \[rad\] around the track.
    fn swath_covers(&self, target: &GeoPoint, swath_half_angle: f64) -> bool {
        self.min_central_angle_to(target) <= swath_half_angle
    }

    /// Fraction of a latitude/longitude grid (`n_lat × n_lon`, cell
    /// centers) covered by the swath — a cheap global coverage metric used
    /// by tests and the Fig. 2 reproduction.
    pub fn swath_area_fraction(&self, swath_half_angle: f64, n_lat: usize, n_lon: usize) -> f64 {
        let mut covered = 0.0;
        let mut total = 0.0;
        for i in 0..n_lat {
            let lat = -core::f64::consts::FRAC_PI_2
                + core::f64::consts::PI * (i as f64 + 0.5) / n_lat as f64;
            // Weight cells by cos(lat) for equal-area accounting.
            let w = lat.cos();
            for j in 0..n_lon {
                let lon = -core::f64::consts::PI
                    + core::f64::consts::TAU * (j as f64 + 0.5) / n_lon as f64;
                total += w;
                if self.swath_covers(&GeoPoint::new(lat, lon), swath_half_angle) {
                    covered += w;
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            covered / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rgt::rgt_orbit;

    const INC65: f64 = 65.0 * core::f64::consts::PI / 180.0;

    fn one_day_track(el: &OrbitalElements) -> GroundTrack {
        GroundTrack::sample(Epoch::J2000, el, 86_400.0, 30.0).unwrap()
    }

    #[test]
    fn track_latitude_bounded_by_inclination() {
        let el = OrbitalElements::circular(560.0, INC65, 0.3, 0.0).unwrap();
        let track = one_day_track(&el);
        let max_lat = track.samples.iter().map(|s| s.point.lat.abs()).fold(0.0, f64::max);
        assert!(max_lat <= INC65 + 0.01);
        assert!(max_lat >= INC65 - 0.05, "track should reach the inclination latitude");
    }

    #[test]
    fn rgt_track_closes_after_repeat_cycle() {
        // The 15:1 RGT must return to (almost) the same ground point after
        // one repeat cycle (1 nodal day ≈ 15 nodal periods).
        let o = rgt_orbit(15, 1, INC65).unwrap();
        let el = o.reference_elements();
        let t_n = crate::propagate::nodal_period_s(&el);
        let prop = J2Propagator::new(Epoch::J2000, el).unwrap();
        let (p0, _) =
            subsatellite_point(Epoch::J2000, prop.position_at(Epoch::J2000).unwrap()).unwrap();
        let t1 = Epoch::J2000 + 15.0 * t_n;
        let (p1, _) = subsatellite_point(t1, prop.position_at(t1).unwrap()).unwrap();
        let gap = p0.central_angle_to(&p1).to_degrees();
        assert!(gap < 0.5, "repeat-cycle closure error = {gap} deg");
    }

    #[test]
    fn non_rgt_track_does_not_close() {
        // At 700 km (not an RGT altitude for 65°), the track must NOT
        // close after ~14.8 orbits.
        let el = OrbitalElements::circular(700.0, INC65, 0.0, 0.0).unwrap();
        let prop = J2Propagator::new(Epoch::J2000, el).unwrap();
        let (p0, _) =
            subsatellite_point(Epoch::J2000, prop.position_at(Epoch::J2000).unwrap()).unwrap();
        let t1 = Epoch::J2000 + 86_400.0;
        let (p1, _) = subsatellite_point(t1, prop.position_at(t1).unwrap()).unwrap();
        assert!(p0.central_angle_to(&p1).to_degrees() > 1.0);
    }

    #[test]
    fn sampled_length_matches_analytic_rgt_length() {
        let o = rgt_orbit(15, 1, INC65).unwrap();
        let el = o.reference_elements();
        let t_n = crate::propagate::nodal_period_s(&el);
        let track = GroundTrack::sample(Epoch::J2000, &el, 15.0 * t_n, 10.0).unwrap();
        // Along-track length: great-circle hops between consecutive samples.
        let sampled: f64 =
            track.samples.windows(2).map(|w| w[0].point.central_angle_to(&w[1].point)).sum();
        let analytic = o.ground_track_length();
        assert!(
            (sampled - analytic).abs() / analytic < 0.01,
            "sampled {sampled} vs analytic {analytic}"
        );
    }

    #[test]
    fn swath_coverage_sanity() {
        let el = OrbitalElements::circular(560.0, INC65, 0.0, 0.0).unwrap();
        let track = one_day_track(&el);
        // The equator gets crossed ~30 times; a generous swath covers a
        // point on the equator, and the poles are never covered.
        assert!(track.swath_covers(&GeoPoint::from_degrees(0.0, 10.0), 0.2));
        assert!(!track.swath_covers(&GeoPoint::from_degrees(89.0, 0.0), 0.1));
        let frac = track.swath_area_fraction(0.1266, 36, 72);
        assert!(frac > 0.5 && frac < 1.0, "one-day 560 km swath fraction = {frac}");
    }

    #[test]
    fn empty_track_behaviour() {
        let t = GroundTrack::default();
        assert!(t.min_central_angle_to(&GeoPoint::default()).is_infinite());
        assert!(!t.swath_covers(&GeoPoint::default(), 1.0));
    }
}
