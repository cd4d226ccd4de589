//! The pluggable disruption API: attacks and failure processes.
//!
//! The paper's survivability argument (§3.2, §5) is about how a
//! constellation *degrades* — under deliberate attacks and
//! radiation-driven failures — yet the original model was a hard-coded
//! "remove k strided planes" helper plus one closed exponential renewal
//! loop, neither of which ever touched the network. This module opens
//! both surfaces, mirroring the `ssplane_core::system::Designer`
//! registry pattern:
//!
//! * an [`AttackModel`] maps a constellation (an [`AttackTarget`] view of
//!   its planes) to the set of destroyed slots — shipped models:
//!   [`LeadingPlanes`] (byte-compatible with the historical strided
//!   plane-loss helper), [`RandomSats`], [`DeclinationBand`] (a
//!   debris-event-like regional loss), and [`WholeShell`];
//! * a [`FailureProcess`] samples satellite lifetimes — shipped
//!   processes: [`RadiationExponential`] (the historical fluence-driven
//!   exponential) and [`WeibullBathtub`] (infant mortality plus
//!   dose-accelerated wear-out);
//! * an [`OutageTimeline`] is the deterministic, seeded product of a
//!   failure process run through the spare/resupply machinery (see
//!   [`crate::survivability::outage_timeline`]): per-satellite
//!   `[start, end)` outage intervals over the mission, instead of a
//!   scalar availability — the raw material the degraded-network stage
//!   masks [`crate::snapshot::Snapshot`]s with.

use crate::error::{LsnError, Result};
use crate::failures::FailureModel;
use crate::topology::SatId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::propagate::J2Propagator;
use ssplane_astro::time::Epoch;
use ssplane_radiation::fluence::DailyFluence;

/// The view of a constellation an attack acts on: per-plane satellite
/// elements (design order), a group tag per plane (the fluence-evaluation
/// group — SS: the plane itself; Walker: the owning shell; RGT: the
/// track), and the epoch geometry-dependent attacks evaluate at.
#[derive(Debug, Clone)]
pub struct AttackTarget<'a> {
    /// Satellites per plane, in design (attack/spares) order.
    pub planes: Vec<&'a [OrbitalElements]>,
    /// Evaluation-group (shell) tag per plane.
    pub plane_groups: Vec<usize>,
    /// The epoch position-dependent attacks evaluate the geometry at.
    pub epoch: Epoch,
}

impl AttackTarget<'_> {
    /// Total satellites across planes.
    pub fn total_sats(&self) -> usize {
        self.planes.iter().map(|p| p.len()).sum()
    }
}

/// A deliberate-attack model: maps a constellation to the set of
/// destroyed slots. Implementations must be deterministic in
/// `(target, seed)` — the scenario engine's byte-identical-output
/// contract extends to attacks.
pub trait AttackModel {
    /// The destroyed slots, sorted plane-major, each listed once.
    ///
    /// # Errors
    /// Model-specific configuration failure (e.g. a shell index outside
    /// the target's groups).
    fn destroyed(&self, target: &AttackTarget<'_>, seed: u64) -> Result<Vec<SatId>>;
}

/// The plane indices removed by a `planes_lost`-plane attack on `n`
/// planes: evenly strided so the loss spreads across the constellation
/// (the strongest variant of the attack for a +grid topology). This is
/// the exact historical `attacked_indices` selection, kept as a free
/// function so the parity test can pin [`LeadingPlanes`] against it.
pub fn strided_plane_indices(n: usize, planes_lost: usize) -> Vec<usize> {
    let lost = planes_lost.min(n);
    if lost == 0 {
        return Vec::new();
    }
    (0..lost).map(|k| k * n / lost).collect()
}

/// Whole-plane loss at evenly strided plane indices — byte-compatible
/// with the historical `attacked_indices` scenario helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeadingPlanes {
    /// Whole planes destroyed.
    pub planes_lost: usize,
}

impl AttackModel for LeadingPlanes {
    fn destroyed(&self, target: &AttackTarget<'_>, _seed: u64) -> Result<Vec<SatId>> {
        let hit = strided_plane_indices(target.planes.len(), self.planes_lost);
        Ok(hit
            .into_iter()
            .flat_map(|p| (0..target.planes[p].len()).map(move |s| SatId { plane: p, slot: s }))
            .collect())
    }
}

/// Uniform random satellite loss: `sats_lost` distinct satellites drawn
/// without replacement, seeded — the "shot noise" counterpart of the
/// structured plane attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSats {
    /// Satellites destroyed.
    pub sats_lost: usize,
}

impl AttackModel for RandomSats {
    fn destroyed(&self, target: &AttackTarget<'_>, seed: u64) -> Result<Vec<SatId>> {
        let ids: Vec<SatId> = target
            .planes
            .iter()
            .enumerate()
            .flat_map(|(p, plane)| (0..plane.len()).map(move |s| SatId { plane: p, slot: s }))
            .collect();
        let lost = self.sats_lost.min(ids.len());
        // Partial Fisher-Yates over the flat id list: the first `lost`
        // entries after shuffling are the victims. The per-step draw is
        // the shared `gen_index` float-scaled recipe, so the seeded
        // victim sets are byte-identical to the historical inline draw.
        let mut pool = ids;
        let mut rng = StdRng::seed_from_u64(seed);
        for k in 0..lost {
            let j = k + rng.gen_index(pool.len() - k);
            pool.swap(k, j);
        }
        let mut out: Vec<SatId> = pool.into_iter().take(lost).collect();
        out.sort_unstable();
        Ok(out)
    }
}

/// Regional loss à la a debris event: every satellite whose geocentric
/// declination at the target epoch falls inside `[min_deg, max_deg]` is
/// destroyed — the signature of a fragmentation cloud spread along a
/// latitude band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeclinationBand {
    /// Band lower edge \[deg\].
    pub min_deg: f64,
    /// Band upper edge \[deg\].
    pub max_deg: f64,
}

impl AttackModel for DeclinationBand {
    fn destroyed(&self, target: &AttackTarget<'_>, _seed: u64) -> Result<Vec<SatId>> {
        if !(self.min_deg.is_finite() && self.max_deg.is_finite() && self.min_deg <= self.max_deg) {
            return Err(LsnError::BadParameter {
                name: "DeclinationBand",
                constraint: "finite min_deg <= max_deg",
            });
        }
        let (lo, hi) = (self.min_deg.to_radians(), self.max_deg.to_radians());
        let mut out = Vec::new();
        for (p, plane) in target.planes.iter().enumerate() {
            for (s, el) in plane.iter().enumerate() {
                let r = J2Propagator::new(target.epoch, *el)?.position_at(target.epoch)?;
                let dec = (r.z / r.norm()).asin();
                if (lo..=hi).contains(&dec) {
                    out.push(SatId { plane: p, slot: s });
                }
            }
        }
        Ok(out)
    }
}

/// Whole-shell loss: every plane tagged with evaluation group `shell` is
/// destroyed (for an SS design a "shell" is one plane; for Walker the
/// whole stacked shell; for RGT the entire track).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WholeShell {
    /// The evaluation-group index to destroy.
    pub shell: usize,
}

impl AttackModel for WholeShell {
    fn destroyed(&self, target: &AttackTarget<'_>, _seed: u64) -> Result<Vec<SatId>> {
        let n_groups = target.plane_groups.iter().max().map_or(0, |&g| g + 1);
        if self.shell >= n_groups {
            return Err(LsnError::BadParameter {
                name: "WholeShell::shell",
                constraint: "< the target's evaluation-group count",
            });
        }
        Ok(target
            .plane_groups
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g == self.shell)
            .flat_map(|(p, _)| {
                (0..target.planes[p].len()).map(move |s| SatId { plane: p, slot: s })
            })
            .collect())
    }
}

/// A satellite failure process: samples the lifetime of one (new) unit
/// under a given radiation dose. Lifetimes are drawn per unit — a
/// replacement satellite starts a fresh life, so infant mortality applies
/// to spares too.
pub trait FailureProcess {
    /// Checks the process parameters once before a simulation.
    ///
    /// # Errors
    /// Degenerate configurations (zero total hazard, non-positive shapes
    /// or scales).
    fn validate(&self) -> Result<()>;

    /// Samples one unit's lifetime \[days\] under daily dose `dose`,
    /// advancing `rng` deterministically.
    fn sample_lifetime_days(&self, dose: DailyFluence, rng: &mut StdRng) -> f64;
}

/// The historical radiation-driven exponential process: constant hazard
/// `baseline + electron_coeff·dose_e + proton_coeff·dose_p` per year (see
/// [`FailureModel`]). One uniform draw per lifetime, arithmetic identical
/// to the original closed renewal loop — the survivability goldens pin
/// this bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiationExponential {
    /// The hazard model.
    pub model: FailureModel,
}

impl FailureProcess for RadiationExponential {
    fn validate(&self) -> Result<()> {
        let m = &self.model;
        let coeffs = [m.baseline_per_year, m.electron_coeff, m.proton_coeff];
        if coeffs.iter().any(|&c| c < 0.0) || coeffs.iter().all(|&c| c == 0.0) {
            return Err(LsnError::BadParameter {
                name: "FailureModel",
                constraint: "non-negative coefficients with positive total hazard",
            });
        }
        Ok(())
    }

    fn sample_lifetime_days(&self, dose: DailyFluence, rng: &mut StdRng) -> f64 {
        let hazard_per_day = self.model.hazard_per_year(dose) / 365.25;
        let u: f64 = rng.gen::<f64>().max(1e-300);
        -u.ln() / hazard_per_day
    }
}

/// A bathtub-curve process: the unit's lifetime is the minimum of an
/// infant-mortality Weibull (shape < 1: deployment defects surface early)
/// and a wear-out Weibull (shape > 1) whose characteristic life shrinks
/// with radiation dose — `scale / (1 + electron_accel·dose_e +
/// proton_accel·dose_p)`. Two uniform draws per lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullBathtub {
    /// Infant-mortality Weibull shape (< 1 for a decreasing early
    /// hazard).
    pub infant_shape: f64,
    /// Infant-mortality characteristic life \[years\].
    pub infant_scale_years: f64,
    /// Wear-out Weibull shape (> 1 for an increasing late hazard).
    pub wearout_shape: f64,
    /// Wear-out characteristic life at zero dose \[years\].
    pub wearout_scale_years: f64,
    /// Wear-out acceleration per unit electron daily fluence.
    pub electron_accel: f64,
    /// Wear-out acceleration per unit proton daily fluence.
    pub proton_accel: f64,
}

impl Default for WeibullBathtub {
    fn default() -> Self {
        // ~4% first-year infant mortality; an 8-year zero-dose design
        // life pulled to ~5 years at a typical LEO dose — the same "few
        // percent a year, radiation-dominated" regime the exponential
        // default is calibrated to.
        WeibullBathtub {
            infant_shape: 0.5,
            infant_scale_years: 500.0,
            wearout_shape: 3.0,
            wearout_scale_years: 8.0,
            electron_accel: 1.2e-11,
            proton_accel: 1.0e-8,
        }
    }
}

impl WeibullBathtub {
    /// The dose-accelerated wear-out characteristic life \[years\].
    fn wearout_scale_at(&self, dose: DailyFluence) -> f64 {
        self.wearout_scale_years
            / (1.0 + self.electron_accel * dose.electron + self.proton_accel * dose.proton)
    }
}

impl FailureProcess for WeibullBathtub {
    fn validate(&self) -> Result<()> {
        let pos = |x: f64| x.is_finite() && x > 0.0;
        if !(pos(self.infant_shape)
            && pos(self.infant_scale_years)
            && pos(self.wearout_shape)
            && pos(self.wearout_scale_years))
            || self.electron_accel < 0.0
            || self.proton_accel < 0.0
        {
            return Err(LsnError::BadParameter {
                name: "WeibullBathtub",
                constraint: "positive shapes/scales and non-negative accelerations",
            });
        }
        Ok(())
    }

    fn sample_lifetime_days(&self, dose: DailyFluence, rng: &mut StdRng) -> f64 {
        // Inverse-CDF Weibull: scale * (-ln u)^(1/shape).
        let u1: f64 = rng.gen::<f64>().max(1e-300);
        let u2: f64 = rng.gen::<f64>().max(1e-300);
        let infant = self.infant_scale_years * (-u1.ln()).powf(1.0 / self.infant_shape);
        let wearout = self.wearout_scale_at(dose) * (-u2.ln()).powf(1.0 / self.wearout_shape);
        infant.min(wearout) * 365.25
    }
}

/// One `[start, end)` service outage of one satellite slot \[days since
/// mission start\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageInterval {
    /// Outage start \[days\] (the failure instant).
    pub start_day: f64,
    /// Outage end \[days\] (replacement in service), clamped to the
    /// horizon.
    pub end_day: f64,
}

impl OutageInterval {
    /// Interval length \[days\].
    pub fn days(&self) -> f64 {
        self.end_day - self.start_day
    }

    /// Whether `day` falls inside the outage.
    pub fn contains(&self, day: f64) -> bool {
        (self.start_day..self.end_day).contains(&day)
    }
}

/// The time-resolved product of a failure process run through the spare
/// machinery: per-satellite outage intervals over the mission horizon —
/// what a scalar availability throws away. Built by
/// [`crate::survivability::outage_timeline`]; deterministic in its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageTimeline {
    /// Mission horizon \[days\].
    pub horizon_days: f64,
    /// Start index per plane (with a trailing total) in the flat
    /// plane-major slot order — the layout snapshots share.
    pub plane_offsets: Vec<usize>,
    /// Chronologically sorted outage intervals per slot, flat plane-major.
    /// Slots destroyed before the mission (an attack) carry one interval
    /// covering the whole horizon.
    pub outages: Vec<Vec<OutageInterval>>,
    /// Failures over the horizon (excluding pre-destroyed slots).
    pub failures: usize,
    /// Replacements performed.
    pub replacements: usize,
    /// Spares consumed (counting resupplies).
    pub spares_consumed: usize,
    /// Slot-days lost to failure-driven vacancies, accumulated in the
    /// engine's event order — bit-identical to the scalar simulation's
    /// running sum (recomputing it from the intervals would round
    /// differently). Pre-destroyed slots are *not* counted here: their
    /// loss is the attack's accounting, as in the scalar report.
    pub vacancy_slot_days: f64,
    /// Slots destroyed before the mission (the `dead` mask's victims).
    pub destroyed_slots: usize,
}

impl OutageTimeline {
    /// Total satellite slots.
    pub fn n_sats(&self) -> usize {
        self.outages.len()
    }

    /// Slot-days lost to failure-driven vacancies (the scalar report's
    /// `lost_slot_days`; destroyed slots excluded).
    pub fn lost_slot_days(&self) -> f64 {
        self.vacancy_slot_days
    }

    /// Time-averaged fraction of slots in service, counting destroyed
    /// slots as out for the whole horizon. The reports take their
    /// availability from the survivability reduction; the tests check the
    /// timeline's bookkeeping through this.
    #[cfg(test)]
    pub fn availability(&self) -> f64 {
        let slot_days = self.n_sats() as f64 * self.horizon_days;
        if slot_days <= 0.0 {
            return 0.0;
        }
        1.0 - (self.vacancy_slot_days + self.destroyed_slots as f64 * self.horizon_days) / slot_days
    }

    /// Whether slot `flat` is in service at mission `day`.
    pub(crate) fn alive_at(&self, flat: usize, day: f64) -> bool {
        !self.outages[flat].iter().any(|o| o.contains(day))
    }

    /// Fills `out[flat] &= alive_at(flat, day)` for every slot —
    /// composing the timeline onto an existing (e.g. attack) mask.
    ///
    /// # Panics
    /// If `out.len() != self.n_sats()`.
    pub fn mask_alive(&self, day: f64, out: &mut [bool]) {
        assert_eq!(out.len(), self.n_sats(), "mask length mismatch");
        for (flat, alive) in out.iter_mut().enumerate() {
            *alive = *alive && self.alive_at(flat, day);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssplane_astro::sunsync::sun_synchronous_orbit;

    fn elements(planes: usize, slots: usize) -> Vec<Vec<OrbitalElements>> {
        let epoch = Epoch::J2000;
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        (0..planes)
            .map(|p| orbit.with_ltan(7.0 + p as f64 * 1.3).plane_elements(epoch, slots).unwrap())
            .collect()
    }

    fn target(planes: &[Vec<OrbitalElements>], groups: Vec<usize>) -> AttackTarget<'_> {
        AttackTarget {
            planes: planes.iter().map(Vec::as_slice).collect(),
            plane_groups: groups,
            epoch: Epoch::J2000,
        }
    }

    #[test]
    fn leading_planes_matches_the_historical_stride() {
        // The parity pin: for every (n, lost), LeadingPlanes destroys the
        // whole planes the original attacked_indices helper selected.
        for n in 1..=12usize {
            let planes = elements(n, 4);
            for lost in 0..=n + 3 {
                let t = target(&planes, (0..n).collect());
                let destroyed = LeadingPlanes { planes_lost: lost }.destroyed(&t, 99).unwrap();
                let expect: Vec<SatId> = strided_plane_indices(n, lost)
                    .into_iter()
                    .flat_map(|p| (0..4).map(move |s| SatId { plane: p, slot: s }))
                    .collect();
                assert_eq!(destroyed, expect, "n={n} lost={lost}");
            }
        }
        // Spot-check the stride itself against the historical values.
        assert_eq!(strided_plane_indices(10, 0), Vec::<usize>::new());
        assert_eq!(strided_plane_indices(10, 2), vec![0, 5]);
        assert_eq!(strided_plane_indices(4, 9), vec![0, 1, 2, 3]);
    }

    #[test]
    fn random_sats_deterministic_distinct_and_clamped() {
        let planes = elements(5, 8);
        let t = target(&planes, (0..5).collect());
        let a = RandomSats { sats_lost: 13 }.destroyed(&t, 7).unwrap();
        let b = RandomSats { sats_lost: 13 }.destroyed(&t, 7).unwrap();
        assert_eq!(a, b, "same seed, same victims");
        assert_eq!(a.len(), 13);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        let c = RandomSats { sats_lost: 13 }.destroyed(&t, 8).unwrap();
        assert_ne!(a, c, "different seed, different victims");
        // Clamp: asking for more than the fleet destroys the fleet.
        let all = RandomSats { sats_lost: 10_000 }.destroyed(&t, 7).unwrap();
        assert_eq!(all.len(), 40);
        assert_eq!(RandomSats { sats_lost: 0 }.destroyed(&t, 7).unwrap(), Vec::new());
    }

    #[test]
    fn random_sats_victims_pinned_across_the_gen_index_refactor() {
        // The shared `gen_index` helper must leave every seeded victim
        // set byte-identical to the historical inline float-scaled draw:
        // replay the exact pre-refactor partial Fisher-Yates here and
        // require the model to match it id for id.
        let planes = elements(6, 7);
        let t = target(&planes, (0..6).collect());
        for seed in [0u64, 7, 42, 0xDEAD_BEEF] {
            for lost in [1usize, 5, 17, 42] {
                let got = RandomSats { sats_lost: lost }.destroyed(&t, seed).unwrap();
                let mut pool: Vec<SatId> =
                    (0..6).flat_map(|p| (0..7).map(move |s| SatId { plane: p, slot: s })).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                for k in 0..lost {
                    let span = pool.len() - k;
                    let j = k + ((rng.gen::<f64>() * span as f64) as usize).min(span - 1);
                    pool.swap(k, j);
                }
                let mut expect: Vec<SatId> = pool.into_iter().take(lost).collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "seed {seed} lost {lost}");
            }
        }
    }

    #[test]
    fn declination_band_hits_the_band_only() {
        let planes = elements(3, 20);
        let t = target(&planes, vec![0, 1, 2]);
        let destroyed = DeclinationBand { min_deg: -15.0, max_deg: 15.0 }.destroyed(&t, 0).unwrap();
        assert!(!destroyed.is_empty(), "a 20-slot polar plane crosses the equator band");
        assert!(destroyed.len() < t.total_sats(), "a narrow band spares the rest");
        for id in &destroyed {
            let el = planes[id.plane][id.slot];
            let r = J2Propagator::new(Epoch::J2000, el).unwrap().position_at(Epoch::J2000).unwrap();
            let dec = (r.z / r.norm()).asin().to_degrees();
            assert!((-15.0..=15.0).contains(&dec), "victim at dec {dec}");
        }
        // The full sphere takes everything; an inverted band is an error.
        let all = DeclinationBand { min_deg: -90.0, max_deg: 90.0 }.destroyed(&t, 0).unwrap();
        assert_eq!(all.len(), t.total_sats());
        assert!(DeclinationBand { min_deg: 10.0, max_deg: -10.0 }.destroyed(&t, 0).is_err());
    }

    #[test]
    fn whole_shell_takes_its_planes_and_rejects_bad_indices() {
        let planes = elements(4, 6);
        // Planes 0/1 form shell 0, planes 2/3 shell 1.
        let t = target(&planes, vec![0, 0, 1, 1]);
        let destroyed = WholeShell { shell: 1 }.destroyed(&t, 0).unwrap();
        assert_eq!(destroyed.len(), 12);
        assert!(destroyed.iter().all(|id| id.plane >= 2));
        assert!(WholeShell { shell: 2 }.destroyed(&t, 0).is_err());
    }

    #[test]
    fn exponential_process_matches_the_failure_model_stream() {
        // One uniform draw per lifetime, identical arithmetic to the
        // original loop: -ln(u) / (hazard_per_year / 365.25).
        let process = RadiationExponential { model: FailureModel::default() };
        process.validate().unwrap();
        let dose = DailyFluence { electron: 3e10, proton: 2e7 };
        let mut rng = StdRng::seed_from_u64(5);
        let life = process.sample_lifetime_days(dose, &mut rng);
        let mut reference = StdRng::seed_from_u64(5);
        let u: f64 = reference.gen::<f64>().max(1e-300);
        let expect = -u.ln() / (process.model.hazard_per_year(dose) / 365.25);
        assert_eq!(life, expect);
        let zero = RadiationExponential {
            model: FailureModel { baseline_per_year: 0.0, electron_coeff: 0.0, proton_coeff: 0.0 },
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn weibull_dose_shortens_life_and_validates() {
        let process = WeibullBathtub::default();
        process.validate().unwrap();
        let cool = DailyFluence { electron: 1e10, proton: 1e7 };
        let hot = DailyFluence { electron: 5e10, proton: 3e7 };
        assert!(process.wearout_scale_at(hot) < process.wearout_scale_at(cool));
        // Mean lifetime over many draws shrinks with dose.
        let mean = |dose| {
            let mut rng = StdRng::seed_from_u64(11);
            (0..4000).map(|_| process.sample_lifetime_days(dose, &mut rng)).sum::<f64>() / 4000.0
        };
        assert!(mean(hot) < mean(cool));
        // Infant mortality: a visible fraction of units dies in year one,
        // far more than the wear-out tail alone would produce.
        let mut rng = StdRng::seed_from_u64(3);
        let early =
            (0..4000).filter(|_| process.sample_lifetime_days(cool, &mut rng) < 365.25).count();
        assert!((40..1000).contains(&early), "first-year failures {early}/4000");
        assert!(WeibullBathtub { infant_shape: 0.0, ..process }.validate().is_err());
        assert!(WeibullBathtub { wearout_scale_years: -1.0, ..process }.validate().is_err());
        assert!(WeibullBathtub { electron_accel: -1.0, ..process }.validate().is_err());
    }

    #[test]
    fn outage_timeline_queries() {
        let timeline = OutageTimeline {
            horizon_days: 100.0,
            plane_offsets: vec![0, 2, 3],
            outages: vec![
                vec![
                    OutageInterval { start_day: 10.0, end_day: 20.0 },
                    OutageInterval { start_day: 50.0, end_day: 55.0 },
                ],
                vec![],
                vec![OutageInterval { start_day: 0.0, end_day: 100.0 }],
            ],
            failures: 2,
            replacements: 2,
            spares_consumed: 2,
            vacancy_slot_days: 15.0,
            destroyed_slots: 1,
        };
        assert_eq!(timeline.n_sats(), 3);
        assert_eq!(timeline.lost_slot_days(), 15.0);
        assert!((timeline.availability() - (1.0 - 115.0 / 300.0)).abs() < 1e-12);
        assert!(timeline.alive_at(0, 5.0));
        assert!(!timeline.alive_at(0, 10.0), "start is inclusive");
        assert!(timeline.alive_at(0, 20.0), "end is exclusive");
        assert!(!timeline.alive_at(2, 99.0));
        let mut mask = vec![true, false, true];
        timeline.mask_alive(52.0, &mut mask);
        assert_eq!(mask, vec![false, false, false]);
        let mut mask = vec![true, true, true];
        timeline.mask_alive(30.0, &mut mask);
        assert_eq!(mask, vec![true, true, false]);
    }
}
