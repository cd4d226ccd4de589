//! Discrete-event survivability simulation.
//!
//! Ties a [`FailureProcess`] and the spare policies together over mission
//! time: satellites fail according to the process's lifetime law, spares
//! phase in after the policy's latency, exhausted planes wait for
//! resupply. One renewal loop serves both entry points: [`outage_timeline`]
//! records the resulting per-satellite `[start, end)` outage intervals,
//! and the scalar [`simulate_process`] (the paper's §5(2) claim
//! quantified: a lower-radiation SS constellation sustains the same
//! availability with fewer spares) keeps only the loop's running totals,
//! so a timeline and a scalar report built from identical arguments
//! describe the same realization. (Callers may still run them as
//! independent draws — the scenario engine deliberately seeds its
//! degraded-network timeline separately from its aggregate survivability
//! report.)

use crate::disruption::{FailureProcess, OutageInterval, OutageTimeline};
use crate::error::Result;
use crate::spares::{SpareBudget, SparePolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssplane_radiation::fluence::DailyFluence;

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivabilityConfig {
    /// Mission horizon \[years\].
    pub horizon_years: f64,
    /// Resupply cadence \[days\]: planes receive fresh spares (topping the
    /// policy's budget back up) every interval.
    pub resupply_days: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SurvivabilityConfig {
    fn default() -> Self {
        SurvivabilityConfig { horizon_years: 5.0, resupply_days: 180.0, seed: 42 }
    }
}

/// Result of a survivability run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivabilityReport {
    /// Time-averaged fraction of slots occupied by a working satellite.
    pub availability: f64,
    /// Total failures over the horizon.
    pub failures: usize,
    /// Total replacements performed.
    pub replacements: usize,
    /// Slot-days lost to vacancies.
    pub lost_slot_days: f64,
    /// Spares consumed (counting resupplies).
    pub spares_consumed: usize,
}

/// The renewal loop's totals over the whole constellation.
struct RenewalTotals {
    failures: usize,
    replacements: usize,
    spares_consumed: usize,
    vacancy_slot_days: f64,
    destroyed_slots: usize,
    horizon_days: f64,
}

/// Checks the arguments [`outage_timeline`] and [`simulate_process`]
/// share, returning the slot count.
fn check_inputs(
    plane_doses: &[DailyFluence],
    plane_sats: &[usize],
    dead: Option<&[bool]>,
    process: &dyn FailureProcess,
    config: SurvivabilityConfig,
) -> Result<usize> {
    let total: usize = plane_sats.iter().sum();
    if plane_doses.is_empty() || plane_doses.len() != plane_sats.len() || total == 0 {
        return Err(crate::error::LsnError::BadParameter {
            name: "constellation",
            constraint: "at least one plane and one satellite per plane",
        });
    }
    if config.horizon_years.is_nan() || config.horizon_years <= 0.0 {
        return Err(crate::error::LsnError::BadParameter {
            name: "horizon_years",
            constraint: "> 0",
        });
    }
    if let Some(d) = dead {
        if d.len() != total {
            return Err(crate::error::LsnError::BadParameter {
                name: "dead",
                constraint: "one flag per satellite slot",
            });
        }
    }
    process.validate()?;
    Ok(total)
}

/// The renewal loop both [`outage_timeline`] and [`simulate_process`]
/// run on arguments that passed [`check_inputs`] (the bookkeeping is
/// documented on [`outage_timeline`]), handing each outage to `sink` as
/// `(flat slot, interval)` in event order and returning the totals.
/// [`simulate_process`] passes a no-op sink, so it keeps no intervals;
/// the draws and the running `vacancy_slot_days` sum do not depend on
/// the sink, so both callers see the same realization.
fn renew(
    plane_doses: &[DailyFluence],
    plane_sats: &[usize],
    dead: Option<&[bool]>,
    process: &dyn FailureProcess,
    policy: &SparePolicy,
    config: SurvivabilityConfig,
    mut sink: impl FnMut(usize, OutageInterval),
) -> RenewalTotals {
    let horizon_days = config.horizon_years * 365.25;
    let replacement_days = policy.replacement_days();
    let mut budget = SpareBudget::new(policy, plane_doses.len());

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut totals = RenewalTotals {
        failures: 0,
        replacements: 0,
        spares_consumed: 0,
        vacancy_slot_days: 0.0,
        destroyed_slots: 0,
        horizon_days,
    };

    let mut plane_start = 0usize;
    for (p, (dose, &n)) in plane_doses.iter().zip(plane_sats).enumerate() {
        for flat in plane_start..plane_start + n {
            if dead.is_some_and(|d| d[flat]) {
                // Destroyed before the mission: one wall-to-wall outage,
                // no lifetime draws, no spare consumption.
                totals.destroyed_slots += 1;
                sink(flat, OutageInterval { start_day: 0.0, end_day: horizon_days });
                continue;
            }
            // Renewal process for this slot across the horizon.
            let mut t = 0.0f64;
            loop {
                t += process.sample_lifetime_days(*dose, &mut rng);
                if t >= horizon_days {
                    break;
                }
                totals.failures += 1;
                totals.replacements += 1;
                totals.spares_consumed += 1;
                let vacancy_days = if budget.draw(p) {
                    replacement_days
                } else {
                    // Wait for the next resupply epoch, which tops the
                    // exhausted inventory back up; the waiting slot's
                    // replacement is delivered alongside.
                    let next_resupply = (t / config.resupply_days).ceil() * config.resupply_days;
                    budget.resupply(p);
                    (next_resupply - t) + replacement_days
                };
                let vacancy_days = vacancy_days.min(horizon_days - t);
                totals.vacancy_slot_days += vacancy_days;
                sink(flat, OutageInterval { start_day: t, end_day: t + vacancy_days });
                t += vacancy_days;
            }
        }
        plane_start += n;
    }
    totals
}

/// The renewal engine with its intervals kept: runs `process` over every
/// slot of every plane and records the outage intervals instead of only
/// their sum.
///
/// `plane_doses[p]` is the representative daily fluence of plane `p`,
/// `plane_sats[p]` its slot count. A failed slot consumes a spare from
/// the policy's [`SpareBudget`] (if one remains) and returns to service
/// after the replacement latency; otherwise it stays vacant until the
/// next resupply epoch, which tops the exhausted inventory back up to
/// the policy's budget. Slots flagged in `dead` (flat plane-major — an
/// attack's victims) are out for the whole horizon: they draw no
/// lifetimes and consume no spares, exactly as destroyed capacity is
/// excluded from the scalar report.
///
/// Deterministic in `config.seed`: slots are processed in flat
/// plane-major order, each failure drawing from one shared stream.
/// [`simulate_process`] runs the same loop without keeping intervals,
/// so from identical arguments both describe the same realization.
///
/// # Errors
/// Rejects empty constellations, mismatched `plane_doses`/`plane_sats`
/// lengths, non-positive horizons, and degenerate failure processes.
pub fn outage_timeline(
    plane_doses: &[DailyFluence],
    plane_sats: &[usize],
    dead: Option<&[bool]>,
    process: &dyn FailureProcess,
    policy: &SparePolicy,
    config: SurvivabilityConfig,
) -> Result<OutageTimeline> {
    let total = check_inputs(plane_doses, plane_sats, dead, process, config)?;
    let mut outages: Vec<Vec<OutageInterval>> = vec![Vec::new(); total];
    let totals = renew(plane_doses, plane_sats, dead, process, policy, config, |flat, o| {
        outages[flat].push(o);
    });
    let plane_offsets = std::iter::once(0)
        .chain(plane_sats.iter().scan(0, |end, &n| {
            *end += n;
            Some(*end)
        }))
        .collect();
    Ok(OutageTimeline {
        horizon_days: totals.horizon_days,
        plane_offsets,
        outages,
        failures: totals.failures,
        replacements: totals.replacements,
        spares_consumed: totals.spares_consumed,
        vacancy_slot_days: totals.vacancy_slot_days,
        destroyed_slots: totals.destroyed_slots,
    })
}

/// Event-driven simulation of one constellation under an arbitrary
/// [`FailureProcess`]: the renewal loop [`outage_timeline`] runs, reduced
/// to the scalar report without keeping any interval.
///
/// # Errors
/// As [`outage_timeline`].
pub fn simulate_process(
    plane_doses: &[DailyFluence],
    sats_per_plane: usize,
    process: &dyn FailureProcess,
    policy: &SparePolicy,
    config: SurvivabilityConfig,
) -> Result<SurvivabilityReport> {
    let plane_sats = vec![sats_per_plane; plane_doses.len()];
    check_inputs(plane_doses, &plane_sats, None, process, config)?;
    let totals = renew(plane_doses, &plane_sats, None, process, policy, config, |_, _| {});
    let lost_slot_days = totals.vacancy_slot_days;
    let slot_days = plane_doses.len() as f64 * sats_per_plane as f64 * totals.horizon_days;
    Ok(SurvivabilityReport {
        availability: 1.0 - lost_slot_days / slot_days,
        failures: totals.failures,
        replacements: totals.replacements,
        lost_slot_days,
        spares_consumed: totals.spares_consumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disruption::{RadiationExponential, WeibullBathtub};
    use crate::failures::FailureModel;

    /// The historical radiation-driven exponential at its default rates.
    fn exponential() -> RadiationExponential {
        RadiationExponential { model: FailureModel::default() }
    }

    fn dose(e: f64, p: f64) -> DailyFluence {
        DailyFluence { electron: e, proton: p }
    }

    fn policy() -> SparePolicy {
        SparePolicy::PerPlane { spares_per_plane: 3, replacement_days: 3.0 }
    }

    #[test]
    fn basic_run_properties() {
        let doses = vec![dose(3e10, 2e7); 10];
        let report =
            simulate_process(&doses, 20, &exponential(), &policy(), SurvivabilityConfig::default())
                .unwrap();
        assert!((0.0..=1.0).contains(&report.availability));
        assert!(report.availability > 0.95, "availability {}", report.availability);
        assert!(report.failures > 0);
        assert_eq!(report.replacements, report.failures);
        assert!(report.spares_consumed >= report.replacements);
    }

    #[test]
    fn deterministic_given_seed() {
        let doses = vec![dose(3e10, 2e7); 6];
        let cfg = SurvivabilityConfig::default();
        let a = simulate_process(&doses, 15, &exponential(), &policy(), cfg).unwrap();
        let b = simulate_process(&doses, 15, &exponential(), &policy(), cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lower_dose_fewer_failures_higher_availability() {
        let hot = vec![dose(4.2e10, 2.4e7); 12];
        let cool = vec![dose(2.0e10, 1.2e7); 12];
        let cfg = SurvivabilityConfig { horizon_years: 8.0, ..Default::default() };
        let cool_rep = simulate_process(&cool, 20, &exponential(), &policy(), cfg).unwrap();
        let hot_rep = simulate_process(&hot, 20, &exponential(), &policy(), cfg).unwrap();
        assert!(cool_rep.failures < hot_rep.failures);
        assert!(cool_rep.availability >= hot_rep.availability);
        assert!(cool_rep.spares_consumed < hot_rep.spares_consumed);
    }

    #[test]
    fn zero_spares_hurts_availability() {
        let doses = vec![dose(4e10, 2.5e7); 8];
        let none = SparePolicy::PerPlane { spares_per_plane: 0, replacement_days: 3.0 };
        let cfg = SurvivabilityConfig { horizon_years: 6.0, ..Default::default() };
        let bare = simulate_process(&doses, 20, &exponential(), &none, cfg).unwrap();
        let spared = simulate_process(&doses, 20, &exponential(), &policy(), cfg).unwrap();
        assert!(spared.availability > bare.availability);
        assert!(bare.lost_slot_days > spared.lost_slot_days);
    }

    #[test]
    fn shared_pool_runs() {
        let doses = vec![dose(3e10, 2e7); 10];
        let pool = SparePolicy::SharedPool { pool_size: 30, replacement_days: 20.0 };
        let report =
            simulate_process(&doses, 20, &exponential(), &pool, SurvivabilityConfig::default())
                .unwrap();
        assert!((0.0..=1.0).contains(&report.availability));
        // With resupply topping the whole pool back up, a 30-spare pool
        // rarely exhausts: vacancies are dominated by the 20-day
        // delivery latency, so the loss is at least ~one delivery per
        // failure.
        assert!(
            report.lost_slot_days >= report.failures as f64 * 20.0 * 0.9,
            "lost {} for {} failures",
            report.lost_slot_days,
            report.failures
        );
        // A faster delivery with the same pool strictly helps.
        let quick = SparePolicy::SharedPool { pool_size: 30, replacement_days: 2.0 };
        let fast =
            simulate_process(&doses, 20, &exponential(), &quick, SurvivabilityConfig::default())
                .unwrap();
        assert!(fast.availability > report.availability);
    }

    /// A lifetime law with no randomness: every unit lives exactly
    /// `life_days`. Lets the resupply arithmetic be pinned in closed
    /// form.
    struct ConstLife {
        life_days: f64,
    }

    impl FailureProcess for ConstLife {
        fn validate(&self) -> Result<()> {
            Ok(())
        }
        fn sample_lifetime_days(&self, _dose: DailyFluence, _rng: &mut StdRng) -> f64 {
            self.life_days
        }
    }

    #[test]
    fn shared_pool_resupply_delivers_the_whole_pool() {
        // Regression for the single-spare resupply bug: one slot failing
        // every 10 days against a 2-spare pool with instant replacement
        // and 1000-day resupply. Failures at t = 10 and 20 draw the
        // pool; the one at t = 30 waits for day 1000 *and tops the pool
        // back to 2*, so the failures at 1010 and 1020 draw again and
        // the one at 1030 waits out the rest of the horizon — the cycle
        // is draw, draw, wait. Under the old `pool += 1` behavior every
        // second failure after the first wait would have waited instead.
        let pool = SparePolicy::SharedPool { pool_size: 2, replacement_days: 0.0 };
        let cfg =
            SurvivabilityConfig { horizon_years: 2000.0 / 365.25, resupply_days: 1000.0, seed: 1 };
        let timeline = outage_timeline(
            &[dose(0.0, 0.0)],
            &[1],
            None,
            &ConstLife { life_days: 10.0 },
            &pool,
            cfg,
        )
        .unwrap();
        // Six failures total (10, 20, 30, 1010, 1020, 1030); only the
        // two exhaustion events lose time, 970 days each.
        assert_eq!(timeline.failures, 6);
        let waits: Vec<OutageInterval> =
            timeline.outages[0].iter().copied().filter(|o| o.days() > 0.0).collect();
        assert_eq!(waits.len(), 2, "one wait per resupply cycle, not every other failure");
        assert!((waits[0].start_day - 30.0).abs() < 1e-9);
        assert!((waits[0].end_day - 1000.0).abs() < 1e-9);
        assert!((waits[1].start_day - 1030.0).abs() < 1e-9);
        assert!((waits[1].end_day - 2000.0).abs() < 1e-9);
        assert!((timeline.lost_slot_days() - (970.0 + 970.0)).abs() < 1e-9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// simulate_process() is the timeline reduced: for either failure
        /// process and either spare policy, the counters and the bits of
        /// the lost days and the availability equal the timeline's, and
        /// the intervals are chronological, inside the horizon, and sum
        /// to the lost days.
        #[test]
        fn timeline_matches_the_scalar_report(
            weibull in 0usize..2,
            shared in 0usize..2,
            doses in proptest::collection::vec((0.0f64..6e10, 0.0f64..4e7), 1..9),
            sats_per_plane in 1usize..20,
            horizon_years in 0.3f64..10.0,
            resupply_days in 5.0f64..400.0,
            spares in 0usize..6,
            replacement_days in 0.0f64..30.0,
            seed in 0u64..u64::MAX,
        ) {
            let doses: Vec<DailyFluence> = doses.iter().map(|&(e, p)| dose(e, p)).collect();
            let planes = doses.len();
            let process: Box<dyn FailureProcess> = if weibull == 1 {
                Box::new(WeibullBathtub::default())
            } else {
                Box::new(exponential())
            };
            let policy = if shared == 1 {
                SparePolicy::SharedPool { pool_size: spares * planes, replacement_days }
            } else {
                SparePolicy::PerPlane { spares_per_plane: spares, replacement_days }
            };
            let cfg = SurvivabilityConfig { horizon_years, resupply_days, seed };
            let report = simulate_process(&doses, sats_per_plane, &*process, &policy, cfg).unwrap();
            let plane_sats = vec![sats_per_plane; planes];
            let timeline =
                outage_timeline(&doses, &plane_sats, None, &*process, &policy, cfg).unwrap();
            assert_eq!(report.failures, timeline.failures);
            assert_eq!(report.replacements, timeline.replacements);
            assert_eq!(report.spares_consumed, timeline.spares_consumed);
            assert_eq!(report.lost_slot_days.to_bits(), timeline.lost_slot_days().to_bits());
            assert_eq!(report.availability.to_bits(), timeline.availability().to_bits());
            assert_eq!(timeline.n_sats(), planes * sats_per_plane);
            assert_eq!(
                timeline.plane_offsets,
                (0..=planes).map(|p| p * sats_per_plane).collect::<Vec<_>>()
            );
            let intervals = timeline.outages.iter().map(Vec::len).sum::<usize>();
            assert_eq!(intervals, timeline.failures, "one interval per failure");
            let mut days = 0.0;
            for slot in &timeline.outages {
                for w in slot.windows(2) {
                    assert!(w[0].end_day <= w[1].start_day);
                }
                for o in slot {
                    assert!(o.start_day >= 0.0 && o.end_day <= timeline.horizon_days + 1e-9);
                    days += o.days();
                }
            }
            let tolerance = 1e-9 * timeline.lost_slot_days().max(1.0);
            assert!((days - timeline.lost_slot_days()).abs() <= tolerance);
        }
    }

    #[test]
    fn dead_slots_are_excluded_from_failures_and_spares() {
        let doses = vec![dose(4e10, 2.5e7); 4];
        let plane_sats = vec![5usize; 4];
        let cfg = SurvivabilityConfig { horizon_years: 5.0, ..Default::default() };
        let process = exponential();
        let full = outage_timeline(&doses, &plane_sats, None, &process, &policy(), cfg).unwrap();
        // Kill plane 2 outright.
        let mut dead = vec![false; 20];
        dead[10..15].fill(true);
        let masked =
            outage_timeline(&doses, &plane_sats, Some(&dead), &process, &policy(), cfg).unwrap();
        assert!(masked.failures < full.failures, "dead slots draw no lifetimes");
        for flat in 10..15 {
            assert_eq!(masked.outages[flat].len(), 1);
            assert!(!masked.alive_at(flat, 0.0));
            assert!(!masked.alive_at(flat, masked.horizon_days - 1.0));
        }
        // A surviving slot's stream starts where the dead plane's would
        // have: slot 0 of plane 0 is identical in both runs.
        assert_eq!(masked.outages[0], full.outages[0]);
        // Wrong mask length is rejected.
        assert!(
            outage_timeline(&doses, &plane_sats, Some(&[true]), &process, &policy(), cfg).is_err()
        );
    }

    #[test]
    fn weibull_process_runs_end_to_end() {
        let doses = vec![dose(3e10, 2e7); 6];
        let cfg = SurvivabilityConfig::default();
        let a = simulate_process(&doses, 15, &WeibullBathtub::default(), &policy(), cfg).unwrap();
        let b = simulate_process(&doses, 15, &WeibullBathtub::default(), &policy(), cfg).unwrap();
        assert_eq!(a, b, "weibull runs are seed-deterministic");
        assert!((0.0..=1.0).contains(&a.availability));
        assert!(a.failures > 0, "a 5-year horizon sees infant mortality at least");
    }

    #[test]
    fn bad_inputs_rejected() {
        let doses = vec![dose(1e10, 1e7)];
        assert!(simulate_process(&[], 5, &exponential(), &policy(), Default::default()).is_err());
        assert!(simulate_process(&doses, 0, &exponential(), &policy(), Default::default()).is_err());
        assert!(simulate_process(
            &doses,
            5,
            &exponential(),
            &policy(),
            SurvivabilityConfig { horizon_years: 0.0, ..Default::default() }
        )
        .is_err());
        // The engine also rejects mismatched plane vectors.
        assert!(outage_timeline(
            &doses,
            &[1, 2],
            None,
            &exponential(),
            &policy(),
            Default::default()
        )
        .is_err());
    }
}
