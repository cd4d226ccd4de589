//! The system stage: what one designed system reports apart from its
//! network — the fixed attack's victims, the attack bookkeeping over
//! whatever destroyed set the point settled on, the fluence block and the
//! survivability simulation.

use super::StageClock;
use crate::error::{Result, ScenarioError};
use crate::report::{
    AttackReport, FluenceReport, PerSatelliteReport, SurvivabilityOutcome, SystemReport,
};
use crate::spec::{AttackKind, ScenarioSpec};
use ssplane_core::cache::KernelCache;
use ssplane_core::evaluate::{plane_fluence_samples_in, weighted_median_fluence};
use ssplane_core::system::DesignedSystem;
use ssplane_lsn::disruption::AttackTarget;
use ssplane_lsn::survivability::simulate_process;
use ssplane_lsn::topology::SatId;
use ssplane_radiation::fluence::DailyFluence;

/// The slots destroyed by the scenario's *fixed* attack on one designed
/// system (empty when the attack stage is inactive, or when the kind is
/// `optimized` — the searched attack runs against the network stage's
/// evaluator). The attack model comes from the `attack.kind` registry;
/// selection is deterministic in the scenario seed.
///
/// # Errors
/// A `leading-planes` `attack.planes_lost` above the system's plane count
/// or a `random-sats` `attack.sats_lost` above its satellite count, and
/// any model failure.
pub(super) fn attack_destroyed(spec: &ScenarioSpec, sys: &DesignedSystem) -> Result<Vec<SatId>> {
    if !spec.attack.is_active() || sys.planes.is_empty() {
        return Ok(Vec::new());
    }
    let Some(model) = spec.attack.fixed_model() else {
        return Ok(Vec::new());
    };
    let target = AttackTarget {
        planes: sys.planes.iter().map(|p| p.satellites.as_slice()).collect(),
        plane_groups: sys.planes.iter().map(|p| p.eval_idx).collect(),
        epoch: spec.radiation.epoch(),
    };
    // A loss count above what the system has would quietly clamp to all
    // of it; the kind that reads the count refuses it instead.
    let count = match spec.attack.kind {
        AttackKind::LeadingPlanes => {
            Some(("attack.planes_lost", spec.attack.planes_lost, target.planes.len(), "planes"))
        }
        AttackKind::RandomSats => {
            Some(("attack.sats_lost", spec.attack.sats_lost, target.total_sats(), "satellites"))
        }
        _ => None,
    };
    if let Some((key, lost, n, unit)) = count.filter(|&(_, lost, n, _)| lost > n) {
        return Err(ScenarioError::bad_value(
            key,
            &lost.to_string(),
            &format!("at most the system's {n} {unit}"),
        ));
    }
    Ok(model.destroyed(&target, spec.seed)?)
}

/// Runs every post-design, non-network stage for one designed system.
/// `destroyed` is the attack's victim set (fixed or searched); the
/// per-plane doses are returned alongside the report so the degraded
/// network pass can drive its outage timeline without re-sampling
/// fluence.
pub(super) fn system_report(
    spec: &ScenarioSpec,
    name: &str,
    sys: &DesignedSystem,
    destroyed: &[SatId],
    cache: &KernelCache,
    clock: &mut StageClock,
) -> Result<(SystemReport, Option<Vec<DailyFluence>>)> {
    // Attack bookkeeping over the destroyed set: pure counting, so it
    // runs (and reports capacity retention) even in design-only
    // scenarios with the radiation stage disabled. A plane is lost when
    // the attack destroyed every one of its satellites.
    let mut destroyed_per_plane = vec![0usize; sys.planes.len()];
    for id in destroyed {
        destroyed_per_plane[id.plane] += 1;
    }
    let lost =
        |i: usize| sys.planes[i].n_sats > 0 && destroyed_per_plane[i] >= sys.planes[i].n_sats;
    let total = sys.total_sats();
    let attack = (spec.attack.is_active() && !sys.planes.is_empty()).then(|| AttackReport {
        planes_lost: (0..sys.planes.len()).filter(|&i| lost(i)).count(),
        sats_lost: destroyed.len(),
        capacity_retained: if total == 0 {
            0.0
        } else {
            1.0 - destroyed.len() as f64 / total as f64
        },
    });
    let mut report = SystemReport {
        design: sys.summary,
        fluence: None,
        attack,
        attack_search: None,
        survivability: None,
        network: None,
    };
    if !spec.radiation.enabled || sys.eval_groups.is_empty() {
        return Ok((report, None));
    }
    let (fluence, plane_doses) = fluence_report(spec, name, sys, cache, clock)?;
    report.fluence = Some(fluence);
    if spec.survivability.enabled {
        // Partial losses keep the plane with a reduced count.
        let surviving: Vec<(usize, usize)> = (0..sys.planes.len())
            .filter(|&i| !lost(i))
            .map(|i| (i, sys.planes[i].n_sats - destroyed_per_plane[i]))
            .collect();
        report.survivability =
            Some(survivability_outcome(spec, name, sys, &surviving, &plane_doses, clock)?);
    }
    Ok((report, Some(plane_doses)))
}

/// The fluence block and the per-plane doses. The block's median is the
/// fig10-parity statistic: `phases` samples per evaluation group,
/// weighted median across the constellation. Each plane's dose is the
/// mean over its evaluation group's phase samples.
fn fluence_report(
    spec: &ScenarioSpec,
    name: &str,
    sys: &DesignedSystem,
    cache: &KernelCache,
    clock: &mut StageClock,
) -> Result<(FluenceReport, Vec<DailyFluence>)> {
    let (epoch, phases) = (spec.radiation.epoch(), spec.radiation.phases);
    let samples = clock.time(&format!("{name}.fluence"), || {
        plane_fluence_samples_in(&sys.eval_groups, cache, epoch, phases, spec.radiation.step_s)
    })?;
    let median = weighted_median_fluence(&samples);
    let eval_doses: Vec<DailyFluence> = samples
        .chunks(phases)
        .map(|chunk| {
            let n = chunk.len() as f64;
            DailyFluence {
                electron: chunk.iter().map(|(f, _)| f.electron).sum::<f64>() / n,
                proton: chunk.iter().map(|(f, _)| f.proton).sum::<f64>() / n,
            }
        })
        .collect();
    let plane_doses: Vec<DailyFluence> =
        sys.planes.iter().map(|p| eval_doses[p.eval_idx]).collect();
    let n = plane_doses.len().max(1) as f64;
    let report = FluenceReport {
        median_electron: median.electron,
        median_proton: median.proton,
        mean_electron: plane_doses.iter().map(|d| d.electron).sum::<f64>() / n,
        mean_proton: plane_doses.iter().map(|d| d.proton).sum::<f64>() / n,
        solar_activity: cache.env().solar.activity(epoch),
    };
    Ok((report, plane_doses))
}

/// The survivability block over the planes the attack left standing,
/// `(design plane, satellites)` each, dosed from `plane_doses`.
fn survivability_outcome(
    spec: &ScenarioSpec,
    name: &str,
    sys: &DesignedSystem,
    surviving: &[(usize, usize)],
    plane_doses: &[DailyFluence],
    clock: &mut StageClock,
) -> Result<SurvivabilityOutcome> {
    // The attack wiping out every plane is an availability-0 outcome,
    // not a missing stage — a sweep plotting availability vs
    // planes_lost must see its extreme point. `lost_slot_days` counts
    // vacancy-days among *surviving* slots (the simulation's metric), so
    // it is 0 here, exactly as attack-destroyed slots are excluded in
    // partial attacks; the destroyed capacity itself is the attack
    // report's `sats_lost` / `capacity_retained`.
    let mut outcome = SurvivabilityOutcome::default();
    if !surviving.is_empty() {
        let doses: Vec<DailyFluence> = surviving.iter().map(|&(i, _)| plane_doses[i]).collect();
        let sats: usize = surviving.iter().map(|&(_, n)| n).sum();
        // Round to nearest: flooring the mean would silently drop up to
        // one satellite per plane from the simulated fleet (a ~10%
        // undercount for small uneven Walker shells).
        let sats_per_plane = ((sats as f64 / surviving.len() as f64).round() as usize).max(1);
        let process = spec.survivability.process();
        let sim = clock.time(&format!("{name}.survivability"), || {
            simulate_process(
                &doses,
                sats_per_plane,
                &*process,
                &spec.survivability.policy,
                spec.survivability.sim_config(spec.seed),
            )
        })?;
        outcome = SurvivabilityOutcome {
            availability: sim.availability,
            failures: sim.failures,
            replacements: sim.replacements,
            lost_slot_days: sim.lost_slot_days,
            spares_consumed: sim.spares_consumed,
            initial_spares: spec.survivability.policy.total_spares(surviving.len()),
            per_satellite: None,
        };
    }
    outcome.per_satellite = per_satellite_block(spec, sys.total_sats(), &outcome);
    Ok(outcome)
}

/// The optional survivability-per-satellite normalization
/// (`survivability.per_satellite`): outcome metrics divided by the
/// *designed* fleet size, so systems of very different scale (a slim
/// Walker vs the deployed Starlink catalog) compare on efficiency rather
/// than raw totals. `None` when the switch is off or the design is empty
/// — the block never changes existing bytes.
fn per_satellite_block(
    spec: &ScenarioSpec,
    design_sats: usize,
    outcome: &SurvivabilityOutcome,
) -> Option<PerSatelliteReport> {
    if !spec.survivability.per_satellite || design_sats == 0 {
        return None;
    }
    let n = design_sats as f64;
    Some(PerSatelliteReport {
        sats: design_sats,
        availability_per_ksat: outcome.availability / n * 1000.0,
        lost_slot_days_per_sat: outcome.lost_slot_days / n,
        spares_per_sat: outcome.initial_spares as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::tiny_spec;
    use ssplane_core::system::DesignSummary;

    /// A hand-built 1-plane system (no designer produces one for a full
    /// diurnal demand, so the edge case is exercised directly).
    fn one_plane_system() -> DesignedSystem {
        use ssplane_core::system::SystemPlane;
        let epoch = tiny_spec().radiation.epoch();
        let orbit = ssplane_astro::sunsync::sun_synchronous_orbit(560.0).unwrap();
        let satellites = orbit.with_ltan(10.5).plane_elements(epoch, 12).unwrap();
        DesignedSystem {
            summary: DesignSummary {
                sats: 12,
                planes: 1,
                shells: 1,
                sats_per_plane: 12,
                inclination_deg: 97.6,
                unserved_demand: 0.0,
            },
            eval_groups: vec![(satellites[0], 12)],
            planes: vec![SystemPlane { n_sats: 12, eval_idx: 0, satellites: satellites.into() }],
            network_order: vec![0],
        }
    }

    #[test]
    fn one_plane_system_attack_and_survivability() {
        // A 1-plane system under a 1-plane attack is the smallest
        // wipeout: the attack block and the availability-0 outcome must
        // both appear — and with the attack off, the same system's
        // survivability must be intact.
        let mut spec = tiny_spec();
        spec.attack.planes_lost = 1;
        let sys = one_plane_system();
        let cache = KernelCache::default();
        let destroyed = attack_destroyed(&spec, &sys).unwrap();
        assert_eq!(destroyed.len(), 12, "the whole plane is the whole fleet");
        let mut clock = StageClock::default();
        let (report, doses) =
            system_report(&spec, "ss", &sys, &destroyed, &cache, &mut clock).unwrap();
        let attack = report.attack.as_ref().expect("attack ran");
        assert_eq!(attack.planes_lost, 1);
        assert_eq!(attack.sats_lost, 12);
        assert_eq!(attack.capacity_retained, 0.0);
        let surv = report.survivability.as_ref().expect("wipeout outcome present");
        assert_eq!(surv.availability, 0.0);
        assert_eq!(surv.initial_spares, 0);
        assert_eq!(doses.map(|d| d.len()), Some(1));

        spec.attack.planes_lost = 0;
        let (unharmed, _) = system_report(&spec, "ss", &sys, &[], &cache, &mut clock).unwrap();
        assert!(unharmed.attack.is_none());
        let surv = unharmed.survivability.as_ref().unwrap();
        assert!(surv.availability > 0.0);
        assert_eq!(surv.initial_spares, 3, "one plane's per-plane budget");
    }
}
