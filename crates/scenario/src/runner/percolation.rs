//! The percolation stage (`network.percolation`): loss-fraction sweeps
//! and λ₂ over the network stage's prebuilt intact per-slot topologies —
//! pure union-find replay and one seeded λ₂ solve per slot, with no
//! re-propagation and no routing.

use crate::report::{PercolationModelReport, PercolationReport};
use crate::spec::{AttackKind, ScenarioSpec};
use crate::sweep::ATTACK_KINDS;
use ssplane_astro::par;
use ssplane_lsn::optimizer::DegradedEvaluator;
use ssplane_lsn::percolation::{
    algebraic_connectivity_solve, percolation_sweep, plane_spread_ordering, priority_ordering,
    random_ordering, Lambda2Config, Lambda2Solve, PercolationCurve,
};

/// Salt XORed into the scenario seed for the percolation stage's
/// random-loss baseline ordering, so its stream is independent of every
/// other consumer of the scenario seed.
const PERCOLATION_SEED_SALT: u64 = 0x5045_5243_4F4C;

/// Averages per-slot percolation curves point-wise. Every slot sweeps
/// the same ordering over the same satellite count, so the loss and
/// removed axes are identical across slots; only the cluster statistics
/// differ with each slot's geometry-feasible link set.
fn averaged_curve(curves: &[PercolationCurve]) -> PercolationCurve {
    let first = &curves[0];
    let n = curves.len() as f64;
    let avg = |pick: fn(&PercolationCurve) -> &Vec<f64>| -> Vec<f64> {
        (0..first.len()).map(|k| curves.iter().map(|c| pick(c)[k]).sum::<f64>() / n).collect()
    };
    PercolationCurve {
        n_nodes: first.n_nodes,
        loss_fraction: first.loss_fraction.clone(),
        removed: first.removed.clone(),
        giant_fraction: avg(|c| &c.giant_fraction),
        susceptibility: avg(|c| &c.susceptibility),
        mean_finite_cluster: avg(|c| &c.mean_finite_cluster),
    }
}

/// One job's result in [`percolation_report`]'s flat job list.
enum SlotAnalysis {
    /// One slot's algebraic-connectivity solve.
    Lambda2(Lambda2Solve),
    /// One (ordering, slot) percolation sweep.
    Curve(PercolationCurve),
}

/// The percolation block over `evaluator`'s intact per-slot topologies.
///
/// One loss-fraction sweep per attack-registry ordering, slot-averaged:
/// `"leading-planes"` (the plane-spread schedule whose power-of-two
/// prefixes reproduce the strided plane attack), `"random-sats"` (the
/// seeded uniform baseline every targeted ordering's
/// `threshold_vs_random` is measured against), and — when the scenario's
/// attack destroyed anything — `"attack"`, the destroyed set (`victims`,
/// flat indices) leading the plane-spread schedule.
///
/// Every slot's λ₂ and every (ordering, slot) sweep is one job of a
/// single [`par::par_map`] over `point_threads` workers; the sums and
/// averages reduce the results by index, in the serial order.
///
/// Also returns the λ₂ solves' Laplacian applications summed over the
/// slots ([`Lambda2Solve::products`]): a work counter for the timing
/// side channel, identical at every thread count.
pub(super) fn percolation_report(
    spec: &ScenarioSpec,
    evaluator: &DegradedEvaluator<'_>,
    victims: &[usize],
    point_threads: usize,
) -> (PercolationReport, usize) {
    let (steps, gap) = (spec.network.percolation_steps, spec.network.percolation_gap);
    let slots = evaluator.intact().len();
    let spread = plane_spread_ordering(evaluator.intact_topology(0));
    let random = random_ordering(evaluator.n_sats(), spec.seed ^ PERCOLATION_SEED_SALT);
    let random_name = ATTACK_KINDS.name(AttackKind::RandomSats);
    let mut orderings: Vec<(&str, Vec<usize>)> =
        vec![(ATTACK_KINDS.name(AttackKind::LeadingPlanes), spread.clone()), (random_name, random)];
    if !victims.is_empty() {
        orderings.push(("attack", priority_ordering(victims, &spread)));
    }

    // Job `(None, k)` is slot k's λ₂, `(Some(o), k)` ordering o's sweep
    // over slot k. The λ₂ jobs, the longest, go first.
    let jobs: Vec<(Option<usize>, usize)> = (0..slots)
        .map(|k| (None, k))
        .chain((0..orderings.len()).flat_map(|o| (0..slots).map(move |k| (Some(o), k))))
        .collect();
    let mut done = par::par_map(jobs, point_threads, |(ordering, k)| {
        let topology = evaluator.intact_topology(k);
        match ordering {
            None => SlotAnalysis::Lambda2(algebraic_connectivity_solve(
                topology,
                evaluator.all_alive(),
                &Lambda2Config::default(),
            )),
            Some(o) => SlotAnalysis::Curve(percolation_sweep(topology, &orderings[o].1, steps)),
        }
    })
    .into_iter();
    let lambda2: Vec<Lambda2Solve> = done
        .by_ref()
        .take(slots)
        .map(|job| match job {
            SlotAnalysis::Lambda2(solve) => solve,
            SlotAnalysis::Curve(_) => unreachable!("λ₂ jobs come first"),
        })
        .collect();
    let curves: Vec<(&str, PercolationCurve)> = orderings
        .iter()
        .map(|(name, _)| {
            let per_slot: Vec<PercolationCurve> = done
                .by_ref()
                .take(slots)
                .map(|job| match job {
                    SlotAnalysis::Curve(curve) => curve,
                    SlotAnalysis::Lambda2(_) => unreachable!("sweeps follow the λ₂ jobs"),
                })
                .collect();
            (*name, averaged_curve(&per_slot))
        })
        .collect();
    let random_curve =
        &curves.iter().find(|(name, _)| *name == random_name).expect("baseline swept").1;

    let models = curves
        .iter()
        .map(|(name, curve)| {
            let (chi_peak_loss, chi_peak) = curve.chi_peak();
            PercolationModelReport {
                model: (*name).to_string(),
                masking_threshold: curve.masking_threshold(gap),
                threshold_vs_random: (*name != random_name)
                    .then(|| curve.threshold_vs(random_curve, gap))
                    .flatten(),
                chi_peak_loss,
                chi_peak,
                mean_giant: curve.mean_giant(),
                giant_curve: curve.giant_fraction.clone(),
            }
        })
        .collect();

    let report = PercolationReport {
        steps,
        gap,
        slots,
        lambda2_intact: lambda2.iter().map(|l2| l2.value).sum::<f64>() / slots as f64,
        lambda2_residual: lambda2.iter().map(|l2| l2.residual).fold(0.0, f64::max),
        lambda2_converged: lambda2.iter().all(|l2| l2.converged),
        loss_fraction: random_curve.loss_fraction.clone(),
        models,
    };
    (report, lambda2.iter().map(|l2| l2.products).sum())
}
