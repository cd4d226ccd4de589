//! Spare-satellite provisioning policies.
//!
//! §2.1: deployed LSNs keep "2–10 spares per orbital plane" to hot-swap
//! failures. §5(2) argues that lower-radiation constellations can adopt
//! lighter-weight redundancy. This module models the two canonical
//! policies and computes the spare count needed to sustain a target
//! availability given a failure rate and a replenishment cadence.

use crate::error::{LsnError, Result};

/// A spare provisioning policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparePolicy {
    /// `k` hot spares parked in every orbital plane; replacement is fast
    /// (in-plane phasing only).
    PerPlane {
        /// Spares per plane.
        spares_per_plane: usize,
        /// Time to phase a spare into a failed slot \[days\].
        replacement_days: f64,
    },
    /// One shared pool (e.g. a parking orbit + launch-on-demand);
    /// replacement is slow (plane change or new launch).
    SharedPool {
        /// Total spares in the pool.
        pool_size: usize,
        /// Time to deliver a replacement \[days\].
        replacement_days: f64,
    },
}

impl SparePolicy {
    /// Total spare satellites carried by a constellation with `planes`
    /// planes.
    pub fn total_spares(&self, planes: usize) -> usize {
        match *self {
            SparePolicy::PerPlane { spares_per_plane, .. } => spares_per_plane * planes,
            SparePolicy::SharedPool { pool_size, .. } => pool_size,
        }
    }

    /// Replacement latency \[days\].
    pub fn replacement_days(&self) -> f64 {
        match *self {
            SparePolicy::PerPlane { replacement_days, .. }
            | SparePolicy::SharedPool { replacement_days, .. } => replacement_days,
        }
    }
}

/// The live spare inventory of a [`SparePolicy`] during a simulation.
///
/// Replaces the sentinel arithmetic (`isize::MAX` shared-pool marker,
/// `1e18`-clamped per-plane floats) the survivability engine used to
/// carry: each policy's accounting is its own variant, so per-plane and
/// shared-pool draws can't be silently confused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpareBudget {
    /// Per-plane hot spares: one independent counter per plane.
    PerPlane {
        /// The policy's parked budget per plane (the resupply target).
        budget: usize,
        /// Spares currently parked in each plane.
        remaining: Vec<usize>,
    },
    /// One common pool drawn by every plane.
    SharedPool {
        /// The policy's pool size (the resupply target).
        pool_size: usize,
        /// Spares currently in the pool.
        remaining: usize,
    },
}

impl SpareBudget {
    /// The starting inventory of `policy` over `planes` planes.
    pub fn new(policy: &SparePolicy, planes: usize) -> Self {
        match *policy {
            SparePolicy::PerPlane { spares_per_plane, .. } => SpareBudget::PerPlane {
                budget: spares_per_plane,
                remaining: vec![spares_per_plane; planes],
            },
            SparePolicy::SharedPool { pool_size, .. } => {
                SpareBudget::SharedPool { pool_size, remaining: pool_size }
            }
        }
    }

    /// Draws one spare for a failure in `plane`; `false` if the relevant
    /// inventory is exhausted.
    pub fn draw(&mut self, plane: usize) -> bool {
        match self {
            SpareBudget::PerPlane { remaining, .. } => {
                if remaining[plane] > 0 {
                    remaining[plane] -= 1;
                    true
                } else {
                    false
                }
            }
            SpareBudget::SharedPool { remaining, .. } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A resupply epoch triggered by an exhausted `plane`: tops the
    /// relevant inventory back up to the policy's budget (the delivered
    /// replacement for the waiting slot arrives alongside and is not
    /// drawn from the inventory).
    pub fn resupply(&mut self, plane: usize) {
        match self {
            SpareBudget::PerPlane { budget, remaining } => remaining[plane] = *budget,
            SpareBudget::SharedPool { pool_size, remaining } => *remaining = *pool_size,
        }
    }
}

/// Expected failures per plane per resupply period, for sizing spares:
/// with `sats_per_plane` satellites of annual hazard `hazard_per_year`
/// and resupply every `resupply_days`.
pub fn expected_failures_per_plane(
    sats_per_plane: usize,
    hazard_per_year: f64,
    resupply_days: f64,
) -> f64 {
    sats_per_plane as f64 * hazard_per_year * resupply_days / 365.25
}

/// Spares per plane needed so that the probability of exhausting the
/// plane's spares within one resupply period is below `exhaustion_prob`,
/// modeling failures as Poisson. Returns the smallest `k` with
/// `P[N > k] < exhaustion_prob`.
///
/// # Errors
/// Rejects non-positive rates or probabilities outside (0, 1).
pub fn spares_for_availability(expected_failures: f64, exhaustion_prob: f64) -> Result<usize> {
    if expected_failures.is_nan() || expected_failures < 0.0 {
        return Err(LsnError::BadParameter { name: "expected_failures", constraint: ">= 0" });
    }
    if !(0.0 < exhaustion_prob && exhaustion_prob < 1.0) {
        return Err(LsnError::BadParameter { name: "exhaustion_prob", constraint: "in (0, 1)" });
    }
    // Poisson tail: walk the CDF.
    let lambda = expected_failures;
    let mut pmf = (-lambda).exp();
    let mut cdf = pmf;
    let mut k = 0usize;
    while 1.0 - cdf >= exhaustion_prob {
        k += 1;
        pmf *= lambda / k as f64;
        cdf += pmf;
        if k > 100_000 {
            return Err(LsnError::BadParameter {
                name: "expected_failures",
                constraint: "finite (Poisson tail did not converge)",
            });
        }
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_latency() {
        let per_plane = SparePolicy::PerPlane { spares_per_plane: 3, replacement_days: 2.0 };
        assert_eq!(per_plane.total_spares(20), 60);
        assert_eq!(per_plane.replacement_days(), 2.0);
        let pool = SparePolicy::SharedPool { pool_size: 25, replacement_days: 30.0 };
        assert_eq!(pool.total_spares(20), 25);
        assert_eq!(pool.replacement_days(), 30.0);
    }

    #[test]
    fn poisson_spares_reference_values() {
        // λ = 0 needs no spares at any confidence.
        assert_eq!(spares_for_availability(0.0, 0.01).unwrap(), 0);
        // λ = 1: P[N>2] ≈ 0.080, P[N>3] ≈ 0.019, P[N>4] ≈ 0.0037.
        assert_eq!(spares_for_availability(1.0, 0.05).unwrap(), 3);
        assert_eq!(spares_for_availability(1.0, 0.01).unwrap(), 4);
        // Higher failure rates need more spares.
        let lo = spares_for_availability(0.5, 0.01).unwrap();
        let hi = spares_for_availability(5.0, 0.01).unwrap();
        assert!(hi > lo);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(spares_for_availability(f64::NAN, 0.01).is_err());
        assert!(spares_for_availability(1.0, 0.0).is_err());
        assert!(spares_for_availability(1.0, 1.0).is_err());
    }

    #[test]
    fn expected_failures_scaling() {
        let base = expected_failures_per_plane(20, 0.05, 180.0);
        assert!((base - 20.0 * 0.05 * 180.0 / 365.25).abs() < 1e-12);
        assert!(expected_failures_per_plane(40, 0.05, 180.0) > base);
        assert!(expected_failures_per_plane(20, 0.10, 180.0) > base);
    }

    #[test]
    fn per_plane_budget_draws_independently_and_resupplies_one_plane() {
        let policy = SparePolicy::PerPlane { spares_per_plane: 2, replacement_days: 3.0 };
        let mut budget = SpareBudget::new(&policy, 3);
        assert!(budget.draw(0));
        assert!(budget.draw(0));
        assert!(!budget.draw(0), "plane 0 exhausted");
        assert!(budget.draw(1), "plane 1 untouched by plane 0's draws");
        budget.resupply(0);
        assert!(budget.draw(0) && budget.draw(0) && !budget.draw(0), "topped back to 2");
        // Resupplying plane 0 must not touch plane 1's count.
        assert!(budget.draw(1));
        assert!(!budget.draw(1));
    }

    #[test]
    fn shared_pool_resupply_tops_the_pool_back_up() {
        // The regression the survivability bugfix pins: a resupply epoch
        // restores the *whole* pool, not a single spare.
        let policy = SparePolicy::SharedPool { pool_size: 3, replacement_days: 20.0 };
        let mut budget = SpareBudget::new(&policy, 5);
        for _ in 0..3 {
            assert!(budget.draw(4));
        }
        assert!(!budget.draw(0), "pool exhausted");
        budget.resupply(0);
        for k in 0..3 {
            assert!(budget.draw(k), "draw {k} after a full top-up");
        }
        assert!(!budget.draw(0), "exactly pool_size spares delivered");
    }
}
