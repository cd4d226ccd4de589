//! Radiation-driven satellite failure model.
//!
//! §3.2 of the paper posits trapped-particle radiation as a persistent
//! driver of satellite failures, which is why constellations carry
//! in-orbit spares. This module turns accumulated fluence into a failure
//! process: each satellite's hazard rate is a baseline (non-radiation
//! causes) plus a term proportional to its daily dose, and
//! [`RadiationExponential`](crate::disruption::RadiationExponential)
//! samples failure times from the resulting exponential lifetime.

use ssplane_radiation::fluence::DailyFluence;

/// Failure-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Baseline hazard \[failures per satellite-year\] from non-radiation
    /// causes (deployment defects, debris, reaction-wheel wear, ...).
    pub baseline_per_year: f64,
    /// Hazard per unit electron daily fluence \[failures per year per
    /// (#/cm²/MeV/day)\]. Electronics upsets and deep-dielectric charging
    /// scale with the electron environment.
    pub electron_coeff: f64,
    /// Hazard per unit proton daily fluence (displacement damage).
    pub proton_coeff: f64,
}

impl Default for FailureModel {
    fn default() -> Self {
        // Calibrated so a Starlink-like 560 km / 53° satellite sees a few
        // percent annual failure probability, dominated by the radiation
        // term at moderate inclinations (consistent with the paper's
        // "2-10 spares per plane" practice).
        FailureModel { baseline_per_year: 0.01, electron_coeff: 1.2e-12, proton_coeff: 1.0e-9 }
    }
}

impl FailureModel {
    /// Annual hazard rate \[1/year\] for a satellite with the given daily
    /// fluence.
    pub fn hazard_per_year(&self, dose: DailyFluence) -> f64 {
        self.baseline_per_year
            + self.electron_coeff * dose.electron
            + self.proton_coeff * dose.proton
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disruption::{FailureProcess, RadiationExponential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dose(e: f64, p: f64) -> DailyFluence {
        DailyFluence { electron: e, proton: p }
    }

    #[test]
    fn hazard_increases_with_dose() {
        let m = FailureModel::default();
        let low = m.hazard_per_year(dose(5e9, 1e7));
        let high = m.hazard_per_year(dose(4e10, 3e7));
        assert!(high > low);
        assert!(low > m.baseline_per_year);
        // Calibration: moderate-inclination LEO dose → a few %/year.
        let typical = m.hazard_per_year(dose(3e10, 2.3e7));
        assert!((0.02..0.25).contains(&typical), "hazard = {typical}/yr");
    }

    /// `n` lifetimes \[years\] of a validated exponential process, drawn
    /// from one seeded stream as the renewal engine draws them.
    fn sample_years(model: FailureModel, d: DailyFluence, n: usize, seed: u64) -> Vec<f64> {
        let process = RadiationExponential { model };
        process.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| process.sample_lifetime_days(d, &mut rng) / 365.25).collect()
    }

    #[test]
    fn fleet_sampling_deterministic_and_mean_near_mttf() {
        let m = FailureModel::default();
        let d = dose(2e10, 2e7);
        let a = sample_years(m, d, 4000, 11);
        assert_eq!(a, sample_years(m, d, 4000, 11));
        let mean: f64 = a.iter().sum::<f64>() / a.len() as f64;
        let mttf = 1.0 / m.hazard_per_year(d);
        assert!((mean - mttf).abs() / mttf < 0.1, "mean {mean} vs mttf {mttf}");
        // Different seed -> different sample.
        assert_ne!(sample_years(m, d, 4000, 12), a);
    }

    #[test]
    fn mttf_and_probability_consistent() {
        // Sampled lifetimes are exponential: at t = MTTF = 1/hazard the
        // failure probability is 1 - 1/e.
        let m = FailureModel::default();
        let d = dose(1e10, 2e7);
        let lifetimes = sample_years(m, d, 20_000, 3);
        let mttf = 1.0 / m.hazard_per_year(d);
        let failed = lifetimes.iter().filter(|&&t| t <= mttf).count() as f64;
        let p = failed / lifetimes.len() as f64;
        assert!((p - (1.0 - core::f64::consts::E.recip())).abs() < 0.02, "P(T <= MTTF) = {p}");
        assert!(lifetimes.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn zero_model_rejected() {
        let zero = FailureModel { baseline_per_year: 0.0, electron_coeff: 0.0, proton_coeff: 0.0 };
        assert!(RadiationExponential { model: zero }.validate().is_err());
        let negative = FailureModel { proton_coeff: -1e-9, ..FailureModel::default() };
        assert!(RadiationExponential { model: negative }.validate().is_err());
    }

    #[test]
    fn lower_radiation_means_longer_life() {
        // The paper's survivability argument in one assert: an SS-dose
        // satellite outlives a 65°-dose satellite on average.
        let m = FailureModel::default();
        let sso = m.hazard_per_year(dose(3.4e10, 2.1e7));
        let walker65 = m.hazard_per_year(dose(4.1e10, 2.3e7));
        assert!(sso < walker65, "a lower hazard is a longer mean lifetime");
    }
}
