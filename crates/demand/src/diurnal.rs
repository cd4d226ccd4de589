//! Diurnal (time-of-day) traffic seasonality.
//!
//! A generative stand-in for the CESNET-TimeSeries24 dataset (the paper's
//! ref. \[17\]): 283 sites of throughput telemetry whose median-normalized
//! load exhibits a strong waking/sleeping cycle. The model reproduces the
//! two curves the paper plots in Fig. 4 — the median and the 95th
//! percentile of load (as % of each site's median) grouped by local time
//! of day — and exposes the normalized diurnal weight used by the demand
//! grid of Fig. 8.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Smooth analytic diurnal shape in log-load space.
///
/// Two harmonics: the fundamental (waking/sleeping) plus a second harmonic
/// that flattens the working-hours plateau and deepens the pre-dawn
/// trough, matching access-network telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalModel {
    /// Amplitude of the 24 h harmonic (log space).
    pub a1: f64,
    /// Hour of the fundamental's peak.
    pub peak_hour: f64,
    /// Amplitude of the 12 h harmonic (log space).
    pub a2: f64,
    /// Phase hour of the second harmonic.
    pub second_peak_hour: f64,
}

impl Default for DiurnalModel {
    fn default() -> Self {
        // Calibrated to Fig. 4: median curve swings ~39% → ~258% of site
        // median with the trough near 03:30 and the peak near 16:00 local.
        DiurnalModel { a1: 0.92, peak_hour: 15.0, a2: 0.12, second_peak_hour: 18.0 }
    }
}

impl DiurnalModel {
    /// Log-space load shape at `hour` (unnormalized).
    fn log_shape(&self, hour: f64) -> f64 {
        use core::f64::consts::TAU;
        self.a1 * (TAU * (hour - self.peak_hour) / 24.0).cos()
            + self.a2 * (2.0 * TAU * (hour - self.second_peak_hour) / 24.0).cos()
    }

    /// Load relative to the *daily median* at local `hour` (1.0 = median).
    ///
    /// This is the noise-free median curve of Fig. 4 divided by 100%. The
    /// figure simulates noisy sites instead; the calibration tests and
    /// proptests pin the model's shape through this curve.
    pub fn relative_load(&self, hour: f64) -> f64 {
        (self.log_shape(hour) - self.median_log_shape()).exp()
    }

    /// The median curve of Fig. 4: % of site median at local `hour` (a
    /// test reference, like [`Self::relative_load`]).
    pub fn median_percent(&self, hour: f64) -> f64 {
        100.0 * self.relative_load(hour)
    }

    /// Normalized diurnal weight in `(0, 1]` (1.0 at the daily peak) —
    /// the factor the demand grid multiplies population density by.
    pub fn weight(&self, hour: f64) -> f64 {
        (self.log_shape(hour) - self.peak_log_shape()).exp()
    }

    /// Hour (to one-minute resolution) of the daily peak.
    fn argmax_hour(&self) -> f64 {
        let mut best = (f64::NEG_INFINITY, 0.0);
        for k in 0..(24 * 60) {
            let h = k as f64 / 60.0;
            let v = self.log_shape(h);
            if v > best.0 {
                best = (v, h);
            }
        }
        best.1
    }

    fn peak_log_shape(&self) -> f64 {
        // The peak is a pure function of the model parameters but costs a
        // 1440-point scan plus refinement, and weight() sits in hot loops
        // (demand-grid builds, flow rejection sampling) — so memoize the
        // last model's peak per thread. The one-slot cache hits ~always:
        // callers overwhelmingly use a single model per run.
        use std::cell::Cell;
        thread_local! {
            static LAST: Cell<Option<(DiurnalModel, f64)>> = const { Cell::new(None) };
        }
        LAST.with(|slot| {
            if let Some((model, peak)) = slot.get() {
                if model == *self {
                    return peak;
                }
            }
            let peak = self.compute_peak_log_shape();
            slot.set(Some((*self, peak)));
            peak
        })
    }

    fn compute_peak_log_shape(&self) -> f64 {
        // The minute grid brackets the global peak but does not hit it
        // exactly, and weight() must stay ≤ 1 for *every* hour, not just
        // grid hours; refine within the bracket (the shape is smooth and
        // locally unimodal there) before reading off the maximum.
        let h0 = self.argmax_hour();
        let (mut lo, mut hi) = (h0 - 1.0 / 60.0, h0 + 1.0 / 60.0);
        for _ in 0..64 {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            if self.log_shape(m1) < self.log_shape(m2) {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        self.log_shape(0.5 * (lo + hi))
    }

    fn median_log_shape(&self) -> f64 {
        let mut vals: Vec<f64> = (0..(24 * 12)).map(|k| self.log_shape(k as f64 / 12.0)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        vals[vals.len() / 2]
    }
}

/// Percentile curves of median-normalized load grouped by time of day —
/// the reproduction of Fig. 4.
#[derive(Debug, Clone)]
pub struct DiurnalStats {
    /// Bin center hours (length = `bins`).
    pub hours: Vec<f64>,
    /// Median of load (% of each site's median) per hour bin.
    pub median_percent: Vec<f64>,
    /// 95th percentile per hour bin.
    pub p95_percent: Vec<f64>,
}

/// Configuration for the synthetic multi-site telemetry generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSimConfig {
    /// Number of sites (the paper's dataset has 283).
    pub n_sites: usize,
    /// Days of hourly telemetry per site (the paper uses a year).
    pub n_days: usize,
    /// Hour bins for the output curves.
    pub bins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SiteSimConfig {
    fn default() -> Self {
        SiteSimConfig { n_sites: 283, n_days: 365, bins: 24, seed: 7 }
    }
}

/// Standard normal sample via Box–Muller (keeps the dependency surface to
/// `rand` alone).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Simulates `n_sites` of hourly throughput telemetry and returns the
/// Fig. 4 percentile curves.
///
/// Each site gets heterogeneous scale (lognormal), diurnal amplitude,
/// phase (timezone/behaviour jitter), weekday/weekend modulation, and
/// heavy-tailed per-sample noise; every sample is normalized by its own
/// site's median before aggregation, exactly as the paper describes.
pub fn simulate_sites(model: &DiurnalModel, config: SiteSimConfig) -> DiurnalStats {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let bins = config.bins.max(1);
    // per-bin collection of normalized samples
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); bins];

    for _ in 0..config.n_sites {
        let scale = (1.5 * normal(&mut rng)).exp(); // site size heterogeneity
        let amp = (0.25 * normal(&mut rng)).exp(); // diurnal amplitude heterogeneity
        let phase = 0.8 * normal(&mut rng); // behavioural phase jitter [h]
        let noise_sigma = 0.5 + rng.gen::<f64>(); // per-site tail heaviness
        let weekend_drop = 0.3 + 0.4 * rng.gen::<f64>(); // weekend load factor

        let mut site_values = Vec::with_capacity(config.n_days * 24);
        for day in 0..config.n_days {
            let weekday = day % 7 < 5;
            let day_factor = if weekday { 1.0 } else { weekend_drop };
            for hour in 0..24 {
                let h = hour as f64 + 0.5;
                let log_v = amp * model.log_shape(h + phase)
                    + noise_sigma * normal(&mut rng)
                    + day_factor.ln();
                site_values.push((hour, scale * log_v.exp()));
            }
        }
        // Normalize by the site median.
        let mut sorted: Vec<f64> = site_values.iter().map(|&(_, v)| v).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let site_median = sorted[sorted.len() / 2].max(1e-30);
        for (hour, v) in site_values {
            let bin = hour * bins / 24;
            samples[bin].push(v / site_median * 100.0);
        }
    }

    let percentile = |v: &mut Vec<f64>, p: f64| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
        v[idx]
    };

    let mut median_percent = Vec::with_capacity(bins);
    let mut p95_percent = Vec::with_capacity(bins);
    let mut hours = Vec::with_capacity(bins);
    for (b, bucket) in samples.iter_mut().enumerate() {
        hours.push(24.0 * (b as f64 + 0.5) / bins as f64);
        median_percent.push(percentile(bucket, 0.5));
        p95_percent.push(percentile(bucket, 0.95));
    }
    DiurnalStats { hours, median_percent, p95_percent }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_curve_fig4_calibration() {
        let m = DiurnalModel::default();
        // Trough in the pre-dawn hours, well below the median.
        let trough = (0..24).map(|h| m.median_percent(h as f64)).fold(f64::INFINITY, f64::min);
        assert!(trough > 20.0 && trough < 70.0, "trough = {trough}%");
        // Peak in the afternoon/evening, ~2-3x the median.
        let peak = (0..24).map(|h| m.median_percent(h as f64)).fold(0.0, f64::max);
        assert!(peak > 180.0 && peak < 400.0, "peak = {peak}%");
        // Trough hour is at night, peak in waking hours.
        let argmax = m.argmax_hour();
        assert!((12.0..23.0).contains(&argmax), "peak hour = {argmax}");
    }

    #[test]
    fn weight_normalized_to_unit_peak() {
        let m = DiurnalModel::default();
        let max = (0..24 * 60).map(|k| m.weight(k as f64 / 60.0)).fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-6, "max weight = {max}");
        for h in 0..24 {
            let w = m.weight(h as f64);
            assert!(w > 0.0 && w <= 1.0 + 1e-12);
        }
        // Night-to-peak ratio ~ 1:6-1:12 (cf. Fig. 8's dark band at night).
        let night = m.weight(4.0);
        assert!(night < 0.2, "night weight = {night}");
    }

    #[test]
    fn weight_is_24h_periodic() {
        let m = DiurnalModel::default();
        for h in [0.0, 3.7, 12.0, 23.9] {
            assert!((m.weight(h) - m.weight(h + 24.0)).abs() < 1e-12);
            assert!((m.weight(h) - m.weight(h - 24.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn simulated_percentiles_match_fig4_shape() {
        let stats = simulate_sites(
            &DiurnalModel::default(),
            SiteSimConfig { n_sites: 60, n_days: 60, bins: 24, seed: 7 },
        );
        assert_eq!(stats.hours.len(), 24);
        // Median curve straddles 100% (it is % of site median).
        let med_min = stats.median_percent.iter().cloned().fold(f64::INFINITY, f64::min);
        let med_max = stats.median_percent.iter().cloned().fold(0.0, f64::max);
        assert!(med_min < 100.0 && med_max > 100.0, "median range [{med_min}, {med_max}]");
        // p95 well above the median everywhere (heavy-tailed sites), and in
        // the Fig. 4 range (several 100% to ~10000%).
        for (m, p) in stats.median_percent.iter().zip(&stats.p95_percent) {
            assert!(p > m, "p95 {p} <= median {m}");
        }
        let p95_max = stats.p95_percent.iter().cloned().fold(0.0, f64::max);
        assert!(p95_max > 500.0 && p95_max < 50_000.0, "p95 peak = {p95_max}");
        // Diurnal structure survives aggregation: daytime median > night median.
        let day = stats.median_percent[15];
        let night = stats.median_percent[4];
        assert!(day > 2.0 * night, "day {day} vs night {night}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = SiteSimConfig { n_sites: 10, n_days: 10, bins: 24, seed: 3 };
        let a = simulate_sites(&DiurnalModel::default(), cfg);
        let b = simulate_sites(&DiurnalModel::default(), cfg);
        assert_eq!(a.median_percent, b.median_percent);
        assert_eq!(a.p95_percent, b.p95_percent);
    }

    #[test]
    fn relative_load_median_is_one() {
        // The median over a day of relative_load must be ~1 by construction.
        let m = DiurnalModel::default();
        let mut v: Vec<f64> = (0..24 * 12).map(|k| m.relative_load(k as f64 / 12.0)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = v[v.len() / 2];
        assert!((med - 1.0).abs() < 0.02, "median relative load = {med}");
    }
}
