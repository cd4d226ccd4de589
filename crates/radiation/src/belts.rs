//! Parametric Van Allen belt flux profiles.
//!
//! Each trapped population is a Gaussian profile in L (where the belt
//! lives) combined with a mirror-point distribution factor in the local
//! field strength `B`:
//!
//! ```text
//! flux(L, B) = J_eq(L) · [ (B_c(L) − B) / (B_c(L) − B_eq(L)) ]^p
//! ```
//!
//! where `B_eq(L)` is the shell's equatorial field and `B_c(L)` the
//! *atmospheric cutoff* — the field at which the shell's field line
//! reaches ~100 km altitude, below which mirror points sit in the
//! atmosphere and particles are lost. Flux therefore vanishes as the local
//! field approaches the cutoff and is maximal where the field is weakest
//! on the shell.
//!
//! This is the mechanism that makes the **South Atlantic Anomaly** the
//! only low-latitude place where the inner belt touches LEO: the offset
//! dipole makes `B` anomalously low there, so `(B_c − B)` is large while
//! everywhere else at the same altitude the local field sits near the
//! cutoff. The same formula puts the outer-electron "horns" at 55–70°
//! magnetic latitude. IRENE/AE9/AP9 refine exactly this picture with
//! empirical maps; the paper's figures depend only on the structure
//! reproduced here.

use crate::lshell::MagneticCoords;
use ssplane_astro::constants::EARTH_RADIUS_KM;

/// Altitude \[km\] of the atmospheric loss boundary.
const LOSS_ALTITUDE_KM: f64 = 100.0;

/// One trapped-particle population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeltComponent {
    /// L-shell of the belt's flux peak.
    pub peak_l: f64,
    /// Gaussian width of the belt in L.
    pub sigma_l: f64,
    /// Omnidirectional flux at the belt peak, magnetic equator
    /// \[#/cm²/s/MeV\].
    pub equatorial_flux: f64,
    /// Exponent `p` of the mirror-point distribution: larger = flux more
    /// tightly confined near the shell's weak-field region.
    pub mirror_exponent: f64,
}

/// Atmospheric-cutoff field \[T\] on shell `l`, for a dipole with surface
/// equatorial field `b0`: the dipole field where the line crosses the loss
/// altitude, `B_c = b0 · √(4 − 3·rₐ/L) / rₐ³` with `rₐ` the loss radius in
/// Earth radii. For shells entirely below the loss altitude, returns the
/// equatorial field (flux will be zero).
fn cutoff_field(b0: f64, l: f64) -> f64 {
    let r_a = 1.0 + LOSS_ALTITUDE_KM / EARTH_RADIUS_KM;
    if l <= r_a {
        return b0 / l.powi(3);
    }
    let ratio = r_a / l;
    b0 * (4.0 - 3.0 * ratio).sqrt() / (r_a * r_a * r_a)
}

impl BeltComponent {
    /// Flux \[#/cm²/s/MeV\] of this component at the given magnetic
    /// coordinates (before solar-activity scaling).
    pub fn flux(&self, coords: &MagneticCoords) -> f64 {
        let dl = (coords.l_shell - self.peak_l) / self.sigma_l;
        if dl.abs() > 6.0 {
            return 0.0;
        }
        let shell_profile = (-0.5 * dl * dl).exp();

        // Reconstruct the dipole surface field from the shell's equatorial
        // field (B_eq = b0 / L³).
        let b0 = coords.b_equatorial * coords.l_shell.powi(3);
        let b_c = cutoff_field(b0, coords.l_shell);
        let denom = b_c - coords.b_equatorial;
        if denom <= 0.0 {
            return 0.0;
        }
        let x = ((b_c - coords.b_local) / denom).clamp(0.0, 1.0);
        self.equatorial_flux * shell_profile * x.powf(self.mirror_exponent)
    }
}

/// The complete trapped-particle belt system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeltModel {
    /// Inner-belt protons (tens-of-MeV population; SAA hazard).
    pub inner_protons: BeltComponent,
    /// Inner-belt electrons (SAA hazard).
    pub inner_electrons: BeltComponent,
    /// Outer-belt electrons (high-latitude horn hazard).
    pub outer_electrons: BeltComponent,
}

impl Default for BeltModel {
    fn default() -> Self {
        // Amplitudes calibrated so 560 km daily fluences land in the
        // decades of the paper's Fig. 7 (electrons ~10⁹–10¹⁰, protons
        // ~10⁷ #/cm²/MeV/day); structure parameters from standard belt
        // climatology. `fig7_inclination_worst_case` in the workspace's
        // `tests/figures.rs` holds the electron peak and the proton
        // fluences to those decades.
        BeltModel {
            inner_protons: BeltComponent {
                peak_l: 1.45,
                sigma_l: 0.25,
                equatorial_flux: 8.0e3,
                mirror_exponent: 5.0,
            },
            inner_electrons: BeltComponent {
                peak_l: 1.7,
                sigma_l: 0.45,
                equatorial_flux: 1.8e6,
                mirror_exponent: 6.0,
            },
            outer_electrons: BeltComponent {
                peak_l: 4.2,
                sigma_l: 1.1,
                equatorial_flux: 3.0e6,
                mirror_exponent: 1.2,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dipole::B0_SURFACE_T;

    /// Total electron flux: the inner plus the outer population.
    fn electron_flux(m: &BeltModel, c: &MagneticCoords) -> f64 {
        m.inner_electrons.flux(c) + m.outer_electrons.flux(c)
    }

    fn coords(l: f64, b_over_b0: f64) -> MagneticCoords {
        let b_equatorial = B0_SURFACE_T / l.powi(3);
        MagneticCoords {
            l_shell: l,
            b_local: b_equatorial * b_over_b0,
            b_equatorial,
            magnetic_latitude: 0.0,
        }
    }

    #[test]
    fn peak_flux_at_peak_l_equator() {
        let m = BeltModel::default();
        let peak_l = m.outer_electrons.peak_l;
        let at_peak = m.outer_electrons.flux(&coords(peak_l, 1.0));
        assert!((at_peak - m.outer_electrons.equatorial_flux).abs() < 1e-6);
        // Off-peak in L decays.
        assert!(m.outer_electrons.flux(&coords(peak_l - 1.5, 1.0)) < at_peak);
        assert!(m.outer_electrons.flux(&coords(peak_l + 1.5, 1.0)) < at_peak);
        // Far tail is cut to zero.
        assert_eq!(m.outer_electrons.flux(&coords(20.0, 1.0)), 0.0);
    }

    #[test]
    fn flux_vanishes_at_cutoff() {
        let m = BeltModel::default();
        let l = 1.45;
        let b_c = cutoff_field(B0_SURFACE_T, l);
        let b_eq = B0_SURFACE_T / l.powi(3);
        // Exactly at the cutoff field, flux = 0.
        let at_cutoff = m.inner_protons.flux(&MagneticCoords {
            l_shell: l,
            b_local: b_c,
            b_equatorial: b_eq,
            magnetic_latitude: 0.0,
        });
        assert_eq!(at_cutoff, 0.0);
        // Just below the cutoff, small but positive.
        let near = m.inner_protons.flux(&MagneticCoords {
            l_shell: l,
            b_local: 0.99 * b_c,
            b_equatorial: b_eq,
            magnetic_latitude: 0.0,
        });
        assert!(near > 0.0 && near < 0.01 * m.inner_protons.equatorial_flux);
    }

    #[test]
    fn flux_decreases_with_local_field() {
        let m = BeltModel::default();
        let mut prev = f64::INFINITY;
        for b_ratio in [1.0, 1.5, 2.0, 3.0] {
            let f = electron_flux(&m, &coords(1.6, b_ratio));
            assert!(f <= prev, "flux must fall as B grows");
            prev = f;
        }
    }

    #[test]
    fn cutoff_field_sane() {
        // For high shells the cutoff approaches √4·b0/rₐ³ ≈ 1.9·b0; at
        // L = 6 the line crosses the loss sphere at cos²λ = rₐ/6, giving
        // ~1.78·b0.
        let hi = cutoff_field(B0_SURFACE_T, 6.0);
        assert!((hi / B0_SURFACE_T - 1.78).abs() < 0.1, "hi/b0 = {}", hi / B0_SURFACE_T);
        // Cutoff exceeds the equatorial field for all L > rₐ.
        for l in [1.1, 1.5, 2.0, 5.0] {
            assert!(cutoff_field(B0_SURFACE_T, l) > B0_SURFACE_T / l.powi(3));
        }
        // Degenerate shell below the loss altitude.
        let low = cutoff_field(B0_SURFACE_T, 1.0);
        assert_eq!(low, B0_SURFACE_T);
    }

    #[test]
    fn species_separation() {
        let m = BeltModel::default();
        // Protons live only in the inner zone.
        assert_eq!(m.inner_protons.flux(&coords(4.9, 1.0)), 0.0);
        assert!(m.inner_protons.flux(&coords(1.45, 1.0)) > 0.0);
        // Electrons exist in both zones.
        assert!(electron_flux(&m, &coords(1.6, 1.0)) > 0.0);
        assert!(electron_flux(&m, &coords(4.9, 1.0)) > 0.0);
    }
}
