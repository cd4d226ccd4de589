//! The pluggable design/evaluation API: every constellation family the
//! pipeline can evaluate is a [`Designer`] producing a [`DesignedSystem`].
//!
//! The paper's argument is a head-to-head comparison of constellation
//! *designs*; the scenario engine therefore runs one generic per-system
//! pipeline (design → attack → fluence → survivability → network) over
//! whatever set of designers a scenario selects. A `DesignedSystem`
//! carries exactly what those downstream stages need:
//!
//! * a **design summary** (the satellite/plane/shell counts a report
//!   prints),
//! * the **fluence-evaluation groups** — `(representative elements,
//!   satellites)` per group, the Fig. 10 sampling unit (one per SS plane,
//!   one per Walker shell, one per RGT track),
//! * the **plane structure** — the unit plane-loss attacks and per-plane
//!   spare budgets act on, each plane tagged with the evaluation group
//!   its radiation dose comes from,
//! * the **satellite geometry** per plane, so the networking stage can
//!   build ISL topologies for any system, not just the SS design. Each
//!   plane keeps what generates its satellites (the SS plane's orbit, the
//!   Walker shell's pattern and plane index, the RGT track and arc) and
//!   expands the element list on first read ([`PlaneSatellites`]): the
//!   Fig. 9/10 sweep never reads it, and builds none.
//!
//! Five designers ship: [`SsDesigner`] (§4.2 greedy cover),
//! [`WalkerDesigner`] (the demand-aware multi-shell baseline),
//! [`RgtDesigner`] (the §2.2 negative result as a design point),
//! [`SlimDesigner`] (plane-slimmed Walker variants per "Your
//! Mega-Constellations Can Be Slim"), and [`StarlinkDesigner`] (the
//! deployed Starlink Gen1 shell catalog). [`DESIGNER_REGISTRY`] is the
//! canonical name/order list consumers resolve against.

use crate::cache::KernelCache;
use crate::designer::{design_ss_constellation_in, DesignConfig};
use crate::error::{CoreError, Result};
use crate::rgt_analysis::{design_rgt_constellation, RgtConstellation, RgtDesignConfig};
use crate::walker_baseline::{design_walker_constellation, WalkerBaselineConfig, WalkerShell};
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::sunsync::SunSyncOrbit;
use ssplane_astro::time::Epoch;
use ssplane_astro::walker::WalkerDelta;
use ssplane_astro::AstroError;
use ssplane_demand::grid::LatTodGrid;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The canonical designer registry: `(name, one-line summary)` in the
/// fixed order systems execute and serialize in. Report bytes depend on
/// this order, so new families append — they never reorder the existing
/// names.
pub const DESIGNER_REGISTRY: &[(&str, &str)] = &[
    ("ss", "sun-synchronous SS-plane greedy cover (the paper's design)"),
    ("wd", "demand-aware multi-shell Walker baseline"),
    ("rgt", "demand-driven repeat-ground-track design"),
    ("slim", "plane-slimmed Walker variant (reduced planes per shell)"),
    ("starlink", "deployed Starlink Gen1 shell catalog"),
];

/// Inputs shared by every designer besides the demand grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignParams {
    /// The epoch satellite geometry and evaluation elements are generated
    /// at (the scenario's radiation epoch, so fluence evaluation and
    /// networking see one consistent sky).
    pub epoch: Epoch,
}

/// One orbital plane (or plane-like group) of a designed system.
#[derive(Debug, Clone)]
pub struct SystemPlane {
    /// Satellites in the plane.
    pub n_sats: usize,
    /// Index into [`DesignedSystem::eval_groups`] this plane's radiation
    /// dose comes from (its own group for SS planes; the owning shell for
    /// Walker; the single track group for RGT).
    pub eval_idx: usize,
    /// Orbital elements of the plane's satellites at the design epoch.
    pub satellites: PlaneSatellites,
}

/// One plane's satellite elements, expanded from the plane's geometry on
/// first read (once, however many threads read it first) and kept.
/// `len` and `is_empty` answer from the count; [`Deref`] and
/// [`PlaneSatellites::as_slice`] expand. The designers make every check
/// the expansion rests on, so expanding cannot fail.
#[derive(Debug, Clone)]
pub struct PlaneSatellites {
    len: usize,
    geometry: PlaneGeometry,
    elements: OnceLock<Vec<OrbitalElements>>,
}

/// What a plane's satellites are generated from.
#[derive(Debug, Clone)]
enum PlaneGeometry {
    /// Given whole by [`From`], which sets `elements`.
    Given,
    /// A sun-synchronous plane at the design epoch.
    SunSync(SunSyncOrbit, Epoch),
    /// One plane (by index) of a Walker-delta shell.
    Walker(WalkerDelta, usize),
    /// One track-arc group (by index) of an RGT design.
    Track(Arc<RgtConstellation>, usize),
}

impl SystemPlane {
    fn lazy(n_sats: usize, eval_idx: usize, geometry: PlaneGeometry) -> Self {
        let satellites = PlaneSatellites { len: n_sats, geometry, elements: OnceLock::new() };
        Self { n_sats, eval_idx, satellites }
    }
}

impl PlaneSatellites {
    /// Satellites in the plane (expands nothing).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plane has no satellites (expands nothing).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements, expanded on the first read.
    pub fn as_slice(&self) -> &[OrbitalElements] {
        self.elements.get_or_init(|| {
            match &self.geometry {
                PlaneGeometry::Given => Ok(Vec::new()),
                PlaneGeometry::SunSync(orbit, epoch) => {
                    orbit.plane_elements(*epoch, self.len).map_err(CoreError::from)
                }
                PlaneGeometry::Walker(pattern, plane) => {
                    pattern.plane_elements(*plane).map_err(CoreError::from)
                }
                PlaneGeometry::Track(rgt, arc) => rgt.arc(*arc),
            }
            .expect(
                "the designer checked the plane: SS n_sats > 0, WalkerDelta::new, and \
                 OrbitalElements::circular at its altitude and inclination",
            )
        })
    }
}

impl From<Vec<OrbitalElements>> for PlaneSatellites {
    fn from(elements: Vec<OrbitalElements>) -> Self {
        Self { len: elements.len(), geometry: PlaneGeometry::Given, elements: elements.into() }
    }
}

impl Deref for PlaneSatellites {
    type Target = [OrbitalElements];

    fn deref(&self) -> &[OrbitalElements] {
        self.as_slice()
    }
}

/// The design-stage outcome a report prints, computed by the designer so
/// each family controls its own accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignSummary {
    /// Total satellites.
    pub sats: usize,
    /// Orbital planes (for Walker: summed across shells).
    pub planes: usize,
    /// Evaluation shells (SS: one per plane; Walker: stacked shells; RGT:
    /// one track).
    pub shells: usize,
    /// Satellites per plane (family-specific: SS street-of-coverage
    /// sizing, Walker constellation mean, RGT arc size).
    pub sats_per_plane: usize,
    /// Representative inclination \[deg\] (SS: the common inclination;
    /// Walker: satellite-weighted mean; RGT: the track inclination).
    pub inclination_deg: f64,
    /// Demand the design could not serve (capacity units).
    pub unserved_demand: f64,
}

/// Everything downstream stages need from one designed system.
#[derive(Debug, Clone)]
pub struct DesignedSystem {
    /// The design summary.
    pub summary: DesignSummary,
    /// `(representative elements, satellites)` per fluence-evaluation
    /// group — the exact Fig. 10 grouping, for numerical parity with the
    /// figure pipeline.
    pub eval_groups: Vec<(OrbitalElements, usize)>,
    /// The real orbital planes, in design order (the order attacks and
    /// spare budgets index).
    pub planes: Vec<SystemPlane>,
    /// Permutation of `planes` for ISL-topology construction (SS planes
    /// sort by LTAN so the +grid links neighbouring local times; Walker
    /// and RGT use design order).
    pub network_order: Vec<usize>,
}

/// Shell-level metadata of a designed system: one entry per
/// fluence-evaluation group, in group order. For a multi-shell catalog
/// (Walker, Starlink) this is the physical shell structure; for the SS
/// design each plane is its own "shell" at the shared altitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShellMeta {
    /// Shell altitude \[km\] (from the group's representative elements).
    pub altitude_km: f64,
    /// Shell inclination \[deg\].
    pub inclination_deg: f64,
    /// Planes tagged with this shell's evaluation-group index.
    pub planes: usize,
    /// Satellites in the shell.
    pub sats: usize,
}

impl DesignedSystem {
    /// Per-plane satellite elements in network (topology) order.
    pub fn network_planes(&self) -> Vec<Vec<OrbitalElements>> {
        self.network_order.iter().map(|&i| self.planes[i].satellites.to_vec()).collect()
    }

    /// Total satellites across planes.
    pub fn total_sats(&self) -> usize {
        self.planes.iter().map(|p| p.n_sats).sum()
    }

    /// The system's shell structure: one [`ShellMeta`] per evaluation
    /// group, derived from the group's representative elements and the
    /// planes tagged with its index — the semantic target of
    /// `attack.kind = "shell"` (shell `k` destroys exactly the planes of
    /// `shell_meta()[k]`). The runner reads the planes' tags directly; the
    /// shell-attack tests check its reports against this.
    pub fn shell_meta(&self) -> Vec<ShellMeta> {
        self.eval_groups
            .iter()
            .enumerate()
            .map(|(g, (elements, sats))| ShellMeta {
                altitude_km: elements.altitude_km(),
                inclination_deg: elements.inclination_deg(),
                planes: self.planes.iter().filter(|p| p.eval_idx == g).count(),
                sats: *sats,
            })
            .collect()
    }
}

/// A constellation design family, pluggable into the generic scenario
/// pipeline. Its name, also the report key its results are published
/// under, is its [`DESIGNER_REGISTRY`] row.
pub trait Designer {
    /// Designs the system for `demand` (already scaled to the bandwidth
    /// multiplier).
    ///
    /// # Errors
    /// Family-specific design failure (bad configuration, infeasible
    /// geometry, plane-budget exhaustion).
    fn design(&self, demand: &LatTodGrid, params: &DesignParams) -> Result<DesignedSystem>;

    /// As [`Designer::design`], reusing the kernel outputs `cache` holds
    /// and adding the ones this design computes. The default ignores the
    /// cache; the scenario runner calls only this.
    ///
    /// # Errors
    /// As [`Designer::design`].
    fn design_in(
        &self,
        demand: &LatTodGrid,
        params: &DesignParams,
        _cache: &KernelCache,
    ) -> Result<DesignedSystem> {
        self.design(demand, params)
    }
}

/// The SS-plane greedy designer (§4.2) as a [`Designer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsDesigner {
    /// The underlying designer configuration.
    pub config: DesignConfig,
}

impl Designer for SsDesigner {
    fn design(&self, demand: &LatTodGrid, params: &DesignParams) -> Result<DesignedSystem> {
        self.design_in(demand, params, &KernelCache::default())
    }

    fn design_in(
        &self,
        demand: &LatTodGrid,
        params: &DesignParams,
        cache: &KernelCache,
    ) -> Result<DesignedSystem> {
        let ss = design_ss_constellation_in(demand, self.config, cache)?;
        let eval_groups: Vec<(OrbitalElements, usize)> = ss
            .planes
            .iter()
            .map(|p| Ok((p.orbit.elements_at(params.epoch, 0.0)?, p.n_sats)))
            .collect::<Result<_>>()?;
        // Each eval-group element passed `OrbitalElements::circular`; with
        // a non-zero count, its plane's expansion cannot fail.
        if ss.planes.iter().any(|p| p.n_sats == 0) {
            let zero =
                AstroError::InvalidElement { name: "n_sats", value: 0.0, constraint: "non-zero" };
            return Err(zero.into());
        }
        let planes: Vec<SystemPlane> = ss
            .planes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let geometry = PlaneGeometry::SunSync(p.orbit, params.epoch);
                SystemPlane::lazy(p.n_sats, i, geometry)
            })
            .collect();
        // The network stage orders SS planes by LTAN (stable sort, as the
        // pre-`Designer` pipeline did) so the +grid topology links planes
        // adjacent in local time.
        let mut network_order: Vec<usize> = (0..ss.planes.len()).collect();
        network_order.sort_by(|&a, &b| {
            ss.planes[a].orbit.ltan_h.partial_cmp(&ss.planes[b].orbit.ltan_h).expect("finite LTAN")
        });
        Ok(DesignedSystem {
            summary: DesignSummary {
                sats: ss.total_sats(),
                planes: ss.planes.len(),
                shells: ss.planes.len(),
                sats_per_plane: ss.sats_per_plane,
                inclination_deg: ss.inclination().map_or(0.0, f64::to_degrees),
                unserved_demand: ss.unserved_demand,
            },
            eval_groups,
            planes,
            network_order,
        })
    }
}

/// The demand-aware multi-shell Walker baseline as a [`Designer`].
#[derive(Debug, Clone, PartialEq)]
pub struct WalkerDesigner {
    /// The underlying designer configuration.
    pub config: WalkerBaselineConfig,
}

impl Designer for WalkerDesigner {
    fn design(&self, demand: &LatTodGrid, _params: &DesignParams) -> Result<DesignedSystem> {
        let wd = design_walker_constellation(demand, self.config.clone())?;
        system_from_shells(&wd.shells)
    }
}

/// The shared shell-stack assembly of every Walker-shaped family
/// (Walker baseline, slim variants, the Starlink catalog): one
/// evaluation group per shell with the shell's circular elements as the
/// group representative, the shell's real Walker pattern as one plane
/// per group, satellite-weighted mean inclination, design network
/// order. Arithmetic is exactly the pre-refactor `WalkerDesigner` body,
/// so existing `wd` reports stay byte-identical.
fn system_from_shells(shells: &[WalkerShell]) -> Result<DesignedSystem> {
    let mut eval_groups = Vec::with_capacity(shells.len());
    let mut planes: Vec<SystemPlane> = Vec::new();
    for (s, shell) in shells.iter().enumerate() {
        let elements = OrbitalElements::circular(shell.altitude_km, shell.inclination, 0.0, 0.0)?;
        eval_groups.push((elements, shell.n_sats));
        // The shell's real Walker pattern, one plane per group — the
        // same geometry `WalkerConstellation::satellites` flattens. The
        // `circular` call above and `WalkerDelta::new` are the checks its
        // planes' expansion rests on.
        let pattern = shell.pattern()?;
        let n_sats = pattern.sats_per_plane();
        planes.extend(
            (0..pattern.planes)
                .map(|plane| SystemPlane::lazy(n_sats, s, PlaneGeometry::Walker(pattern, plane))),
        );
    }
    let total_sats: usize = shells.iter().map(|s| s.n_sats).sum();
    let total_planes = planes.len();
    let inclination_deg = if total_sats == 0 {
        0.0
    } else {
        shells.iter().map(|s| s.inclination.to_degrees() * s.n_sats as f64).sum::<f64>()
            / total_sats as f64
    };
    let network_order: Vec<usize> = (0..total_planes).collect();
    Ok(DesignedSystem {
        summary: DesignSummary {
            sats: total_sats,
            planes: total_planes,
            shells: shells.len(),
            sats_per_plane: total_sats.checked_div(total_planes).unwrap_or(0),
            inclination_deg,
            unserved_demand: 0.0,
        },
        eval_groups,
        planes,
        network_order,
    })
}

/// The demand-driven repeat-ground-track designer as a [`Designer`] (the
/// §2.2 negative result, runnable as a scenario design point).
#[derive(Debug, Clone, PartialEq)]
pub struct RgtDesigner {
    /// The underlying designer configuration.
    pub config: RgtDesignConfig,
}

impl Designer for RgtDesigner {
    fn design(&self, demand: &LatTodGrid, _params: &DesignParams) -> Result<DesignedSystem> {
        let rgt = design_rgt_constellation(demand, self.config.clone())?;
        let total = rgt.total_sats();
        let eval_groups = if total == 0 {
            Vec::new()
        } else {
            // The check every arc's expansion rests on.
            OrbitalElements::circular(rgt.orbit.altitude_km, rgt.orbit.inclination, 0.0, 0.0)?;
            // Satellites share the track's altitude/inclination, so one
            // evaluation group covers the constellation (phases sample the
            // orbit, exactly as for a Walker shell).
            vec![(rgt.orbit.reference_elements(), total)]
        };
        let rgt = Arc::new(rgt);
        let planes: Vec<SystemPlane> = (0..rgt.planes)
            .map(|arc| {
                let geometry = PlaneGeometry::Track(Arc::clone(&rgt), arc);
                SystemPlane::lazy(rgt.sats_per_plane, 0, geometry)
            })
            .collect();
        let network_order: Vec<usize> = (0..planes.len()).collect();
        Ok(DesignedSystem {
            summary: DesignSummary {
                sats: total,
                planes: rgt.planes,
                shells: usize::from(total > 0),
                sats_per_plane: rgt.sats_per_plane,
                inclination_deg: rgt.config.inclination_deg,
                unserved_demand: rgt.unserved_demand,
            },
            eval_groups,
            planes,
            network_order,
        })
    }
}

/// The deployed Starlink Gen1 shell catalog: `(altitude_km,
/// inclination_deg, planes, sats_per_plane)` per shell, in the FCC
/// authorization order ("Starlink Constellation: Deployment,
/// Configuration, and Dynamics" documents the same structure). 4408
/// satellites across five shells at full scale.
const STARLINK_GEN1_SHELLS: &[(f64, f64, usize, usize)] = &[
    (550.0, 53.0, 72, 22),
    (540.0, 53.2, 72, 22),
    (570.0, 70.0, 36, 20),
    (560.0, 97.6, 6, 58),
    (560.0, 97.6, 4, 43),
];

/// Catalog designer reproducing the deployed Starlink Gen1 shells as a
/// [`Designer`]. Demand-independent: the catalog *is* the design. One
/// evaluation group per deployed shell, so fluence and survivability are
/// computed per shell and `attack.kind = "shell"` destroys exactly one
/// deployed shell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarlinkDesigner {
    /// Uniform down-scale of the catalog in `(0, 1]`: each shell keeps
    /// `max(1, round(planes × scale))` planes of `max(1, round(spp ×
    /// scale))` satellites, preserving the shell structure at
    /// test-tractable sizes. `1.0` is the full 4408-satellite catalog.
    pub scale: f64,
}

impl Default for StarlinkDesigner {
    fn default() -> Self {
        Self { scale: 1.0 }
    }
}

impl Designer for StarlinkDesigner {
    fn design(&self, _demand: &LatTodGrid, _params: &DesignParams) -> Result<DesignedSystem> {
        system_from_shells(&self.shells()?)
    }
}

impl StarlinkDesigner {
    /// The catalog's shells at this scale.
    fn shells(&self) -> Result<Vec<WalkerShell>> {
        if !(self.scale.is_finite() && self.scale > 0.0 && self.scale <= 1.0) {
            return Err(CoreError::BadConfig {
                name: "starlink_scale",
                constraint: "0 < scale <= 1",
            });
        }
        Ok(STARLINK_GEN1_SHELLS
            .iter()
            .map(|&(altitude_km, inclination_deg, planes, spp)| {
                let planes = ((planes as f64 * self.scale).round() as usize).max(1);
                let spp = ((spp as f64 * self.scale).round() as usize).max(1);
                WalkerShell {
                    inclination: inclination_deg.to_radians(),
                    altitude_km,
                    n_sats: planes * spp,
                    planes,
                }
            })
            .collect())
    }
}

/// Plane-slimmed Walker variant as a [`Designer`]: runs the demand-aware
/// Walker baseline, then thins each shell to `clamp(round(planes ×
/// plane_factor), min_planes, planes)` planes while keeping the per-plane
/// satellite count — the "Your Mega-Constellations Can Be Slim" recipe of
/// trading plane count for cost, scored head-to-head on
/// survivability-per-satellite in the design shootout.
#[derive(Debug, Clone, PartialEq)]
pub struct SlimDesigner {
    /// The Walker baseline configuration the slimming starts from.
    pub config: WalkerBaselineConfig,
    /// Fraction of each shell's planes to keep, in `(0, 1]`.
    pub plane_factor: f64,
    /// Floor on planes per shell after slimming (never raises a shell
    /// above its baseline plane count).
    pub min_planes: usize,
}

impl Default for SlimDesigner {
    fn default() -> Self {
        Self { config: WalkerBaselineConfig::default(), plane_factor: 0.5, min_planes: 3 }
    }
}

impl Designer for SlimDesigner {
    fn design(&self, demand: &LatTodGrid, _params: &DesignParams) -> Result<DesignedSystem> {
        system_from_shells(&self.shells(demand)?)
    }
}

impl SlimDesigner {
    /// The baseline's shells, each thinned to its slimmed plane count.
    fn shells(&self, demand: &LatTodGrid) -> Result<Vec<WalkerShell>> {
        if !(self.plane_factor.is_finite() && self.plane_factor > 0.0 && self.plane_factor <= 1.0) {
            return Err(CoreError::BadConfig {
                name: "slim_plane_factor",
                constraint: "0 < factor <= 1",
            });
        }
        if self.min_planes == 0 {
            return Err(CoreError::BadConfig { name: "slim_min_planes", constraint: ">= 1" });
        }
        let wd = design_walker_constellation(demand, self.config.clone())?;
        Ok(wd
            .shells
            .iter()
            .map(|shell| {
                let per_plane = (shell.n_sats / shell.planes.max(1)).max(1);
                let slim_planes = ((shell.planes as f64 * self.plane_factor).round() as usize)
                    .clamp(self.min_planes.min(shell.planes).max(1), shell.planes.max(1));
                WalkerShell {
                    inclination: shell.inclination,
                    altitude_km: shell.altitude_km,
                    n_sats: slim_planes * per_plane,
                    planes: slim_planes,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssplane_astro::par::par_map;
    use ssplane_demand::grid::LatTodGrid;
    use std::sync::Barrier;

    fn demand() -> LatTodGrid {
        let mut v = vec![0.0; 36 * 24];
        for j in 0..24 {
            v[23 * 24 + j] = 2.0; // ~27.5°N, flat over the day
            v[26 * 24 + j] = 1.0; // ~42.5°N
        }
        LatTodGrid::from_values(36, 24, v).unwrap()
    }

    fn params() -> DesignParams {
        DesignParams { epoch: Epoch::from_calendar(2013, 6, 1, 0, 0, 0.0) }
    }

    #[test]
    fn all_registered_designers_produce_consistent_systems() {
        let d = demand();
        let designers: [(&str, &dyn Designer); 5] = [
            ("ss", &SsDesigner { config: DesignConfig::default() }),
            ("wd", &WalkerDesigner { config: WalkerBaselineConfig::default() }),
            ("rgt", &RgtDesigner { config: RgtDesignConfig::default() }),
            ("slim", &SlimDesigner::default()),
            ("starlink", &StarlinkDesigner { scale: 0.2 }),
        ];
        for (name, designer) in designers {
            let sys = designer.design(&d, &params()).unwrap();
            assert_eq!(sys.summary.sats, sys.total_sats(), "{name}");
            assert_eq!(sys.summary.planes, sys.planes.len(), "{name}");
            assert_eq!(sys.network_order.len(), sys.planes.len(), "{name}");
            let eval_total: usize = sys.eval_groups.iter().map(|&(_, n)| n).sum();
            assert_eq!(eval_total, sys.total_sats(), "{name}");
            for p in &sys.planes {
                assert!(p.eval_idx < sys.eval_groups.len(), "{name}");
                assert_eq!(p.satellites.as_slice().len(), p.n_sats, "{name}");
            }
            // network_order is a permutation.
            let mut order = sys.network_order.clone();
            order.sort_unstable();
            assert_eq!(order, (0..sys.planes.len()).collect::<Vec<_>>());
        }
    }

    /// The five registered designers, Starlink at a test-sized scale.
    fn designers() -> [(&'static str, Box<dyn Designer>); 5] {
        [
            ("ss", Box::new(SsDesigner { config: DesignConfig::default() })),
            ("wd", Box::new(WalkerDesigner { config: WalkerBaselineConfig::default() })),
            ("rgt", Box::new(RgtDesigner { config: RgtDesignConfig::default() })),
            ("slim", Box::new(SlimDesigner::default())),
            ("starlink", Box::new(StarlinkDesigner { scale: 0.2 })),
        ]
    }

    fn bits(elements: &[OrbitalElements]) -> Vec<[u64; 6]> {
        elements
            .iter()
            .map(|e| {
                [
                    e.semi_major_axis_km.to_bits(),
                    e.eccentricity.to_bits(),
                    e.inclination.to_bits(),
                    e.raan.to_bits(),
                    e.arg_perigee.to_bits(),
                    e.mean_anomaly.to_bits(),
                ]
            })
            .collect()
    }

    /// Each plane's elements from the family's eager generator, in design
    /// order: `SsPlane::satellites`, every shell's `WalkerDelta::generate`
    /// chunked by plane, and the RGT arcs.
    fn eager_planes(name: &str, d: &LatTodGrid) -> Vec<Vec<OrbitalElements>> {
        let walker = |shells: &[WalkerShell]| -> Vec<Vec<OrbitalElements>> {
            let mut out = Vec::new();
            for shell in shells {
                let n_planes = shell.planes.max(1);
                let pattern = WalkerDelta::new(
                    shell.altitude_km,
                    shell.inclination,
                    shell.n_sats,
                    n_planes,
                    1 % n_planes,
                )
                .unwrap();
                let all = pattern.generate().unwrap();
                out.extend(all.chunks(shell.n_sats / n_planes).map(<[_]>::to_vec));
            }
            out
        };
        match name {
            "ss" => design_ss_constellation_in(d, DesignConfig::default(), &KernelCache::default())
                .unwrap()
                .planes
                .iter()
                .map(|p| p.satellites(params().epoch).unwrap())
                .collect(),
            "wd" => walker(&design_walker_constellation(d, Default::default()).unwrap().shells),
            "rgt" => design_rgt_constellation(d, Default::default()).unwrap().satellites().unwrap(),
            "slim" => walker(&SlimDesigner::default().shells(d).unwrap()),
            "starlink" => walker(&StarlinkDesigner { scale: 0.2 }.shells().unwrap()),
            _ => unreachable!("{name}"),
        }
    }

    #[test]
    fn expanded_planes_equal_the_eager_generators_bit_for_bit() {
        let d = demand();
        let wd = WalkerDesigner { config: WalkerBaselineConfig::default() };
        assert!(wd.design(&d, &params()).unwrap().eval_groups.len() > 1, "a multi-shell wd");
        for (name, designer) in designers() {
            let sys = designer.design(&d, &params()).unwrap();
            let eager = eager_planes(name, &d);
            assert_eq!(sys.planes.len(), eager.len(), "{name}");
            for (k, (plane, want)) in sys.planes.iter().zip(&eager).enumerate() {
                assert_eq!(bits(&plane.satellites), bits(want), "{name} plane {k}");
            }
        }
    }

    #[test]
    fn planes_expand_once_on_first_read() {
        let d = demand();
        let expanded = |sys: &DesignedSystem| {
            sys.planes.iter().filter(|p| p.satellites.elements.get().is_some()).count()
        };
        for (name, designer) in designers() {
            let sys = designer.design_in(&d, &params(), &KernelCache::default()).unwrap();
            assert!(sys.planes.len() > 1, "{name}");
            assert_eq!(expanded(&sys), 0, "{name}: the design expanded a plane");
            let counted: usize = sys.planes.iter().map(|p| p.satellites.len()).sum();
            assert_eq!(counted, sys.total_sats(), "{name}");
            assert!(sys.planes.iter().all(|p| !p.satellites.is_empty()), "{name}");
            assert_eq!(expanded(&sys), 0, "{name}: len or is_empty expanded a plane");

            let first = sys.planes[1].satellites.as_ptr();
            assert_eq!(expanded(&sys), 1, "{name}: one deref expands one plane");
            assert_eq!(sys.planes[1].satellites.as_slice().as_ptr(), first, "{name}");
            assert_eq!(expanded(&sys), 1, "{name}");

            let eager = eager_planes(name, &d);
            for threads in [2, 7] {
                let sys = designer.design_in(&d, &params(), &KernelCache::default()).unwrap();
                for (k, want) in eager.iter().enumerate() {
                    // One item per worker, each held at the barrier until
                    // every worker can make the plane's first read at once.
                    let barrier = Barrier::new(threads);
                    let lists = par_map(vec![k; threads], threads, |k| {
                        barrier.wait();
                        bits(&sys.planes[k].satellites)
                    });
                    for list in lists {
                        assert_eq!(list, bits(want), "{name} plane {k} at {threads} workers");
                    }
                }
                assert_eq!(expanded(&sys), sys.planes.len(), "{name}");
            }
        }
    }

    #[test]
    fn ss_network_order_sorts_by_ltan() {
        let sys =
            SsDesigner { config: DesignConfig::default() }.design(&demand(), &params()).unwrap();
        assert!(!sys.planes.is_empty());
        let net = sys.network_planes();
        assert_eq!(net.len(), sys.planes.len());
        // RAANs of the first satellite per plane must be non-decreasing in
        // LTAN order — spot-check via the raw elements being reordered.
        assert_eq!(net.iter().map(Vec::len).sum::<usize>(), sys.total_sats());
    }

    #[test]
    fn registry_names_are_the_report_keys() {
        let names: Vec<&str> = DESIGNER_REGISTRY.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["ss", "wd", "rgt", "slim", "starlink"]);
    }

    #[test]
    fn starlink_catalog_reproduces_deployed_shell_structure() {
        let sys = StarlinkDesigner::default().design(&demand(), &params()).unwrap();
        assert_eq!(sys.summary.sats, 4408);
        assert_eq!(sys.summary.shells, 5);
        assert_eq!(sys.summary.planes, 72 + 72 + 36 + 6 + 4);
        let meta = sys.shell_meta();
        assert_eq!(meta.len(), STARLINK_GEN1_SHELLS.len());
        for (m, &(alt, inc, planes, spp)) in meta.iter().zip(STARLINK_GEN1_SHELLS) {
            assert!((m.altitude_km - alt).abs() < 1e-6, "{m:?}");
            assert!((m.inclination_deg - inc).abs() < 1e-9, "{m:?}");
            assert_eq!(m.planes, planes, "{m:?}");
            assert_eq!(m.sats, planes * spp, "{m:?}");
        }
        // Shell satellite shares: the semantic `attack.kind = "shell"`
        // checks against (shell 0 holds 1584/4408 of the constellation).
        assert_eq!(meta[0].sats, 1584);
    }

    #[test]
    fn starlink_scale_shrinks_every_shell_and_rejects_bad_values() {
        let small = StarlinkDesigner { scale: 0.1 }.design(&demand(), &params()).unwrap();
        let full = StarlinkDesigner::default().design(&demand(), &params()).unwrap();
        assert_eq!(small.summary.shells, 5);
        assert!(small.summary.sats < full.summary.sats);
        for m in small.shell_meta() {
            assert!(m.planes >= 1 && m.sats >= 1, "{m:?}");
        }
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(StarlinkDesigner { scale: bad }.design(&demand(), &params()).is_err());
        }
    }

    #[test]
    fn slim_keeps_shell_structure_with_fewer_sats_than_walker() {
        let d = demand();
        let wd = WalkerDesigner { config: WalkerBaselineConfig::default() }
            .design(&d, &params())
            .unwrap();
        let slim = SlimDesigner::default().design(&d, &params()).unwrap();
        assert_eq!(slim.summary.shells, wd.summary.shells);
        assert!(slim.summary.sats <= wd.summary.sats);
        assert!(slim.summary.planes <= wd.summary.planes);
        for (s, w) in slim.shell_meta().iter().zip(wd.shell_meta()) {
            assert!(s.planes <= w.planes && s.planes >= 1, "{s:?} vs {w:?}");
            assert!((s.altitude_km - w.altitude_km).abs() < 1e-9);
        }
        // factor = 1 is the identity on the plane structure.
        let same = SlimDesigner { plane_factor: 1.0, ..SlimDesigner::default() }
            .design(&d, &params())
            .unwrap();
        assert_eq!(same.summary.planes, wd.summary.planes);
        for bad in [0.0, 2.0, f64::NAN] {
            let designer = SlimDesigner { plane_factor: bad, ..SlimDesigner::default() };
            assert!(designer.design(&d, &params()).is_err());
        }
        let designer = SlimDesigner { min_planes: 0, ..SlimDesigner::default() };
        assert!(designer.design(&d, &params()).is_err());
    }

    #[test]
    fn shell_meta_matches_eval_groups_and_plane_tags() {
        let sys = WalkerDesigner { config: WalkerBaselineConfig::default() }
            .design(&demand(), &params())
            .unwrap();
        let meta = sys.shell_meta();
        assert_eq!(meta.len(), sys.eval_groups.len());
        assert_eq!(meta.iter().map(|m| m.sats).sum::<usize>(), sys.total_sats());
        assert_eq!(meta.iter().map(|m| m.planes).sum::<usize>(), sys.planes.len());
    }
}
