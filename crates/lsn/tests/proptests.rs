//! Property-based tests for the networking layer, including the
//! snapshot-parity suite: the SoA-cached, sorted-search
//! [`Topology::plus_grid`] must produce exactly the links and adjacency
//! of the legacy per-call-position construction over arbitrary plane
//! sets.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssplane_astro::geo::GeoPoint;
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::linalg::Vec3;
use ssplane_astro::sunsync::sun_synchronous_orbit;
use ssplane_astro::time::Epoch;
use ssplane_lsn::optimizer::{AttackObjective, DegradedEvaluator};
use ssplane_lsn::percolation::{
    keyed_ordering, percolation_sweep, plane_spread_ordering, random_ordering, ClusterTracker,
};
use ssplane_lsn::routing::{serving_satellite, shortest_path, ServingIndex};
use ssplane_lsn::snapshot::SnapshotSeries;
use ssplane_lsn::spares::spares_for_availability;
use ssplane_lsn::topology::{line_of_sight, Constellation, GridTopologyConfig, SatId, Topology};
use ssplane_lsn::traffic::Flow;

fn small_constellation(planes: usize, slots: usize) -> Constellation {
    let epoch = Epoch::J2000;
    let orbit = sun_synchronous_orbit(560.0).unwrap();
    let element_planes: Vec<Vec<OrbitalElements>> = (0..planes)
        .map(|p| orbit.with_ltan(6.0 + 1.3 * p as f64).plane_elements(epoch, slots).unwrap())
        .collect();
    Constellation::new(epoch, element_planes).unwrap()
}

fn snapshot_grid(c: &Constellation, t: Epoch, config: GridTopologyConfig) -> Topology {
    let series = SnapshotSeries::build(c, &[t]).unwrap();
    Topology::plus_grid(&series.snapshot(0), config).unwrap()
}

/// A constellation of sun-synchronous planes with per-plane LTAN, slot
/// count, and phase offset drawn from the strategy inputs — "random
/// plane sets" in the parity property.
fn random_constellation(altitude_km: f64, plane_params: &[(f64, usize)]) -> Constellation {
    let epoch = Epoch::J2000;
    let orbit = sun_synchronous_orbit(altitude_km).unwrap();
    let element_planes: Vec<Vec<OrbitalElements>> = plane_params
        .iter()
        .map(|&(ltan, slots)| orbit.with_ltan(ltan).plane_elements(epoch, slots).unwrap())
        .collect();
    Constellation::new(epoch, element_planes).unwrap()
}

/// The first entry of a ranked serving list alive under `alive`.
fn first_alive(
    snapshot: &ssplane_lsn::Snapshot<'_>,
    ranked: &[(SatId, f64)],
    alive: &[bool],
) -> Option<(SatId, f64)> {
    ranked.iter().copied().find(|(id, _)| alive[snapshot.flat_index(*id).unwrap()])
}

/// Asserts that two topologies are identical: same canonical link list
/// (order included) and the same adjacency lists entry for entry. The
/// legacy construction may emit a link's endpoints in either orientation,
/// so links are compared after canonicalizing to `(min, max)` flat order.
fn assert_topologies_identical(legacy: &Topology, snapshot: &Topology) {
    assert_eq!(legacy.n_nodes(), snapshot.n_nodes());
    assert_eq!(legacy.links.len(), snapshot.links.len(), "link counts diverge");
    for (l, s) in legacy.links.iter().zip(&snapshot.links) {
        let (lf, lt) = (legacy.index_of(l.a).unwrap(), legacy.index_of(l.b).unwrap());
        let canonical = if lf < lt { (l.a, l.b) } else { (l.b, l.a) };
        assert_eq!((s.a, s.b), canonical, "link endpoint order diverged");
        assert!(
            snapshot.index_of(s.a).unwrap() < snapshot.index_of(s.b).unwrap(),
            "snapshot link not canonical: {:?} -> {:?}",
            s.a,
            s.b
        );
        assert_eq!(l.length_km, s.length_km, "link length diverged for {:?}-{:?}", s.a, s.b);
    }
    for i in 0..legacy.n_nodes() {
        assert_eq!(legacy.neighbors(i), snapshot.neighbors(i), "adjacency of node {i} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn line_of_sight_symmetric(
        ax in -9000.0f64..9000.0, ay in -9000.0f64..9000.0, az in -9000.0f64..9000.0,
        bx in -9000.0f64..9000.0, by in -9000.0f64..9000.0, bz in -9000.0f64..9000.0,
    ) {
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(bx, by, bz);
        prop_assert_eq!(line_of_sight(a, b, 80.0), line_of_sight(b, a, 80.0));
    }

    #[test]
    fn routes_are_valid_walks(
        p1 in 0usize..4, s1 in 0usize..8,
        p2 in 0usize..4, s2 in 0usize..8,
    ) {
        let c = small_constellation(4, 8);
        let topo = snapshot_grid(&c, Epoch::J2000, GridTopologyConfig::default());
        let from = SatId { plane: p1, slot: s1 };
        let to = SatId { plane: p2, slot: s2 };
        match shortest_path(&topo, from, to) {
            Ok((hops, km)) => {
                prop_assert_eq!(*hops.first().unwrap(), from);
                prop_assert_eq!(*hops.last().unwrap(), to);
                prop_assert!(km >= 0.0);
                // Each consecutive pair must be an actual link.
                for w in hops.windows(2) {
                    let ia = topo.index_of(w[0]).unwrap();
                    let ib = topo.index_of(w[1]).unwrap();
                    prop_assert!(
                        topo.neighbors(ia).iter().any(|&(v, _)| v == ib),
                        "hop {:?} -> {:?} is not a link", w[0], w[1]
                    );
                }
                // No repeated nodes (it is a path).
                let mut sorted = hops.clone();
                sorted.sort();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), hops.len());
            }
            Err(ssplane_lsn::LsnError::NoRoute) => {} // disconnected is legal
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    #[test]
    fn shortest_path_triangle_inequality(
        s1 in 0usize..8, s2 in 0usize..8, s3 in 0usize..8,
    ) {
        let c = small_constellation(3, 8);
        let topo = snapshot_grid(&c, Epoch::J2000, GridTopologyConfig::default());
        let a = SatId { plane: 0, slot: s1 };
        let b = SatId { plane: 1, slot: s2 };
        let d = SatId { plane: 2, slot: s3 };
        if let (Ok((_, ab)), Ok((_, bd)), Ok((_, ad))) = (
            shortest_path(&topo, a, b),
            shortest_path(&topo, b, d),
            shortest_path(&topo, a, d),
        ) {
            prop_assert!(ad <= ab + bd + 1e-9, "ad {ad} > ab {ab} + bd {bd}");
        }
    }

    #[test]
    fn snapshot_plus_grid_matches_legacy_construction(
        altitude_km in 450.0f64..1200.0,
        ltans in collection::vec(0.0f64..24.0, 1usize..7),
        slot_counts in collection::vec(1usize..45, 1usize..7),
        dt in 0.0f64..172_800.0,
        wrap in 0usize..2,
        max_range_km in 1500.0f64..6000.0,
    ) {
        // Pair the sampled LTANs and slot counts into a random plane set
        // (the shorter list bounds the plane count).
        // (both vec strategies have minimum length 1, so at least one
        // plane always survives the zip)
        let plane_params: Vec<(f64, usize)> =
            ltans.iter().copied().zip(slot_counts.iter().copied()).collect();
        let c = random_constellation(altitude_km, &plane_params);
        let t = Epoch::J2000 + dt;
        let config = GridTopologyConfig {
            max_range_km,
            wrap_planes: wrap == 1,
            ..GridTopologyConfig::default()
        };
        let legacy = Topology::plus_grid_at(&c, t, config).unwrap();
        let series = SnapshotSeries::build(&c, &[t]).unwrap();
        let snapshot = Topology::plus_grid(&series.snapshot(0), config).unwrap();
        assert_topologies_identical(&legacy, &snapshot);
    }

    #[test]
    fn snapshot_plus_grid_matches_legacy_on_walker_chunks(
        total in 40usize..200,
        planes in 2usize..9,
        phasing in 0usize..4,
        inclination_deg in 40.0f64..90.0,
        dt in 0.0f64..86_400.0,
    ) {
        // Walker-delta geometry reaches plus_grid through
        // `Constellation::from_planes` in the scenario engine; the parity
        // must hold there too.
        let per_plane = (total / planes).max(1);
        let count = per_plane * planes;
        let pattern = ssplane_astro::walker::WalkerDelta::new(
            550.0,
            inclination_deg.to_radians(),
            count,
            planes,
            phasing % planes,
        )
        .unwrap()
        .generate()
        .unwrap();
        let element_planes: Vec<Vec<OrbitalElements>> =
            pattern.chunks(per_plane).map(<[_]>::to_vec).collect();
        let c = Constellation::from_planes(Epoch::J2000, element_planes).unwrap();
        let t = Epoch::J2000 + dt;
        let config = GridTopologyConfig::default();
        let legacy = Topology::plus_grid_at(&c, t, config).unwrap();
        let series = SnapshotSeries::build(&c, &[t]).unwrap();
        let snapshot = Topology::plus_grid(&series.snapshot(0), config).unwrap();
        assert_topologies_identical(&legacy, &snapshot);
    }

    /// Cross-shell ground attachment: the pruned [`ServingIndex`] (whose
    /// declination bands are now per satellite, from each satellite's own
    /// altitude) must return exactly what the brute-force
    /// nearest-satellite scan returns on random multi-shell geometries —
    /// same winner, same elevation, same lowest-flat-index tie-break —
    /// both unmasked and under a random alive mask.
    #[test]
    fn serving_index_matches_brute_force_across_shells(
        shells in collection::vec(
            (450.0f64..1200.0, 40.0f64..98.0, 2usize..5, 3usize..9),
            2usize..4,
        ),
        min_elevation_deg in 5.0f64..40.0,
        dt in 0.0f64..86_400.0,
        kill in 0.0f64..0.7,
        mask_seed in 0u64..10_000,
        ground in collection::vec((-80.0f64..80.0, -180.0f64..180.0), 4usize..9),
    ) {
        // Each shell contributes its own Walker-delta plane block at its
        // own altitude and inclination; concatenating the plane lists
        // yields the mixed-altitude constellation the index must span.
        let mut element_planes: Vec<Vec<OrbitalElements>> = Vec::new();
        for &(altitude_km, inclination_deg, planes, per_plane) in &shells {
            let pattern = ssplane_astro::walker::WalkerDelta::new(
                altitude_km,
                inclination_deg.to_radians(),
                planes * per_plane,
                planes,
                0,
            )
            .unwrap()
            .generate()
            .unwrap();
            element_planes.extend(pattern.chunks(per_plane).map(<[_]>::to_vec));
        }
        let c = Constellation::from_planes(Epoch::J2000, element_planes).unwrap();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000 + dt]).unwrap();
        let snapshot = series.snapshot(0);
        let min_elevation = min_elevation_deg.to_radians();
        let index = ServingIndex::new(snapshot, min_elevation);
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let alive: Vec<bool> = (0..c.total_sats()).map(|_| rng.gen::<f64>() >= kill).collect();
        for &(lat, lon) in &ground {
            let g = GeoPoint::from_degrees(lat, lon);
            prop_assert_eq!(
                index.query(g),
                serving_satellite(&snapshot, g, min_elevation),
                "unmasked attachment diverged at ({}, {})", lat, lon
            );
            prop_assert_eq!(
                first_alive(&snapshot, &index.ranked(g), &alive),
                serving_satellite(&snapshot.with_alive(&alive), g, min_elevation),
                "masked attachment diverged at ({}, {})", lat, lon
            );
        }
    }

    /// Ranked attachment: the first alive entry of an endpoint's ranked
    /// serving list equals a query on an index rebuilt over the masked
    /// snapshot, for every mask shape the attack search produces — none
    /// dead, all dead, whole planes, scattered satellites, and planes
    /// plus scattered satellites.
    #[test]
    fn ranked_attachment_first_alive_matches_rebuilt_index(
        ltans in collection::vec(0.0f64..24.0, 3usize..7),
        per_plane in 6usize..14,
        min_elevation_deg in 5.0f64..45.0,
        dt in 0.0f64..86_400.0,
        shape in 0usize..5,
        mask_seed in 0u64..10_000,
        ground in collection::vec((-80.0f64..80.0, -180.0f64..180.0), 4usize..9),
    ) {
        let plane_params: Vec<(f64, usize)> = ltans.iter().map(|&l| (l, per_plane)).collect();
        let c = random_constellation(560.0, &plane_params);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000 + dt]).unwrap();
        let snapshot = series.snapshot(0);
        let n = snapshot.total_sats();
        let min_elevation = min_elevation_deg.to_radians();
        let index = ServingIndex::new(snapshot, min_elevation);
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let mut alive = vec![shape != 1; n];
        if shape == 2 || shape == 4 {
            let plane = rng.gen_index(ltans.len());
            alive[plane * per_plane..(plane + 1) * per_plane].fill(false);
        }
        if shape >= 3 {
            for a in alive.iter_mut() {
                if rng.gen::<f64>() < 0.3 {
                    *a = false;
                }
            }
        }
        let rebuilt = ServingIndex::new(snapshot.with_alive(&alive), min_elevation);
        for &(lat, lon) in &ground {
            let g = GeoPoint::from_degrees(lat, lon);
            prop_assert_eq!(
                first_alive(&snapshot, &index.ranked(g), &alive),
                rebuilt.query(g),
                "ranked attachment diverged at ({}, {}), mask shape {}", lat, lon, shape
            );
        }
    }

    #[test]
    fn spares_monotone_in_rate_and_confidence(
        lambda in 0.0f64..20.0,
        p_exp in -4.0f64..-1.0,
    ) {
        let p = 10f64.powf(p_exp);
        let k = spares_for_availability(lambda, p).unwrap();
        let k_more_failures = spares_for_availability(lambda + 1.0, p).unwrap();
        prop_assert!(k_more_failures >= k);
        let k_stricter = spares_for_availability(lambda, p / 10.0).unwrap();
        prop_assert!(k_stricter >= k);
        // Poisson mean bound: k is at least lambda - a few sigma.
        prop_assert!((k as f64) >= lambda - 4.0 * lambda.sqrt() - 1.0);
    }

    #[test]
    fn cluster_tracker_matches_bfs_on_random_sunsync_masks(
        altitude_km in 450.0f64..1200.0,
        ltans in collection::vec(0.0f64..24.0, 2usize..7),
        slot_counts in collection::vec(2usize..20, 2usize..7),
        kill in 0.0f64..0.9,
        mask_seed in 0u64..10_000,
    ) {
        // The union-find giant-component tracker must agree with the BFS
        // reference on arbitrary alive masks over random sun-sync plane
        // sets.
        let plane_params: Vec<(f64, usize)> =
            ltans.iter().copied().zip(slot_counts.iter().copied()).collect();
        let c = random_constellation(altitude_km, &plane_params);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let topo = Topology::plus_grid(&series.snapshot(0), GridTopologyConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let alive: Vec<bool> = (0..topo.n_nodes()).map(|_| rng.gen::<f64>() >= kill).collect();
        let stats = ClusterTracker::from_alive(&topo, &alive).stats();
        prop_assert_eq!(stats.largest, topo.largest_component_among(&alive));
        prop_assert_eq!(stats.active, alive.iter().filter(|&&a| a).count());
        prop_assert!(stats.sum_sq >= (stats.largest as u64).pow(2), "second moment holds the giant");
    }

    #[test]
    fn cluster_tracker_matches_bfs_on_random_walker_masks(
        total in 40usize..160,
        planes in 2usize..8,
        inclination_deg in 40.0f64..90.0,
        kill in 0.0f64..0.9,
        mask_seed in 0u64..10_000,
    ) {
        let per_plane = (total / planes).max(1);
        let count = per_plane * planes;
        let pattern = ssplane_astro::walker::WalkerDelta::new(
            550.0,
            inclination_deg.to_radians(),
            count,
            planes,
            0,
        )
        .unwrap()
        .generate()
        .unwrap();
        let element_planes: Vec<Vec<OrbitalElements>> =
            pattern.chunks(per_plane).map(<[_]>::to_vec).collect();
        let c = Constellation::from_planes(Epoch::J2000, element_planes).unwrap();
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let topo = Topology::plus_grid(&series.snapshot(0), GridTopologyConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let alive: Vec<bool> = (0..topo.n_nodes()).map(|_| rng.gen::<f64>() >= kill).collect();
        let stats = ClusterTracker::from_alive(&topo, &alive).stats();
        prop_assert_eq!(stats.largest, topo.largest_component_among(&alive));
        prop_assert_eq!(stats.active, alive.iter().filter(|&&a| a).count());
    }

    #[test]
    fn percolation_sweep_matches_recompute_across_orderings(
        ltans in collection::vec(0.0f64..24.0, 2usize..6),
        slot_counts in collection::vec(2usize..14, 2usize..6),
        steps in 1usize..40,
        order_seed in 0u64..10_000,
        which in 0usize..3,
    ) {
        // Incremental-vs-recompute equivalence: every sample of the
        // reverse-replay sweep must equal a from-scratch union-find (and
        // the BFS reference) over the same prefix mask — for targeted,
        // random, and keyed removal orderings alike.
        let plane_params: Vec<(f64, usize)> =
            ltans.iter().copied().zip(slot_counts.iter().copied()).collect();
        let c = random_constellation(700.0, &plane_params);
        let series = SnapshotSeries::build(&c, &[Epoch::J2000]).unwrap();
        let topo = Topology::plus_grid(&series.snapshot(0), GridTopologyConfig::default()).unwrap();
        let n = topo.n_nodes();
        let order = match which {
            0 => plane_spread_ordering(&topo),
            1 => random_ordering(n, order_seed),
            _ => keyed_ordering(&(0..n).map(|i| ((i * 37) % 11) as f64).collect::<Vec<f64>>()),
        };
        let curve = percolation_sweep(&topo, &order, steps);
        prop_assert_eq!(curve.len(), steps + 1);
        for k in 0..curve.len() {
            let removed = curve.removed[k];
            let mut alive = vec![true; n];
            for &v in &order[..removed] {
                alive[v] = false;
            }
            let stats = ClusterTracker::from_alive(&topo, &alive).stats();
            prop_assert_eq!(stats.largest, topo.largest_component_among(&alive), "step {}", k);
            prop_assert_eq!(curve.giant_fraction[k], stats.largest as f64 / n as f64);
            prop_assert_eq!(curve.susceptibility[k], stats.susceptibility());
            prop_assert_eq!(curve.mean_finite_cluster[k], stats.mean_finite_cluster());
        }
    }
}

/// A small city mesh for the attack-search evaluator properties: six
/// terminals, all-pairs unit demand (15 flows).
fn attack_flows() -> Vec<Flow> {
    let cities =
        [(40.7, -74.0), (51.5, -0.1), (35.7, 139.7), (-23.5, -46.6), (19.1, 72.9), (1.3, 103.8)];
    let mut out = Vec::new();
    for (i, &(a_lat, a_lon)) in cities.iter().enumerate() {
        for &(b_lat, b_lon) in cities.iter().skip(i + 1) {
            out.push(Flow {
                src: GeoPoint::from_degrees(a_lat, a_lon),
                dst: GeoPoint::from_degrees(b_lat, b_lon),
                demand: 1.0,
            });
        }
    }
    out
}

const ATTACK_OBJECTIVES: [AttackObjective; 5] = [
    AttackObjective::RoutedFraction,
    AttackObjective::Connectivity,
    AttackObjective::LoadInflation,
    AttackObjective::ServedDemand,
    AttackObjective::MaskingThreshold,
];

// Each case builds a full evaluator (topologies + intact routing for two
// slots), so this block runs far fewer cases than the cheap ones above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The incremental scorer is byte-identical to the from-scratch
    /// `Topology::masked` + re-route evaluation on random sun-synchronous
    /// geometries under random k-satellite masks, including the zero-loss
    /// and wipeout extremes, for every attack objective.
    #[test]
    fn incremental_scoring_matches_full_on_random_sunsync_sat_masks(
        ltans in collection::vec(0.0f64..24.0, 2usize..5),
        slot_counts in collection::vec(4usize..9, 2usize..5),
        kill in 0.05f64..0.6,
        mask_seed in 0u64..10_000,
        which in 0usize..5,
    ) {
        let plane_params: Vec<(f64, usize)> = ltans
            .iter()
            .copied()
            .zip(slot_counts.iter().copied())
            .collect();
        let c = random_constellation(620.0, &plane_params);
        let series =
            SnapshotSeries::build(&c, &[Epoch::J2000, Epoch::J2000 + 300.0]).unwrap();
        let flows = attack_flows();
        let evaluator = DegradedEvaluator::new(
            &series,
            &flows,
            20f64.to_radians(),
            GridTopologyConfig::default(),
        )
        .unwrap();
        let objective = ATTACK_OBJECTIVES[which];
        let ids: Vec<SatId> = series.snapshot(0).ids().collect();
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let destroyed: Vec<SatId> =
            ids.iter().copied().filter(|_| rng.gen::<f64>() < kill).collect();
        let scorer = evaluator.incremental_scorer(objective);
        for victims in [Vec::new(), destroyed, ids] {
            let full = evaluator.score_attack(&victims, objective).unwrap();
            let fast = scorer.score(&victims).unwrap();
            prop_assert_eq!(
                full.to_bits(),
                fast.to_bits(),
                "objective {:?}, |victims| = {}: full {} vs incremental {}",
                objective,
                victims.len(),
                full,
                fast
            );
        }
    }

    /// Same property on Walker-delta geometries under whole-plane masks
    /// grown as a prefix chain (the greedy-frontier shape), so repairs
    /// delta off the previous prefix state in the LRU rather than the
    /// intact trees.
    #[test]
    fn incremental_scoring_matches_full_on_walker_plane_prefixes(
        total in 36usize..100,
        planes in 3usize..7,
        inclination_deg in 45.0f64..80.0,
        mask_seed in 0u64..10_000,
        which in 0usize..5,
    ) {
        let per_plane = (total / planes).max(4);
        let count = per_plane * planes;
        let pattern = ssplane_astro::walker::WalkerDelta::new(
            550.0,
            inclination_deg.to_radians(),
            count,
            planes,
            0,
        )
        .unwrap()
        .generate()
        .unwrap();
        let element_planes: Vec<Vec<OrbitalElements>> =
            pattern.chunks(per_plane).map(<[_]>::to_vec).collect();
        let c = Constellation::from_planes(Epoch::J2000, element_planes).unwrap();
        let series =
            SnapshotSeries::build(&c, &[Epoch::J2000, Epoch::J2000 + 300.0]).unwrap();
        let flows = attack_flows();
        let evaluator = DegradedEvaluator::new(
            &series,
            &flows,
            20f64.to_radians(),
            GridTopologyConfig::default(),
        )
        .unwrap();
        let objective = ATTACK_OBJECTIVES[which];
        let scorer = evaluator.incremental_scorer(objective);
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let mut order: Vec<usize> = (0..planes).collect();
        for i in 0..planes - 1 {
            let j = i + rng.gen_index(planes - i);
            order.swap(i, j);
        }
        let depth = 1 + rng.gen_index(planes.min(3));
        let mut victims: Vec<SatId> = Vec::new();
        for &p in &order[..depth] {
            victims.extend((0..per_plane).map(|s| SatId { plane: p, slot: s }));
            victims.sort_unstable();
            let full = evaluator.score_attack(&victims, objective).unwrap();
            let fast = scorer.score(&victims).unwrap();
            prop_assert_eq!(
                full.to_bits(),
                fast.to_bits(),
                "objective {:?}, prefix of {} planes: full {} vs incremental {}",
                objective,
                victims.len() / per_plane,
                full,
                fast
            );
        }
    }
}
