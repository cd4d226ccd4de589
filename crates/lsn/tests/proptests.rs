//! Property-based tests for the networking layer, including the
//! snapshot-parity suite: the SoA-cached, sorted-search
//! [`Topology::plus_grid`] must produce exactly the adjacency of the
//! legacy per-call-position construction over arbitrary plane sets.

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
use ssplane_lsn::routing::{
    serving_satellite, shortest_path, GuidedSearch, Landmarks, ServingIndex,
};
use ssplane_lsn::snapshot::SnapshotSeries;
use ssplane_lsn::spares::spares_for_availability;
use ssplane_lsn::topology::{
    line_of_sight, Constellation, GridTopologyConfig, Link, SatId, Topology,
};
use ssplane_lsn::traffic::Flow;
use ssplane_lsn::LsnError;

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

/// Asserts that two topologies are identical: the same adjacency lists
/// entry for entry (neighbor, length bits and order) and so the same
/// edge list.
fn assert_topologies_identical(legacy: &Topology, snapshot: &Topology) {
    assert_eq!(legacy.n_nodes(), snapshot.n_nodes());
    for i in 0..legacy.n_nodes() {
        assert_eq!(legacy.neighbors(i), snapshot.neighbors(i), "adjacency of node {i} diverged");
    }
    assert!(legacy.edges().eq(snapshot.edges()), "edge lists diverged");
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
        let config = GridTopologyConfig { max_range_km };
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

    /// Cross-shell ground attachment: the windowed, dot-prefiltered
    /// [`ServingIndex`] (whose visibility caps are per satellite, from
    /// each satellite's own altitude) must return exactly what the
    /// brute-force nearest-satellite scan returns on random multi-shell
    /// geometries — same winner, same elevation, same lowest-flat-index
    /// tie-break — unmasked, through the ranked list under a random alive
    /// mask, and built over the masked snapshot itself. Ground points
    /// span pole to pole and include satellite sub-points (central angle
    /// ≈ 0); a twin shell repeats the first shell's planes, so every twin
    /// pair ties exactly on elevation.
    #[test]
    fn serving_index_matches_brute_force_across_shells(
        shells in collection::vec(
            (450.0f64..1200.0, 40.0f64..98.0, 2usize..5, 3usize..9),
            2usize..4,
        ),
        twin in 0usize..2,
        min_elevation_deg in 5.0f64..40.0,
        dt in 0.0f64..86_400.0,
        kill in 0.0f64..0.7,
        mask_seed in 0u64..10_000,
        ground in collection::vec((-90.0f64..=90.0, -180.0f64..180.0), 4usize..9),
        sub_points in collection::vec(0usize..10_000, 1usize..4),
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
        if twin == 1 {
            let first_shell = shells[0].2;
            element_planes.extend_from_within(..first_shell);
        }
        let c = Constellation::from_planes(Epoch::J2000, element_planes).unwrap();
        let t = Epoch::J2000 + dt;
        let series = SnapshotSeries::build(&c, &[t]).unwrap();
        let snapshot = series.snapshot(0);
        let min_elevation = min_elevation_deg.to_radians();
        let index = ServingIndex::new(snapshot, min_elevation);
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let alive: Vec<bool> = (0..c.total_sats()).map(|_| rng.gen::<f64>() >= kill).collect();
        let masked = snapshot.with_alive(&alive);
        let masked_index = ServingIndex::new(masked, min_elevation);
        let mut points: Vec<GeoPoint> =
            ground.iter().map(|&(lat, lon)| GeoPoint::from_degrees(lat, lon)).collect();
        for &k in &sub_points {
            let r = snapshot.position_flat(k % c.total_sats());
            points.push(ssplane_astro::frames::subsatellite_point(t, r).unwrap().0);
        }
        for &g in &points {
            let (lat, lon) = (g.lat.to_degrees(), g.lon.to_degrees());
            prop_assert_eq!(
                index.query(g),
                serving_satellite(&snapshot, g, min_elevation),
                "unmasked attachment diverged at ({}, {})", lat, lon
            );
            let want = serving_satellite(&masked, g, min_elevation);
            prop_assert_eq!(
                first_alive(&snapshot, &index.ranked(g), &alive),
                want,
                "ranked masked attachment diverged at ({}, {})", lat, lon
            );
            prop_assert_eq!(
                masked_index.query(g),
                want,
                "masked index diverged at ({}, {})", lat, lon
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
        prop_assert_eq!(stats.largest, topo.components(Some(&alive)).largest());
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
        prop_assert_eq!(stats.largest, topo.components(Some(&alive)).largest());
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
            prop_assert_eq!(stats.largest, topo.components(Some(&alive)).largest(), "step {}", k);
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
    /// and wipeout extremes, for every attack objective. With `stacked`
    /// every plane is doubled, as the SS designer stacks them, so
    /// co-located twins share zero-length links; the load-inflation
    /// objective, which routes every flow through the tree repair, is
    /// scored on every stacked case.
    #[test]
    fn incremental_scoring_matches_full_on_random_sunsync_sat_masks(
        ltans in collection::vec(0.0f64..24.0, 2usize..5),
        slot_counts in collection::vec(4usize..9, 2usize..5),
        kill in 0.05f64..0.6,
        mask_seed in 0u64..10_000,
        which in 0usize..5,
        stacked in 0usize..2,
    ) {
        let stacked = stacked == 1;
        let plane_params: Vec<(f64, usize)> = ltans
            .iter()
            .copied()
            .zip(slot_counts.iter().copied())
            .flat_map(|plane| std::iter::repeat_n(plane, 1 + usize::from(stacked)))
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
        let mut objectives = vec![ATTACK_OBJECTIVES[which]];
        if stacked && objectives[0] != AttackObjective::LoadInflation {
            objectives.push(AttackObjective::LoadInflation);
        }
        let ids: Vec<SatId> = series.snapshot(0).ids().collect();
        let mut rng = StdRng::seed_from_u64(mask_seed);
        let destroyed: Vec<SatId> =
            ids.iter().copied().filter(|_| rng.gen::<f64>() < kill).collect();
        for objective in objectives {
            let scorer = evaluator.incremental_scorer(objective);
            for victims in [&[][..], &destroyed, &ids] {
                let full = evaluator.score_attack(victims, objective).unwrap();
                let fast = scorer.score(victims);
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
    }

    /// Same property on Walker-delta geometries under whole-plane masks
    /// grown as a prefix chain (the greedy-frontier shape). Nothing is
    /// pinned here, so each prefix repairs the intact trees by whole
    /// planes; deltas off a pinned prefix are covered by the scorer's
    /// unit tests.
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
            let fast = scorer.score(&victims);
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

/// Asserts that the landmark-guided search over `topo` under `alive`
/// answers every pair exactly as the Dijkstra reference does on
/// `topo.masked(alive)` (on `topo` itself for `None`): the same hop list,
/// the same length bits, the same `NoRoute`.
fn assert_guided_matches_dijkstra(
    topo: &Topology,
    landmarks: &Landmarks,
    alive: Option<&[bool]>,
    pairs: impl IntoIterator<Item = (usize, usize)>,
) {
    let masked = alive.map(|m| topo.masked(m));
    let reference = masked.as_ref().unwrap_or(topo);
    let mut search = GuidedSearch::new();
    for (a, b) in pairs {
        let (from, to) = (topo.id_of(a).unwrap(), topo.id_of(b).unwrap());
        let got = search.shortest_path(topo, landmarks, alive, from, to);
        match (shortest_path(reference, from, to), got) {
            (Ok((want, want_km)), Ok((got, got_km))) => {
                assert_eq!(got, want, "hops {from:?} -> {to:?}");
                assert_eq!(got_km.to_bits(), want_km.to_bits(), "length {from:?} -> {to:?}");
            }
            (Err(LsnError::NoRoute), Err(LsnError::NoRoute)) => {}
            (want, got) => panic!("{from:?} -> {to:?}: Dijkstra {want:?}, guided {got:?}"),
        }
    }
}

/// `count` seeded node pairs of an `n`-node graph.
fn random_pairs(n: usize, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (rng.gen_index(n), rng.gen_index(n))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The guided search is Dijkstra, bit for bit, on sun-synchronous
    /// and Walker-delta slots — intact, under random satellite loss and
    /// under strided whole-plane loss that splits the grid, where the
    /// search filters the intact topology by the mask under its
    /// landmarks, as the degraded evaluator runs it, and Dijkstra runs on
    /// the masked topology. Stacked sun-synchronous planes
    /// (pairs sharing one LTAN, as the SS designer builds them) put
    /// co-located satellites on zero-length links.
    #[test]
    fn guided_search_matches_dijkstra_on_random_slots(
        walker in 0usize..2,
        stacked in 0usize..2,
        planes in 3usize..9,
        slots in 8usize..20,
        dt in 0.0f64..6000.0,
        kill in 0.0f64..0.5,
        stride in 2usize..4,
        seed in 0u64..10_000,
    ) {
        let c = if walker == 1 {
            let pattern = ssplane_astro::walker::WalkerDelta::new(
                550.0,
                53f64.to_radians(),
                planes * slots,
                planes,
                1,
            )
            .unwrap()
            .generate()
            .unwrap();
            Constellation::from_planes(Epoch::J2000, pattern.chunks(slots).map(<[_]>::to_vec).collect())
                .unwrap()
        } else {
            let params: Vec<(f64, usize)> =
                (0..planes).map(|p| (6.0 + 1.7 * (p >> stacked) as f64, slots)).collect();
            random_constellation(560.0, &params)
        };
        let topo = snapshot_grid(&c, Epoch::J2000 + dt, GridTopologyConfig::default());
        if walker == 0 && stacked == 1 {
            let co_located = (0..topo.n_nodes()).any(|v| topo.neighbors(v).iter().any(|&(_, w)| w == 0.0));
            prop_assert!(co_located, "no co-located pair");
        }
        let n = topo.n_nodes();
        let landmarks = Landmarks::build(&topo);
        assert_guided_matches_dijkstra(&topo, &landmarks, None, random_pairs(n, 60, seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let random: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() >= kill).collect();
        let mut strided = vec![true; n];
        for p in (usize::try_from(seed).unwrap() % stride..planes).step_by(stride) {
            strided[p * slots..(p + 1) * slots].fill(false);
        }
        for alive in [random, strided] {
            let pairs = random_pairs(n, 60, seed + 1);
            assert_guided_matches_dijkstra(&topo, &landmarks, Some(&alive), pairs);
        }
    }

    /// Unit-weight lattices (grids or tori) are full of equal-length
    /// paths, so only the `(dist, node)` predecessor tie-break and the
    /// bound's strict margin make the guided search pick Dijkstra's path
    /// among them — intact and under random loss. With two layers each
    /// lattice row is a stacked pair of planes joined by zero-length
    /// links, so Dijkstra's order inside those clusters matters too.
    #[test]
    fn guided_search_matches_dijkstra_on_unit_lattices(
        rows in 2usize..10,
        cols in 2usize..12,
        layers in 1usize..3,
        wrap in 0usize..2,
        kill in 0.0f64..0.4,
        seed in 0u64..10_000,
    ) {
        let id = |p: usize, s: usize| SatId { plane: p, slot: s };
        let planes = rows * layers;
        let mut links = Vec::new();
        for p in 0..planes {
            for s in 0..cols {
                if s + 1 < cols || (wrap == 1 && cols > 2) {
                    links.push(Link { a: id(p, s), b: id(p, (s + 1) % cols), length_km: 1.0 });
                }
                let q = (p + 1) % planes;
                if p + 1 < planes || (wrap == 1 && planes > 2) {
                    let length_km = if q / layers == p / layers { 0.0 } else { 1.0 };
                    links.push(Link { a: id(p, s), b: id(q, s), length_km });
                }
            }
        }
        let topo = Topology::from_links(links, (0..=planes).map(|p| p * cols).collect());
        let n = topo.n_nodes();
        let landmarks = Landmarks::build(&topo);
        assert_guided_matches_dijkstra(&topo, &landmarks, None, random_pairs(n, 150, seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a77);
        let alive: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() >= kill).collect();
        let pairs = random_pairs(n, 150, seed + 1);
        assert_guided_matches_dijkstra(&topo, &landmarks, Some(&alive), pairs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On graphs of at most six nodes every node is a landmark, so the
    /// bound is the exact distance to the target and every node on every
    /// shortest path shares one unshrunk key: only the margin makes
    /// tied predecessors over unequal links settle in Dijkstra's order.
    /// Zero-length links (co-located satellites) add clusters that must
    /// settle in Dijkstra's order as well. A pendant link too short for
    /// the margin leaves the table without bounds, where the search must
    /// keep Dijkstra's first relaxation instead.
    #[test]
    fn guided_search_matches_dijkstra_on_small_weighted_graphs(
        n in 3usize..7,
        density in 0.3f64..0.9,
        max_weight in 1usize..4,
        zero_length in 0usize..2,
        unbounded in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let id = |v: usize| SatId { plane: 0, slot: v };
        let mut links = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.gen::<f64>() < density {
                    let w = 1 - zero_length + rng.gen_index(max_weight + zero_length);
                    links.push(Link { a: id(a), b: id(b), length_km: w as f64 });
                }
            }
        }
        if unbounded == 1 {
            links.push(Link { a: id(0), b: id(n), length_km: 1e-9 });
        }
        let nodes = n + unbounded;
        let topo = Topology::from_links(links, vec![0, nodes]);
        let landmarks = Landmarks::build(&topo);
        let all = (0..nodes).flat_map(|a| (0..nodes).map(move |b| (a, b)));
        assert_guided_matches_dijkstra(&topo, &landmarks, None, all);
    }
}
