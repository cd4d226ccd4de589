//! Time-aware routing over a designed SS-plane constellation (the
//! paper's §5(1) agenda): build the +grid ISL topology, route a
//! trans-Atlantic flow across time slots, and report delays and handoffs.
//!
//! ```sh
//! cargo run --release --example routing_demo
//! ```

use ssplane_astro::geo::GeoPoint;
use ssplane_core::designer::{design_ss_constellation, DesignConfig};
use ssplane_demand::grid::LatTodGrid;
use ssplane_demand::DemandModel;
use ssplane_lsn::routing::{great_circle_delay_ms, route_over_time};
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Design a constellation for a moderate demand level.
    let model = DemandModel::synthetic_default()?;
    let grid = LatTodGrid::from_model(&model, 36, 24)?;
    let demand = grid.scaled(60.0 / grid.total());
    let design = design_ss_constellation(&demand, DesignConfig::default())?;
    let epoch = ssplane_astro::time::Epoch::from_calendar(2013, 6, 1, 0, 0, 0.0);

    let constellation = Constellation::from_ss(epoch, &design)?;
    // Propagate the whole horizon once into the shared snapshot cache;
    // every downstream stage reads positions from it.
    let series = SnapshotSeries::build_parallel(&constellation, &time_grid(epoch, 12, 300.0), 0)?;
    let topology = Topology::plus_grid(&series.snapshot(0), GridTopologyConfig::default())?;
    println!(
        "constellation: {} planes x {} sats = {} satellites",
        design.planes.len(),
        design.sats_per_plane,
        design.total_sats()
    );
    println!(
        "topology: {} ISLs, mean degree {:.2}, connected = {}",
        topology.edges().count(),
        topology.mean_degree(),
        topology.is_connected()
    );

    let src = GeoPoint::from_degrees(40.7, -74.0); // New York
    let dst = GeoPoint::from_degrees(51.5, -0.1); // London
    let fiber = great_circle_delay_ms(src, dst);
    println!("\nNew York -> London (great-circle fiber bound {fiber:.1} ms):");

    let routes =
        route_over_time(&series, src, dst, 20f64.to_radians(), GridTopologyConfig::default())?;
    for (k, route) in routes.routes.iter().enumerate() {
        match route {
            Some(r) => println!(
                "  slot {k:2}: {:2} hops, {:6.1} ms ({:.2}x fiber)",
                r.hops.len(),
                r.delay_ms,
                r.delay_ms / fiber
            ),
            None => println!("  slot {k:2}: unreachable (coverage gap at this local time)"),
        }
    }
    println!(
        "\nreachable slots: {}/{}, handoffs: {}, mean delay {:.1} ms",
        routes.reachable_slots(),
        routes.routes.len(),
        routes.handoffs(),
        routes.mean_delay_ms()
    );
    Ok(())
}
