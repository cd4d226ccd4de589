//! # ssplane-lsn
//!
//! LEO satellite networking on SS-plane constellations — the paper's §5
//! research agenda ("Implications for networking") made executable:
//!
//! * [`snapshot`] — the shared time-grid propagation cache: a
//!   [`SnapshotSeries`] batch-propagates the whole constellation over an
//!   explicit time grid once (in parallel when asked) and every position
//!   consumer below reads from a [`Snapshot`] view instead of
//!   re-propagating.
//! * [`topology`] — inter-satellite-link (ISL) topologies: the classic
//!   +grid (intra-plane ring + cross-plane neighbors) with line-of-sight
//!   and range feasibility checks (§5(1): *time-aware satellite network
//!   topologies*).
//! * [`routing`] — snapshot and time-expanded shortest-delay routing with
//!   handoff accounting (§5(1): *precomputed time-aware paths*).
//! * [`traffic`] — flow-level traffic assignment driven by the
//!   sun-relative demand model, reporting link utilization and latency
//!   stretch (§5(1): *bandwidth allocation exploiting the regularity of
//!   human activity*).
//! * [`traffic_engine`] — the population-scale engine on top: gravity
//!   workloads aggregated by serving-satellite pair, k-path candidates,
//!   and capacity-constrained waterfilling with drop accounting — the
//!   served-demand fraction and link-utilization percentiles.
//! * [`failures`] — radiation-driven failure processes: per-satellite
//!   hazard proportional to accumulated fluence (§3.2's mechanism).
//! * [`disruption`] — the pluggable disruption API: [`AttackModel`]s
//!   mapping a constellation to destroyed slots (strided plane loss,
//!   random loss, declination-band debris events, whole-shell loss),
//!   [`FailureProcess`]es sampling satellite lifetimes (the radiation
//!   exponential, a Weibull bathtub), and the [`OutageTimeline`] of
//!   per-satellite outage intervals that couples both into the network
//!   stage via [`Snapshot`] alive masks.
//! * [`percolation`] — percolation & robustness analytics: an
//!   incremental union-find [`ClusterTracker`] replaying attack-registry
//!   removal orderings into loss-fraction phase-transition curves
//!   (giant-component fraction, susceptibility χ, mean finite-cluster
//!   size), algebraic connectivity λ₂ via a seeded, preconditioned
//!   LOBPCG solve, and the *masking threshold* — the critical loss fraction
//!   where redundancy stops hiding targeted-attack damage.
//! * [`optimizer`] — adversarial attack search: a [`DegradedEvaluator`]
//!   scoring candidate destroyed sets over a prebuilt [`SnapshotSeries`]
//!   (intact topologies filtered per candidate, never rebuilt; each
//!   endpoint's servers ranked once per slot), an
//!   incremental delta scorer (shortest-path-tree repair, a pinned
//!   greedy-prefix parent state, affected-flow filtering —
//!   byte-identical to the full path at a fraction of the cost), and a
//!   seeded greedy + random-restart swap search for the worst k-plane /
//!   k-satellite attack against a degraded-network objective.
//! * [`spares`] — spare provisioning policies (per-plane hot spares vs a
//!   shared on-demand pool), the paper's "2–10 spares per plane" practice.
//! * [`cast`] — checked index/count conversions: the sanctioned
//!   replacements for the truncating, sign-losing and wrapping `as`-casts
//!   that clippy's cast lints ban in this crate's library code.
//! * [`survivability`] — a discrete-event simulation tying it together:
//!   failures, replacements, and capacity availability over mission time
//!   (§5(2): *lighter-weight fault tolerance for low-radiation
//!   constellations*); one renewal loop yields both the outage timeline
//!   and the scalar report.
//!
//! [`AttackModel`]: disruption::AttackModel
//! [`ClusterTracker`]: percolation::ClusterTracker
//! [`FailureProcess`]: disruption::FailureProcess
//! [`OutageTimeline`]: disruption::OutageTimeline
//! [`DegradedEvaluator`]: optimizer::DegradedEvaluator

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
// At 10k→100k-satellite scale an index truncation is a real bug: casts
// that can truncate, lose a sign or wrap go through `cast` instead.
#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]
#![forbid(unsafe_code)]

pub mod cast;
pub mod disruption;
pub mod error;
pub mod failures;
pub mod optimizer;
pub mod percolation;
pub mod routing;
pub mod snapshot;
pub mod spares;
pub mod survivability;
pub mod topology;
pub mod traffic;
pub mod traffic_engine;

pub use disruption::{AttackModel, AttackTarget, FailureProcess, OutageTimeline};
pub use error::{LsnError, Result};
pub use optimizer::{AttackObjective, AttackSearchConfig, DegradedEvaluator, IncrementalScorer};
pub use percolation::{ClusterTracker, Lambda2Config, Lambda2Solve, PercolationCurve};
pub use snapshot::{Snapshot, SnapshotSeries};
pub use topology::{Constellation, SatId, Topology};
pub use traffic_engine::{CapacityConfig, ServedDemandSummary, TrafficWorkload};
