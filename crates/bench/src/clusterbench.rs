//! Deterministic JSON export of the cluster sweep (`repro cluster`).
//!
//! `generate` drives the open-loop cluster engine
//! ([`platform::cluster::ClusterSim`]) through a nodes × placement-budget ×
//! routing-policy grid on one shared flash-crowd trace: a Poisson baseline
//! with Zipf-skewed popularity over a 10 000-function catalogue, plus a
//! viral burst — [`BURST`] arrivals for one function inside a window
//! shorter than a single fork boot. The burst saturates the function's
//! template holders, so overflow traffic must pick a rung: remote sfork
//! from a holder ([`platform::cluster::RoutingPolicy::RemoteFork`]) or a
//! registry pull and cold boot (the
//! [`platform::cluster::RoutingPolicy::LocalCold`] baseline).
//!
//! The export also carries two non-grid probes the validator pins:
//!
//! - **parity** — a single-node closed-loop [`Cluster`] and a plain
//!   `Gateway<CatalyzerEngine>` replay the same request sequence; their
//!   span trees and gateway metrics must digest identically (the cluster
//!   layer adds nothing until there is a second node);
//! - **storm** — the grid's remote-fork shape re-run with the
//!   template-transfer seam poisoned: transfers fault, requests degrade to
//!   cold instead of shedding, and background repairs restore the fabric.
//!
//! Everything runs on virtual time from seeded traces, so two runs produce
//! byte-identical output — `tools/check.sh` validates `BENCH_pr8.json` the
//! same way it gates the pr2–pr4 and pr7 exports.

use catalyzer::{BootMode, CatalyzerEngine};
use faultsim::{FaultPlan, InjectionPoint, PointPlan};
use platform::cluster::{ClusterConfig, ClusterOutcome, ClusterSim, RoutingPolicy, TransferCosts};
use platform::simulate::TraceRequest;
use platform::{Cluster, Gateway, Invocation, PlatformError};
use runtimes::AppProfile;
use serde::{Deserialize, Serialize};
use simtime::{CostModel, SimNanos};
use workloads::catalogue;
use workloads::generator::{open_loop, Arrivals, Popularity, TraceSpec};

use crate::fleetbench::QuantRow;

/// Schema tag so downstream tooling can reject stale files.
pub const SCHEMA: &str = "catalyzer-bench/pr8-v1";

/// Seed for the catalogue, the baseline trace, and the storm injector.
pub const SEED: u64 = 0x0C10_0801;

/// Functions in the shared catalogue.
pub const FUNCTIONS: usize = 10_000;

/// Zipf exponent of baseline function popularity.
pub const ZIPF_EXPONENT: f64 = 1.0;

/// Keep-alive every cell runs with — short enough that the warm set stays
/// a small fraction of node capacity at the baseline rate.
pub const KEEP_ALIVE: SimNanos = SimNanos::from_millis(200);

/// Warm instances retained per (node, function).
pub const MAX_IDLE: usize = 4;

/// Concurrent-instance cap per node. One node cannot absorb the viral
/// burst; two can — the capacity cliff the routing policies fight over.
pub const NODE_CAPACITY: usize = 2_000;

/// Poisson baseline rate under the burst (drives reuse and keep-alive).
pub const BASE_RATE_HZ: f64 = 2_000.0;

/// Baseline requests around the burst.
pub const TAIL: usize = 6_000;

/// Instant the viral burst lands.
pub const BURST_AT: SimNanos = SimNanos::from_secs(1);

/// Window the burst's arrivals spread over — shorter than one fork boot,
/// so the whole burst is airborne before any of its boots complete.
pub const BURST_WIDTH: SimNanos = SimNanos::from_micros(500);

/// Burst size: arrivals for the viral function, 1.5× one node's capacity.
pub const BURST: usize = 3_000;

/// The function that goes viral (the Zipf head).
pub const VIRAL_FUNCTION: usize = 0;

/// The node-count axis of the grid.
pub const NODE_AXIS: [usize; 4] = [1, 2, 4, 8];

/// The placement-budget axis (skipped where the budget exceeds the nodes).
pub const BUDGET_AXIS: [usize; 2] = [1, 2];

/// Requests the closed-loop parity probe replays on both stacks.
pub const PARITY_REQUESTS: usize = 48;

/// One grid cell: a cluster shape × routing policy on the shared trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterCell {
    /// Nodes in the cluster.
    pub nodes: u64,
    /// Template replicas placed per function.
    pub placement_budget: u64,
    /// Routing policy label (`remote-fork` / `local-cold`).
    pub policy: String,
    /// Requests in the trace.
    pub requests: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests shed with every node at capacity.
    pub shed: u64,
    /// `completed / requests`.
    pub availability: f64,
    /// Requests served by a warm instance.
    pub reuses: u64,
    /// Requests served by a local sfork on a template holder.
    pub local: u64,
    /// Requests served by a remote sfork.
    pub remote: u64,
    /// Requests served by a cold boot.
    pub cold: u64,
    /// Requests pushed off the template-local nodes by saturation.
    pub reroutes: u64,
    /// Template transfers started.
    pub transfers: u64,
    /// Transfers that absorbed an injected fault.
    pub transfer_faults: u64,
    /// Background node repairs after poisoned transfers.
    pub node_repairs: u64,
    /// Instances reclaimed by keep-alive expiry.
    pub expirations: u64,
    /// Events the queue processed.
    pub events: u64,
    /// Virtual time of the last event.
    pub horizon: SimNanos,
    /// `cold / requests`.
    pub cold_rate: f64,
    /// Most instances ever live at once on any node.
    pub peak_node_instances: u64,
    /// Per-node peak instance counts.
    pub per_node_peak: Vec<u64>,
    /// Startup distribution across every served request.
    pub startup: QuantRow,
    /// End-to-end (startup + execution) distribution.
    pub end_to_end: QuantRow,
    /// Startup distribution of the remote-sfork rung alone.
    pub remote_startup: QuantRow,
    /// Startup distribution of the cold rung alone.
    pub cold_startup: QuantRow,
    /// FNV-1a digest of every routing decision in order.
    pub route_hash: u64,
}

/// The single-node closed-loop equivalence probe.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParityProbe {
    /// Requests replayed on both stacks.
    pub requests: u64,
    /// FNV-1a digest of the plain `Gateway<CatalyzerEngine>` run: every
    /// span tree plus the final gateway metrics.
    pub gateway_digest: u64,
    /// The same digest over the single-node cluster's node-0 gateway.
    pub cluster_digest: u64,
    /// `gateway_digest == cluster_digest`.
    pub matches: bool,
}

/// The whole `BENCH_pr8.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterBenchExport {
    /// Format tag ([`SCHEMA`]).
    pub schema: String,
    /// Machine model the latencies were simulated on.
    pub machine: String,
    /// Catalogue/trace seed.
    pub seed: u64,
    /// Functions in the catalogue.
    pub functions: u64,
    /// Zipf exponent of baseline popularity.
    pub zipf_exponent: f64,
    /// Keep-alive every cell runs with.
    pub keep_alive: SimNanos,
    /// Warm instances retained per (node, function).
    pub max_idle: u64,
    /// Concurrent-instance cap per node.
    pub node_capacity: u64,
    /// Poisson baseline rate.
    pub base_rate_hz: f64,
    /// Viral burst size.
    pub burst: u64,
    /// Burst window width.
    pub burst_width: SimNanos,
    /// RDMA setup cost per transfer.
    pub transfer_setup: SimNanos,
    /// Per-page one-sided read cost.
    pub transfer_per_page: SimNanos,
    /// Fraction of the template shipped eagerly.
    pub eager_fraction: f64,
    /// Registry pull paid by a cold boot on a non-holder node.
    pub cold_pull: SimNanos,
    /// Single-node closed-loop equivalence probe.
    pub parity: ParityProbe,
    /// The grid, in axis order (nodes, then budget, then policy).
    pub cells: Vec<ClusterCell>,
    /// The remote-fork shape under a poisoned transfer fabric.
    pub storm: ClusterCell,
}

fn fnv_bytes(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash = (*hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// The grid catalogue: [`FUNCTIONS`] functions cycling the fourteen paper
/// profiles — every function gets its own name (its own placement,
/// routing, and warm set) while the underlying cost shapes repeat, so the
/// per-cell calibration pass stays a fixed fourteen shapes instead of
/// growing with the catalogue.
fn cluster_catalogue() -> Vec<AppProfile> {
    let bases = catalogue::fig1_functions();
    (0..FUNCTIONS)
        .map(|i| {
            let mut p = bases[i % bases.len()].clone();
            p.name = format!("{}-{i:05}", p.name);
            p
        })
        .collect()
}

/// The shared flash-crowd trace: a Zipf Poisson baseline with [`BURST`]
/// extra arrivals for [`VIRAL_FUNCTION`] spread evenly over
/// [`BURST_WIDTH`] at [`BURST_AT`].
fn flash_crowd_trace() -> Vec<TraceRequest> {
    let spec = TraceSpec {
        functions: FUNCTIONS,
        count: TAIL,
        arrivals: Arrivals::Poisson {
            rate_hz: BASE_RATE_HZ,
        },
        popularity: Popularity::Zipf {
            exponent: ZIPF_EXPONENT,
        },
        seed: SEED,
    };
    let mut trace: Vec<TraceRequest> = open_loop(&spec)
        .into_iter()
        .map(|r| TraceRequest {
            arrival: r.arrival,
            function: r.function,
        })
        .collect();
    let step = BURST_WIDTH.as_nanos().max(1) / BURST as u64;
    for i in 0..BURST {
        trace.push(TraceRequest {
            arrival: BURST_AT.saturating_add(SimNanos::from_nanos(step.saturating_mul(i as u64))),
            function: VIRAL_FUNCTION,
        });
    }
    trace.sort_by_key(|r| r.arrival);
    trace
}

fn cell_row(
    nodes: usize,
    budget: usize,
    policy: RoutingPolicy,
    requests: usize,
    outcome: &ClusterOutcome,
) -> ClusterCell {
    ClusterCell {
        nodes: u64::try_from(nodes).unwrap_or(u64::MAX),
        placement_budget: u64::try_from(budget).unwrap_or(u64::MAX),
        policy: policy.label().to_string(),
        requests: u64::try_from(requests).unwrap_or(u64::MAX),
        completed: outcome.completed,
        shed: outcome.shed,
        availability: outcome.goodput,
        reuses: outcome.reuses,
        local: outcome.local,
        remote: outcome.remote,
        cold: outcome.cold,
        reroutes: outcome.reroutes,
        transfers: outcome.transfers,
        transfer_faults: outcome.transfer_faults,
        node_repairs: outcome.node_repairs,
        expirations: outcome.expirations,
        events: outcome.events,
        horizon: outcome.horizon,
        cold_rate: outcome.cold_rate,
        peak_node_instances: u64::try_from(outcome.peak_node_instances).unwrap_or(u64::MAX),
        per_node_peak: outcome
            .per_node_peak
            .iter()
            .map(|&p| u64::try_from(p).unwrap_or(u64::MAX))
            .collect(),
        startup: outcome.startup.into(),
        end_to_end: outcome.end_to_end.into(),
        remote_startup: outcome.remote_startup.into(),
        cold_startup: outcome.cold_startup.into(),
        route_hash: outcome.route_hash,
    }
}

fn run_cell(
    model: &CostModel,
    cat: &[AppProfile],
    trace: &[TraceRequest],
    nodes: usize,
    budget: usize,
    policy: RoutingPolicy,
    plan: Option<FaultPlan>,
) -> Result<ClusterCell, PlatformError> {
    let mut config = ClusterConfig::new(nodes, budget);
    config.routing = policy;
    let mut sim = ClusterSim::new(cat.to_vec(), config)
        .with_model(model.clone())
        .with_keep_alive(KEEP_ALIVE)
        .with_max_idle(MAX_IDLE)
        .with_node_capacity(NODE_CAPACITY);
    if let Some(plan) = plan {
        sim = sim.with_faults(plan);
    }
    let outcome = sim.run_cluster(trace)?;
    Ok(cell_row(nodes, budget, policy, trace.len(), &outcome))
}

/// Folds one served invocation into a parity digest: the full span tree
/// plus the latency split.
fn fold_invocation(hash: &mut u64, invocation: &Invocation) -> Result<(), PlatformError> {
    let spans =
        serde_json::to_string(&invocation.trace).map_err(|e| PlatformError::ClusterConfig {
            detail: format!("parity digest serialization failed: {e}"),
        })?;
    fnv_bytes(hash, spans.as_bytes());
    fnv_bytes(hash, &invocation.report.boot.as_nanos().to_le_bytes());
    fnv_bytes(hash, &invocation.report.exec.as_nanos().to_le_bytes());
    fnv_bytes(hash, &invocation.queued.as_nanos().to_le_bytes());
    Ok(())
}

fn fold_metrics(hash: &mut u64, metrics: &simtime::MetricsRegistry) -> Result<(), PlatformError> {
    let text = serde_json::to_string(metrics).map_err(|e| PlatformError::ClusterConfig {
        detail: format!("parity digest serialization failed: {e}"),
    })?;
    fnv_bytes(hash, text.as_bytes());
    Ok(())
}

/// The request sequence both parity stacks replay: the two C profiles,
/// interleaved.
fn parity_sequence() -> Vec<&'static str> {
    (0..PARITY_REQUESTS)
        .map(|i| if i % 2 == 0 { "C-hello" } else { "C-Nginx" })
        .collect()
}

/// Replays the parity sequence on a plain gateway and on a single-node
/// cluster, digesting span trees and metrics from both.
fn parity_probe(model: &CostModel) -> Result<ParityProbe, PlatformError> {
    let sequence = parity_sequence();

    let mut gateway = Gateway::new(CatalyzerEngine::standalone(BootMode::Fork), model.clone());
    gateway.register(AppProfile::c_hello());
    gateway.register(AppProfile::c_nginx());
    let mut gateway_digest = 0xcbf2_9ce4_8422_2325u64;
    for function in &sequence {
        let invocation = gateway.invoke_detailed(function)?;
        fold_invocation(&mut gateway_digest, &invocation)?;
    }
    fold_metrics(&mut gateway_digest, gateway.metrics())?;

    let mut cluster = Cluster::new(ClusterConfig::new(1, 1), model)?;
    cluster.register(AppProfile::c_hello());
    cluster.register(AppProfile::c_nginx());
    let mut cluster_digest = 0xcbf2_9ce4_8422_2325u64;
    for function in &sequence {
        let (_, invocation) = cluster.call(function, None)?;
        fold_invocation(&mut cluster_digest, &invocation)?;
    }
    let node = cluster
        .nodes()
        .first()
        .ok_or(PlatformError::ClusterConfig {
            detail: "single-node cluster has no node 0".into(),
        })?;
    fold_metrics(&mut cluster_digest, node.gateway().metrics())?;

    Ok(ParityProbe {
        requests: u64::try_from(sequence.len()).unwrap_or(u64::MAX),
        gateway_digest,
        cluster_digest,
        matches: gateway_digest == cluster_digest,
    })
}

/// The storm injector: every transfer consult fires, always poison, so the
/// fabric breaks on first use and background repairs must restore it.
fn storm_plan() -> FaultPlan {
    FaultPlan::zero(SEED)
        .with_point(
            InjectionPoint::TemplateTransfer,
            PointPlan {
                rate: 1.0,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        )
        .with_poison_ratio(1.0)
}

/// Runs the grid, the parity probe, and the storm.
///
/// # Errors
///
/// Propagates [`PlatformError`] from the engines (none in practice: the
/// generated traces and configs are valid by construction).
pub fn generate(model: &CostModel) -> Result<ClusterBenchExport, PlatformError> {
    let cat = cluster_catalogue();
    let trace = flash_crowd_trace();
    let costs = TransferCosts::rdma_defaults();

    let mut cells = Vec::new();
    for nodes in NODE_AXIS {
        for budget in BUDGET_AXIS {
            if budget > nodes {
                continue;
            }
            for policy in [RoutingPolicy::RemoteFork, RoutingPolicy::LocalCold] {
                cells.push(run_cell(model, &cat, &trace, nodes, budget, policy, None)?);
            }
        }
    }
    let storm = run_cell(
        model,
        &cat,
        &trace,
        4,
        1,
        RoutingPolicy::RemoteFork,
        Some(storm_plan()),
    )?;
    let parity = parity_probe(model)?;

    Ok(ClusterBenchExport {
        schema: SCHEMA.to_string(),
        machine: model.machine.label().to_string(),
        seed: SEED,
        functions: u64::try_from(FUNCTIONS).unwrap_or(u64::MAX),
        zipf_exponent: ZIPF_EXPONENT,
        keep_alive: KEEP_ALIVE,
        max_idle: u64::try_from(MAX_IDLE).unwrap_or(u64::MAX),
        node_capacity: u64::try_from(NODE_CAPACITY).unwrap_or(u64::MAX),
        base_rate_hz: BASE_RATE_HZ,
        burst: u64::try_from(BURST).unwrap_or(u64::MAX),
        burst_width: BURST_WIDTH,
        transfer_setup: costs.setup,
        transfer_per_page: costs.per_page,
        eager_fraction: costs.eager_fraction,
        cold_pull: costs.cold_pull,
        parity,
        cells,
        storm,
    })
}

/// Serializes an export to its canonical JSON form.
///
/// # Errors
///
/// Serialization errors (none in practice: the types are closed).
pub fn to_json(export: &ClusterBenchExport) -> Result<String, serde_json::Error> {
    serde_json::to_string(export)
}

/// Parses a previously exported document.
///
/// # Errors
///
/// Malformed JSON or schema drift.
pub fn from_json(text: &str) -> Result<ClusterBenchExport, serde_json::Error> {
    serde_json::from_str(text)
}

fn check_conservation(tag: &str, cell: &ClusterCell) -> Result<(), String> {
    if cell.requests == 0 {
        return Err(format!("{tag}: empty cell"));
    }
    if cell.completed + cell.shed != cell.requests {
        return Err(format!("{tag}: completed + shed != requests"));
    }
    if cell.reuses + cell.local + cell.remote + cell.cold != cell.completed {
        return Err(format!("{tag}: rung counts do not sum to completions"));
    }
    let availability = cell.completed as f64 / cell.requests as f64;
    if (cell.availability - availability).abs() > 1e-9 {
        return Err(format!("{tag}: availability != completed / requests"));
    }
    if cell.startup.count != cell.completed || cell.end_to_end.count != cell.completed {
        return Err(format!("{tag}: latency samples != completions"));
    }
    if cell.policy == RoutingPolicy::LocalCold.label() && (cell.remote != 0 || cell.transfers != 0)
    {
        return Err(format!("{tag}: the no-remote-fork baseline remote-sforked"));
    }
    if cell.nodes == 1 && (cell.remote != 0 || cell.reroutes != 0) {
        return Err(format!("{tag}: a single node has nowhere to re-route"));
    }
    Ok(())
}

/// Validates an export's internal consistency and the claims the sweep
/// exists to demonstrate: the single-node cluster is byte-identical to the
/// plain gateway; every zero-fault remote-fork cell with a second node
/// holds availability 1.0 with zero cold boots while the local-cold
/// baseline cold-boots (or sheds) on the same trace and pays a worse
/// startup tail; and the storm absorbs transfer poison by degrading to
/// cold — never by shedding — while background repairs run.
///
/// # Errors
///
/// A description of the first violated invariant.
pub fn validate(export: &ClusterBenchExport) -> Result<(), String> {
    if export.schema != SCHEMA {
        return Err(format!(
            "schema mismatch: {} (expected {SCHEMA})",
            export.schema
        ));
    }
    if !export.parity.matches || export.parity.gateway_digest != export.parity.cluster_digest {
        return Err(format!(
            "single-node cluster diverged from the plain gateway: {:#x} vs {:#x}",
            export.parity.gateway_digest, export.parity.cluster_digest
        ));
    }

    let expected: usize = NODE_AXIS
        .iter()
        .map(|&n| 2 * BUDGET_AXIS.iter().filter(|&&b| b <= n).count())
        .sum();
    if export.cells.len() != expected {
        return Err(format!(
            "grid incomplete: {} cells (expected {expected})",
            export.cells.len()
        ));
    }

    for cell in &export.cells {
        let tag = format!(
            "cell {}n/{}r/{}",
            cell.nodes, cell.placement_budget, cell.policy
        );
        check_conservation(&tag, cell)?;
        if cell.transfer_faults != 0 || cell.node_repairs != 0 {
            return Err(format!("{tag}: faults fired without an injector"));
        }
    }

    // The headline comparison, per multi-node shape: the full ladder holds
    // availability 1.0 without a single cold boot; the baseline cold-boots
    // or sheds, and its startup tail is strictly worse.
    for &nodes in NODE_AXIS.iter().filter(|&&n| n > 1) {
        let pick = |policy: RoutingPolicy| {
            export.cells.iter().find(|c| {
                c.nodes == nodes as u64 && c.placement_budget == 1 && c.policy == policy.label()
            })
        };
        let forked = pick(RoutingPolicy::RemoteFork)
            .ok_or_else(|| format!("missing remote-fork cell for {nodes} nodes"))?;
        let baseline = pick(RoutingPolicy::LocalCold)
            .ok_or_else(|| format!("missing local-cold cell for {nodes} nodes"))?;
        if forked.shed != 0 || forked.availability < 1.0 {
            return Err(format!(
                "{nodes}-node remote-fork cell shed {} requests",
                forked.shed
            ));
        }
        if forked.cold != 0 {
            return Err(format!("{nodes}-node remote-fork cell cold-booted"));
        }
        if forked.remote == 0 || forked.transfers == 0 {
            return Err(format!(
                "{nodes}-node remote-fork cell never remote-sforked"
            ));
        }
        if baseline.cold == 0 && baseline.shed == 0 {
            return Err(format!(
                "{nodes}-node local-cold baseline neither cold-booted nor shed"
            ));
        }
        if forked.startup.p99 >= baseline.startup.p99 {
            return Err(format!(
                "{nodes}-node remote-fork p99 {:?} not under the cold baseline's {:?}",
                forked.startup.p99, baseline.startup.p99
            ));
        }
        if baseline.cold > 0 && forked.remote_startup.p99 >= baseline.cold_startup.p99 {
            return Err(format!(
                "{nodes}-node remote-sfork rung p99 {:?} not under the cold rung's {:?}",
                forked.remote_startup.p99, baseline.cold_startup.p99
            ));
        }
    }

    // A single node cannot absorb the burst: the capacity cliff the
    // multi-node cells climb over.
    if let Some(single) = export.cells.iter().find(|c| c.nodes == 1) {
        if single.shed == 0 {
            return Err("the single-node cell absorbed the burst — no cliff to demonstrate".into());
        }
    }

    check_conservation("storm", &export.storm)?;
    if export.storm.transfer_faults == 0 {
        return Err("storm: the poisoned transfer fabric never faulted".into());
    }
    if export.storm.node_repairs == 0 {
        return Err("storm: no background repairs ran".into());
    }
    if export.storm.cold == 0 {
        return Err("storm: poisoned transfers must degrade to cold boots".into());
    }
    if export.storm.shed != 0 || export.storm.availability < 1.0 {
        return Err(format!(
            "storm: degradation must preserve availability (shed {})",
            export.storm.shed
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_probe_matches_the_plain_gateway() {
        let model = CostModel::experimental_machine();
        let parity = parity_probe(&model).unwrap();
        assert!(
            parity.matches,
            "digests {:#x} vs {:#x}",
            parity.gateway_digest, parity.cluster_digest
        );
        assert_eq!(parity.requests, PARITY_REQUESTS as u64);
    }

    #[test]
    fn a_small_cell_is_deterministic_and_conserves_requests() {
        let model = CostModel::experimental_machine();
        let cat = vec![AppProfile::c_hello()];
        // More concurrent arrivals than one node holds, so the ladder has
        // to leave the local holder and the remote-fork rung fires.
        let requests = NODE_CAPACITY as u64 + 300;
        let trace: Vec<TraceRequest> = (0..requests)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_nanos(i),
                function: 0,
            })
            .collect();
        let run = || run_cell(&model, &cat, &trace, 4, 1, RoutingPolicy::RemoteFork, None).unwrap();
        let a = run();
        let b = run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        check_conservation("test", &a).unwrap();
        assert!(a.remote > 0, "{a:?}");
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let model = CostModel::experimental_machine();
        let parity = parity_probe(&model).unwrap();
        let cell = {
            let cat = vec![AppProfile::c_hello()];
            let trace: Vec<TraceRequest> = (0..100u64)
                .map(|i| TraceRequest {
                    arrival: SimNanos::from_nanos(i),
                    function: 0,
                })
                .collect();
            run_cell(&model, &cat, &trace, 2, 1, RoutingPolicy::RemoteFork, None).unwrap()
        };
        let export = ClusterBenchExport {
            schema: "catalyzer-bench/pr0-v0".to_string(),
            machine: "test".to_string(),
            seed: SEED,
            functions: 1,
            zipf_exponent: ZIPF_EXPONENT,
            keep_alive: KEEP_ALIVE,
            max_idle: MAX_IDLE as u64,
            node_capacity: NODE_CAPACITY as u64,
            base_rate_hz: BASE_RATE_HZ,
            burst: BURST as u64,
            burst_width: BURST_WIDTH,
            transfer_setup: SimNanos::ZERO,
            transfer_per_page: SimNanos::ZERO,
            eager_fraction: 0.0,
            cold_pull: SimNanos::ZERO,
            parity,
            cells: vec![cell.clone()],
            storm: cell,
        };
        let err = validate(&export).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }
}
