//! The open-loop cluster engine: calibrated per-node costs, template
//! transfers and node repairs as event classes, fleet-scale traces.
//!
//! [`Cluster`](super::Cluster) serves requests through real per-node
//! gateways — full fidelity, closed loop. This module is its open-loop
//! sibling, built on the same discrete-event core as
//! [`Simulation::run_fleet`](crate::simulate::Simulation::run_fleet):
//! per-boot microstructure is calibrated once per distinct cost shape (and
//! memoized for the whole process), and the trace then flows through the
//! event queue at 10k-function scale. The cluster dynamics the bench
//! sweeps — placement budget versus remote-fork traffic, flash crowds
//! saturating the template holders, transfer faults degrading down the
//! ladder — all live in the event loop:
//!
//! - **local** — a template-holder node under capacity sforks at the
//!   calibrated steady fork cost;
//! - **remote** — holders saturated: a non-holder starts (or joins) a
//!   template transfer ([`Event::TransferComplete`]) and forks when it
//!   lands. The transfer consults [`InjectionPoint::TemplateTransfer`]; a
//!   poison corrupts the in-flight replica, the request degrades to a cold
//!   boot, and a background [`Event::NodeRepair`] heals the fabric;
//! - **cold** — no reachable template (or the [`RoutingPolicy::LocalCold`]
//!   baseline): pay the registry pull once per node, then the full cold
//!   boot;
//! - **shed** — every node at capacity.
//!
//! Holder nodes are *provisioned*: their templates are built offline (the
//! placement budget is exactly the provisioned-concurrency knob), so a
//! holder's first boot already runs at the steady fork cost.
//!
//! Determinism is byte-exact: same catalogue, config, knobs, and trace —
//! same [`ClusterOutcome`], including the routing-decision hash.

use std::sync::{Mutex, PoisonError};

use faultsim::{FaultInjector, FaultKind, FaultPlan, InjectionPoint, NodePlan};
use runtimes::AppProfile;
use sandbox::BootCtx;
use serde::Serialize;
use simtime::names;
use simtime::{CostModel, LatencyHistogram, MetricsRegistry, SimNanos};

use super::chaos::{ChaosEvent, ChaosPolicy, ChaosRecord, ChaosState, NodeHealth};
use super::{ClusterConfig, RoutingPolicy};
use crate::resilience::{resilient_boot, ResiliencePolicy};
use crate::simulate::fleet::by_shape;
use crate::simulate::{
    validate_trace, Arena, Event, EventQueue, FnId, InstanceId, Quantiles, TraceRequest,
    REUSE_HANDOFF,
};
use crate::PlatformError;

use catalyzer::{BootMode, CatalyzerEngine};

/// How one request was served — the alphabet of the routing history hash.
const ROUTE_REUSE: u64 = 0;
const ROUTE_LOCAL: u64 = 1;
const ROUTE_REMOTE: u64 = 2;
const ROUTE_COLD: u64 = 3;
const ROUTE_SHED: u64 = 4;
/// The request was routed at a node the fabric could not reach (crash or
/// partition) and failed typed — chaos runs only.
const ROUTE_FAILED: u64 = 5;

/// Builder for an open-loop cluster run: the catalogue, the cluster shape,
/// and the per-node serving knobs.
#[derive(Debug)]
pub struct ClusterSim {
    catalogue: Vec<AppProfile>,
    config: ClusterConfig,
    model: CostModel,
    keep_alive: SimNanos,
    max_idle: usize,
    /// Per-node concurrent-instance cap; `0` means unbounded.
    node_capacity: usize,
    plan: Option<FaultPlan>,
    /// Retry backoff charged when a transfer absorbs a transient or stall.
    backoff: SimNanos,
    /// Background delay before a poisoned transfer fabric is repaired.
    repair_delay: SimNanos,
    /// Node-level fault schedule and failover policy, consulted only by
    /// [`ClusterSim::run_chaos`] — [`ClusterSim::run_cluster`] never reads
    /// it, so installing chaos cannot perturb the plain grid.
    chaos: Option<(NodePlan, ChaosPolicy)>,
}

impl ClusterSim {
    /// A cluster simulation over `catalogue` with shape `config` and
    /// defaults matching the single-node fleet engine: 5 s keep-alive, a
    /// warm set of 4 per (node, function), unbounded node capacity.
    pub fn new(catalogue: impl Into<Vec<AppProfile>>, config: ClusterConfig) -> ClusterSim {
        ClusterSim {
            catalogue: catalogue.into(),
            config,
            model: CostModel::experimental_machine(),
            keep_alive: SimNanos::from_secs(5),
            max_idle: 4,
            node_capacity: 0,
            plan: None,
            backoff: SimNanos::from_micros(200),
            repair_delay: SimNanos::from_millis(5),
            chaos: None,
        }
    }

    /// Replaces the cost model, builder-style.
    pub fn with_model(mut self, model: CostModel) -> ClusterSim {
        self.model = model;
        self
    }

    /// Sets the keep-alive window, builder-style.
    pub fn with_keep_alive(mut self, keep_alive: SimNanos) -> ClusterSim {
        self.keep_alive = keep_alive;
        self
    }

    /// Caps the warm set per (node, function), builder-style.
    pub fn with_max_idle(mut self, max_idle: usize) -> ClusterSim {
        self.max_idle = max_idle;
        self
    }

    /// Caps concurrent instances per node (`0` = unbounded), builder-style
    /// — the density axis of the bench sweep.
    pub fn with_node_capacity(mut self, node_capacity: usize) -> ClusterSim {
        self.node_capacity = node_capacity;
        self
    }

    /// Arms the deterministic fault injector with `plan`, builder-style.
    /// Only the template-transfer seam is consulted at cluster fleet
    /// scale; boot-path faults are the single-node engines' concern.
    pub fn with_faults(mut self, plan: FaultPlan) -> ClusterSim {
        self.plan = Some(plan);
        self
    }

    /// Sets the background repair delay after a poisoned transfer,
    /// builder-style.
    pub fn with_repair_delay(mut self, repair_delay: SimNanos) -> ClusterSim {
        self.repair_delay = repair_delay;
        self
    }

    /// Installs a node-level fault schedule and failover policy,
    /// builder-style. Drive the run with [`ClusterSim::run_chaos`];
    /// [`ClusterSim::run_cluster`] ignores this field entirely.
    pub fn with_chaos(mut self, plan: NodePlan, policy: ChaosPolicy) -> ClusterSim {
        self.chaos = Some((plan, policy));
        self
    }
}

/// What one open-loop cluster run produced: the nodes × placement-budget ×
/// routing-policy grid cell.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterOutcome {
    /// Requests in the trace.
    pub requests: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests shed with every node at capacity.
    pub shed: u64,
    /// Requests served by a warm instance.
    pub reuses: u64,
    /// Requests served by a local sfork on a template holder.
    pub local: u64,
    /// Requests served by a remote sfork (transfer started or joined).
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
    /// Most instances ever live at once, per node — the density profile
    /// placement is trading against.
    pub per_node_peak: Vec<usize>,
    /// `max(per_node_peak)`.
    pub peak_node_instances: usize,
    /// `completed / requests`.
    pub goodput: f64,
    /// `cold / requests` — what the remote rung is suppressing.
    pub cold_rate: f64,
    /// Startup-latency distribution across every served request.
    pub startup: Quantiles,
    /// End-to-end (startup + execution) distribution.
    pub end_to_end: Quantiles,
    /// Startup distribution of the remote-sfork rung alone.
    pub remote_startup: Quantiles,
    /// Startup distribution of the cold rung alone.
    pub cold_startup: Quantiles,
    /// FNV-1a digest of every routing decision `(request, node, kind)` in
    /// order — two same-seed runs must agree byte-for-byte.
    pub route_hash: u64,
    /// Cluster counter rollup (`cluster.*`).
    pub metrics: MetricsRegistry,
}

/// What one chaos run produced: the plain cluster outcome plus the
/// fault/repair ledger. A separate struct — not new [`ClusterOutcome`]
/// fields — so the chaos layer cannot move a byte of the plain grid's
/// serialized output.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosOutcome {
    /// The underlying cluster outcome. Conservation under chaos is
    /// `cluster.completed + cluster.shed + failed == cluster.requests`.
    pub cluster: ClusterOutcome,
    /// Requests that failed outright: killed in flight by a crash, routed
    /// at an unreachable node, or hung on an orphaned transfer. Failures,
    /// not sheds — capacity existed, the fabric (or the policy) lost them.
    pub failed: u64,
    /// Of `failed`: transfer waiters still stranded when the run ended
    /// (the no-failover baseline's signature pathology).
    pub hung: u64,
    /// Scheduled node crashes that fired.
    pub crashes: u64,
    /// Heartbeat rounds the health tracker ran.
    pub heartbeats: u64,
    /// Heartbeat transitions into `Suspect` — gray nodes caught slow-ack.
    pub suspected: u64,
    /// Waiters re-routed off an aborted transfer by the failover policy.
    pub failovers: u64,
    /// Template replicas rebuilt on new holders after a crash.
    pub rereplications: u64,
    /// Hedged (second-source) transfers fired.
    pub hedges: u64,
    /// Hedges that beat their primary (the loser's completion lazy-misses
    /// on its stale generation).
    pub hedge_wins: u64,
    /// In-flight transfers aborted by a source-node crash.
    pub aborted_transfers: u64,
    /// Requests that failed typed at an unreachable node.
    pub unreachable: u64,
    /// `completed / requests` — the survivability gate's headline number.
    pub availability: f64,
    /// The chaos observation history, in order — byte-identical across
    /// same-seed runs.
    pub chaos_log: Vec<ChaosRecord>,
}

/// Calibrated per-function costs.
struct ClusterFn {
    /// Steady-state local sfork on a provisioned holder.
    boot: SimNanos,
    /// Handler execution.
    exec: SimNanos,
    /// Template transfer to a non-holder (from the cost model).
    transfer: SimNanos,
    /// Full cold boot (restore path), excluding the registry pull.
    cold_boot: SimNanos,
}

/// Index of `(node, function)` in the flat per-node function-state table.
fn slot_index(node: usize, width: usize, function: usize) -> usize {
    node * width + function
}

/// Per-(node, function) serving state.
#[derive(Default)]
struct NodeFn {
    /// The node holds a usable template replica (placement holder, or a
    /// completed transfer).
    has_template: bool,
    /// An in-flight transfer lands at this instant.
    transfer_done: Option<SimNanos>,
    /// The cold image has been pulled to this node already.
    pulled: bool,
    /// LIFO warm stack (lazily pruned against the arena generation).
    idle: Vec<InstanceId>,
    /// Warm instances actually live.
    idle_live: usize,
}

/// Per-node aggregates.
#[derive(Default)]
struct NodeState {
    /// Instances (busy + warm) live on the node.
    live: usize,
    /// High-water mark of `live`.
    peak: usize,
    /// A repair event is already queued for this node.
    repair_pending: bool,
}

/// One live instance slot.
struct Slot {
    node: usize,
    function: FnId,
    request: u64,
    busy: bool,
    idle_since: SimNanos,
}

/// One in-flight template transfer under chaos. Unlike the plain engine's
/// `transfer_done` instant, a chaos transfer is a first-class object: it
/// knows its source (so a source crash can abort it), carries a generation
/// (so a cancelled or hedged-out completion lazy-misses), and holds its
/// waiters (so the initiator and every joiner share one fate — the
/// timeout/degrade path the plain engine's joiners never had).
struct Transfer {
    /// Generation this transfer's events carry; stale events miss.
    gen: u32,
    /// The holder node sourcing the template.
    source: usize,
    /// When the template lands — [`SimNanos::MAX`] marks an orphan whose
    /// source crashed under the no-failover baseline.
    done: SimNanos,
    /// A hedge already fired (or is suppressed) for this transfer.
    hedged: bool,
    /// Requests (and their reserved instances) forking when it lands.
    waiters: Vec<(u64, InstanceId)>,
}

/// Per-(node, function) serving state under chaos.
#[derive(Default)]
struct ChaosFn {
    /// The node physically holds a usable template replica.
    has_template: bool,
    /// The in-flight transfer targeting this node, if any.
    transfer: Option<Transfer>,
    /// Monotone per-slot generation source: every transfer (and every
    /// orphaning) takes the next value, so no stale event ever collides.
    gen_counter: u32,
    /// The cold image has been pulled to this node already.
    pulled: bool,
    /// LIFO warm stack (lazily pruned against the arena generation).
    idle: Vec<InstanceId>,
    /// Warm instances actually live.
    idle_live: usize,
}

/// `t` stretched by a gray node's latency multiplier; the healthy `1.0`
/// case takes the untouched value, not a `scale(1.0)` round-trip.
fn stretch(t: SimNanos, slowdown: f64) -> SimNanos {
    if slowdown > 1.0 {
        t.scale(slowdown)
    } else {
        t
    }
}

fn mix(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
}

impl ClusterSim {
    /// Drives `trace` through the open-loop cluster engine — see the
    /// module docs for the rung semantics. This is the entry point the
    /// `BENCH_pr8` grid sweeps.
    ///
    /// # Errors
    ///
    /// [`PlatformError::ClusterConfig`] for a zero node count or placement
    /// budget; [`PlatformError::InvalidTrace`] for malformed traces;
    /// engine or handler errors surfaced during calibration.
    pub fn run_cluster(mut self, trace: &[TraceRequest]) -> Result<ClusterOutcome, PlatformError> {
        self.config.ensure_valid()?;
        validate_trace(trace, self.catalogue.len())?;
        let fns = self.calibrate()?;
        let nodes = self.config.nodes;
        let cap = if self.node_capacity == 0 {
            usize::MAX
        } else {
            self.node_capacity
        };
        let mut injector = self.plan.take().map(FaultInjector::new);

        // Placement: the same round-robin spread as the closed-loop
        // scheduler — holders are provisioned (template built offline).
        let replicas = self.config.placement_budget.min(nodes);
        let mut state: Vec<NodeFn> = Vec::new();
        state.resize_with(nodes.saturating_mul(fns.len()), NodeFn::default);
        for f in 0..fns.len() {
            for r in 0..replicas {
                let node = (f + r) % nodes;
                state[slot_index(node, fns.len(), f)].has_template = true;
            }
        }
        let mut node_state: Vec<NodeState> = Vec::new();
        node_state.resize_with(nodes, NodeState::default);

        let mut instances: Arena<Slot> = Arena::with_capacity(trace.len().min(1 << 20));
        let mut queue = EventQueue::with_capacity(trace.len().saturating_mul(2));
        for (i, req) in trace.iter().enumerate() {
            queue.schedule(req.arrival, Event::Arrival { request: i as u64 });
        }

        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut reuses = 0u64;
        let mut local = 0u64;
        let mut remote = 0u64;
        let mut cold = 0u64;
        let mut reroutes = 0u64;
        let mut transfers = 0u64;
        let mut transfer_faults = 0u64;
        let mut node_repairs = 0u64;
        let mut expirations = 0u64;
        let mut horizon = SimNanos::ZERO;
        let mut startup_hist = LatencyHistogram::new();
        let mut e2e_hist = LatencyHistogram::new();
        let mut remote_hist = LatencyHistogram::new();
        let mut cold_hist = LatencyHistogram::new();
        let mut route_hash = 0xcbf2_9ce4_8422_2325u64;

        while let Some((now, event)) = queue.pop() {
            horizon = now;
            match event {
                Event::Arrival { request } => {
                    let Some(req) = trace.get(usize::try_from(request).unwrap_or(usize::MAX))
                    else {
                        continue;
                    };
                    let Some(f) = fns.get(req.function) else {
                        continue;
                    };
                    let fnid = FnId::from_index(req.function);
                    let nf = |node: usize| slot_index(node, fns.len(), req.function);

                    // Rung 0 — reuse: the lowest-indexed node with a live
                    // warm instance serves at the hand-off cost.
                    let mut warm = None;
                    for node in 0..nodes {
                        let s = &mut state[nf(node)];
                        while let Some(id) = s.idle.pop() {
                            if instances.contains(id) {
                                s.idle_live = s.idle_live.saturating_sub(1);
                                warm = Some((node, id));
                                break;
                            }
                        }
                        if warm.is_some() {
                            break;
                        }
                    }
                    if let Some((node, id)) = warm {
                        if let Some(slot) = instances.get_mut(id) {
                            slot.busy = true;
                            slot.request = request;
                        }
                        reuses += 1;
                        startup_hist.record(REUSE_HANDOFF);
                        e2e_hist.record(REUSE_HANDOFF.saturating_add(f.exec));
                        mix(&mut route_hash, request);
                        mix(&mut route_hash, node as u64);
                        mix(&mut route_hash, ROUTE_REUSE);
                        queue.schedule(
                            now.saturating_add(REUSE_HANDOFF).saturating_add(f.exec),
                            Event::ExecComplete {
                                request,
                                instance: Some(id),
                            },
                        );
                        continue;
                    }

                    // Rung 1 — local sfork on the least-loaded template
                    // holder under capacity.
                    let holder = (0..nodes)
                        .filter(|&n| state[nf(n)].has_template && node_state[n].live < cap)
                        .min_by_key(|&n| (node_state[n].live, n));
                    let (node, kind, cost) = if let Some(node) = holder {
                        local += 1;
                        (node, ROUTE_LOCAL, f.boot)
                    } else {
                        // Template-local nodes saturated (or nonexistent):
                        // the scheduler pushes the request off-holder. A
                        // re-route is only counted when some other node
                        // actually serves it — with nowhere to go, the
                        // request sheds and only the shed bucket moves.
                        let joinable = (0..nodes)
                            .filter(|&n| {
                                self.config.routing == RoutingPolicy::RemoteFork
                                    && state[nf(n)].transfer_done.is_some()
                                    && node_state[n].live < cap
                            })
                            .min_by_key(|&n| (node_state[n].live, n));
                        let transferable = (0..nodes)
                            .filter(|&n| {
                                self.config.routing == RoutingPolicy::RemoteFork
                                    && !state[nf(n)].has_template
                                    && state[nf(n)].transfer_done.is_none()
                                    && node_state[n].live < cap
                            })
                            .min_by_key(|&n| (node_state[n].live, n));
                        let coldable = (0..nodes)
                            .filter(|&n| node_state[n].live < cap)
                            .min_by_key(|&n| (node_state[n].live, n));
                        if let Some(node) = joinable {
                            // Rung 2a — join the in-flight transfer: fork
                            // the moment the template lands.
                            let done = state[nf(node)].transfer_done.unwrap_or(now);
                            reroutes += 1;
                            remote += 1;
                            let cost = done.saturating_sub(now).saturating_add(f.boot);
                            remote_hist.record(cost);
                            (node, ROUTE_REMOTE, cost)
                        } else if let Some(node) = transferable {
                            // Rung 2b — start a transfer from a holder.
                            reroutes += 1;
                            let mut wire = f.transfer;
                            let mut poisoned = false;
                            let mut detect = SimNanos::ZERO;
                            if let Some(injector) = &mut injector {
                                if let Some(fault) =
                                    injector.check(InjectionPoint::TemplateTransfer, now)
                                {
                                    transfer_faults += 1;
                                    if fault.kind == FaultKind::Poison {
                                        // The in-flight replica is corrupt:
                                        // degrade this request down the
                                        // ladder and repair the fabric in
                                        // the background.
                                        poisoned = true;
                                        detect = fault.delay;
                                        if !node_state[node].repair_pending {
                                            node_state[node].repair_pending = true;
                                            queue.schedule(
                                                now.saturating_add(self.repair_delay),
                                                Event::NodeRepair { node: node as u32 },
                                            );
                                        }
                                    } else {
                                        // Transient/stall: detection delay
                                        // plus one retry backoff, then the
                                        // retry goes through.
                                        wire = wire
                                            .saturating_add(fault.delay)
                                            .saturating_add(self.backoff);
                                    }
                                }
                            }
                            if poisoned {
                                let s = &mut state[nf(node)];
                                let mut cost = detect.saturating_add(f.cold_boot);
                                if !s.pulled {
                                    cost = cost.saturating_add(self.config.costs.cold_pull);
                                    s.pulled = true;
                                }
                                cold += 1;
                                cold_hist.record(cost);
                                (node, ROUTE_COLD, cost)
                            } else {
                                transfers += 1;
                                let done = now.saturating_add(wire);
                                state[nf(node)].transfer_done = Some(done);
                                queue.schedule(
                                    done,
                                    Event::TransferComplete {
                                        node: node as u32,
                                        function: fnid,
                                        gen: 0,
                                    },
                                );
                                remote += 1;
                                let cost = wire.saturating_add(f.boot);
                                remote_hist.record(cost);
                                (node, ROUTE_REMOTE, cost)
                            }
                        } else if let Some(node) = coldable {
                            // Rung 3 — cold: registry pull (once per node)
                            // plus the full cold boot. The LocalCold
                            // baseline always lands here.
                            reroutes += 1;
                            let s = &mut state[nf(node)];
                            let mut cost = f.cold_boot;
                            if !s.pulled {
                                cost = cost.saturating_add(self.config.costs.cold_pull);
                                s.pulled = true;
                            }
                            cold += 1;
                            cold_hist.record(cost);
                            (node, ROUTE_COLD, cost)
                        } else {
                            // Every node at capacity: shed.
                            shed += 1;
                            mix(&mut route_hash, request);
                            mix(&mut route_hash, u64::MAX);
                            mix(&mut route_hash, ROUTE_SHED);
                            continue;
                        }
                    };

                    mix(&mut route_hash, request);
                    mix(&mut route_hash, node as u64);
                    mix(&mut route_hash, kind);
                    let id = instances.insert(Slot {
                        node,
                        function: fnid,
                        request,
                        busy: true,
                        idle_since: SimNanos::ZERO,
                    });
                    let ns = &mut node_state[node];
                    ns.live += 1;
                    ns.peak = ns.peak.max(ns.live);
                    startup_hist.record(cost);
                    e2e_hist.record(cost.saturating_add(f.exec));
                    queue.schedule(
                        now.saturating_add(cost),
                        Event::BootComplete { instance: id },
                    );
                }
                Event::BootComplete { instance } => {
                    let Some(slot) = instances.get(instance) else {
                        continue;
                    };
                    let exec = fns
                        .get(slot.function.index())
                        .map_or(SimNanos::ZERO, |f| f.exec);
                    queue.schedule(
                        now.saturating_add(exec),
                        Event::ExecComplete {
                            request: slot.request,
                            instance: Some(instance),
                        },
                    );
                }
                Event::ExecComplete { instance, .. } => {
                    let Some(id) = instance else { continue };
                    let Some(slot) = instances.get_mut(id) else {
                        continue;
                    };
                    completed += 1;
                    let node = slot.node;
                    let function = slot.function;
                    let s = &mut state[slot_index(node, fns.len(), function.index())];
                    if s.idle_live < self.max_idle {
                        slot.busy = false;
                        slot.idle_since = now;
                        s.idle.push(id);
                        s.idle_live += 1;
                        queue.schedule(
                            now.saturating_add(self.keep_alive),
                            Event::KeepAliveExpiry { instance: id },
                        );
                    } else {
                        instances.remove(id);
                        node_state[node].live = node_state[node].live.saturating_sub(1);
                    }
                }
                Event::KeepAliveExpiry { instance } => {
                    let due = match instances.get(instance) {
                        Some(slot) if slot.busy => false,
                        Some(slot) => now.saturating_sub(slot.idle_since) >= self.keep_alive,
                        None => false,
                    };
                    if due {
                        if let Some(slot) = instances.remove(instance) {
                            expirations += 1;
                            let s =
                                &mut state[slot_index(slot.node, fns.len(), slot.function.index())];
                            s.idle_live = s.idle_live.saturating_sub(1);
                            node_state[slot.node].live =
                                node_state[slot.node].live.saturating_sub(1);
                        }
                    }
                }
                Event::TransferComplete { node, function, .. } => {
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    if let Some(s) = state.get_mut(slot_index(node, fns.len(), function.index())) {
                        s.transfer_done = None;
                        s.has_template = true;
                    }
                }
                Event::NodeRepair { node } => {
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    if let Some(ns) = node_state.get_mut(node) {
                        ns.repair_pending = false;
                        node_repairs += 1;
                        if let Some(injector) = &mut injector {
                            injector.heal(InjectionPoint::TemplateTransfer);
                        }
                    }
                }
                // Chaos-only classes: without a node plan the engine never
                // schedules them — the chaos layer is provably inert here.
                Event::PoolTick { .. }
                | Event::NodeCrash { .. }
                | Event::PartitionHeal { .. }
                | Event::HedgeFire { .. }
                | Event::HeartbeatTick { .. } => {}
            }
        }

        let per_node_peak: Vec<usize> = node_state.iter().map(|n| n.peak).collect();
        let peak_node_instances = per_node_peak.iter().copied().max().unwrap_or(0);
        let mut metrics = MetricsRegistry::new();
        metrics.add(names::CLUSTER_LOCAL, local);
        metrics.add(names::CLUSTER_REMOTE, remote);
        metrics.add(names::CLUSTER_COLD, cold);
        metrics.add(names::CLUSTER_REUSE, reuses);
        metrics.add(names::CLUSTER_SHED, shed);
        metrics.add(names::CLUSTER_REROUTES, reroutes);
        metrics.add(names::CLUSTER_TRANSFERS, transfers);
        metrics.add(names::CLUSTER_TRANSFER_FAULTS, transfer_faults);
        metrics.add(names::CLUSTER_NODE_REPAIRS, node_repairs);
        metrics.set_gauge(
            names::CLUSTER_PEAK_NODE_INSTANCES,
            i64::try_from(peak_node_instances).unwrap_or(i64::MAX),
        );

        let requests = u64::try_from(trace.len()).unwrap_or(u64::MAX);
        Ok(ClusterOutcome {
            requests,
            completed,
            shed,
            reuses,
            local,
            remote,
            cold,
            reroutes,
            transfers,
            transfer_faults,
            node_repairs,
            expirations,
            events: queue.scheduled(),
            horizon,
            per_node_peak,
            peak_node_instances,
            goodput: crate::simulate::fraction(completed, requests),
            cold_rate: crate::simulate::fraction(cold, requests),
            startup: Quantiles::from_histogram(&startup_hist),
            end_to_end: Quantiles::from_histogram(&e2e_hist),
            remote_startup: Quantiles::from_histogram(&remote_hist),
            cold_startup: Quantiles::from_histogram(&cold_hist),
            route_hash,
            metrics,
        })
    }

    /// Drives `trace` through the chaos-aware cluster engine: the same
    /// serving ladder as [`ClusterSim::run_cluster`], with the installed
    /// [`NodePlan`] misbehaving underneath and the [`ChaosPolicy`] deciding
    /// what the scheduler does about it — health-aware routing, holder
    /// re-replication, hedged transfers, and waiter timeouts under
    /// [`ChaosPolicy::full`]; static-placement routing that fails typed,
    /// hangs, and sheds under [`ChaosPolicy::none`].
    ///
    /// Requests end in exactly one of three buckets — completed, shed,
    /// failed — and `completed + shed + failed == requests` under every
    /// schedule. Rung counters (`local`, `remote`, ...) count *routings*:
    /// a request re-routed after a transfer abort is routed twice.
    ///
    /// # Errors
    ///
    /// [`PlatformError::ClusterConfig`] for a zero node count, zero
    /// placement budget, or a plan touching a node the cluster lacks;
    /// [`PlatformError::InvalidTrace`]; calibration errors.
    pub fn run_chaos(mut self, trace: &[TraceRequest]) -> Result<ChaosOutcome, PlatformError> {
        self.config.ensure_valid()?;
        validate_trace(trace, self.catalogue.len())?;
        let fns = self.calibrate()?;
        let nodes = self.config.nodes;
        let width = fns.len();
        let cap = if self.node_capacity == 0 {
            usize::MAX
        } else {
            self.node_capacity
        };
        let (plan, policy) = self
            .chaos
            .take()
            .unwrap_or((NodePlan::quiet(0), ChaosPolicy::full()));
        let mut chaos = ChaosState::new(plan, policy, nodes)?;

        let replicas = self.config.placement_budget.min(nodes);
        let original_holder = |node: usize, function: usize| -> bool {
            (0..replicas).any(|r| (function + r) % nodes == node)
        };
        let mut state: Vec<ChaosFn> = Vec::new();
        state.resize_with(nodes.saturating_mul(width), ChaosFn::default);
        for f in 0..width {
            for r in 0..replicas {
                state[slot_index((f + r) % nodes, width, f)].has_template = true;
            }
        }
        let mut node_state: Vec<NodeState> = Vec::new();
        node_state.resize_with(nodes, NodeState::default);

        let mut instances: Arena<Slot> = Arena::with_capacity(trace.len().min(1 << 20));
        let mut queue = EventQueue::with_capacity(trace.len().saturating_mul(2));
        for (i, req) in trace.iter().enumerate() {
            queue.schedule(req.arrival, Event::Arrival { request: i as u64 });
        }
        // The fault schedule becomes event classes: crashes fire as
        // `NodeCrash`, partition heals as `PartitionHeal` (epoch = plan
        // order). Partition *starts* and gray windows need no events —
        // reachability and slowdown are pure functions of the plan.
        for event in chaos.plan().events() {
            if event.fault == faultsim::NodeFault::Crash {
                queue.schedule(event.at, Event::NodeCrash { node: event.node });
            }
        }
        let heals: Vec<(SimNanos, u32)> = chaos
            .partitions()
            .enumerate()
            .map(|(epoch, (_, until, _))| (until, u32::try_from(epoch).unwrap_or(u32::MAX)))
            .collect();
        for (until, epoch) in heals {
            queue.schedule(until, Event::PartitionHeal { epoch });
        }
        let hb_end = trace.last().map_or(SimNanos::ZERO, |r| r.arrival);
        if policy.heartbeat_interval <= hb_end {
            queue.schedule(policy.heartbeat_interval, Event::HeartbeatTick { round: 0 });
        }

        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut failed = 0u64;
        let mut reuses = 0u64;
        let mut local = 0u64;
        let mut remote = 0u64;
        let mut cold = 0u64;
        let mut reroutes = 0u64;
        let mut transfers = 0u64;
        let mut expirations = 0u64;
        let mut crashes = 0u64;
        let mut failovers = 0u64;
        let mut rereplications = 0u64;
        let mut hedges = 0u64;
        let mut hedge_wins = 0u64;
        let mut aborted_transfers = 0u64;
        let mut unreachable = 0u64;
        let mut horizon = SimNanos::ZERO;
        let mut startup_hist = LatencyHistogram::new();
        let mut e2e_hist = LatencyHistogram::new();
        let mut remote_hist = LatencyHistogram::new();
        let mut cold_hist = LatencyHistogram::new();
        let mut route_hash = 0xcbf2_9ce4_8422_2325u64;

        while let Some((now, event)) = queue.pop() {
            horizon = now;
            match event {
                Event::Arrival { request } => {
                    let Some(req) = trace.get(usize::try_from(request).unwrap_or(usize::MAX))
                    else {
                        continue;
                    };
                    let Some(f) = fns.get(req.function) else {
                        continue;
                    };
                    let fnid = FnId::from_index(req.function);
                    let nf = |node: usize| slot_index(node, width, req.function);
                    // A failover re-arrival is served later than the trace
                    // arrival; its latency honestly includes the wait.
                    let lag = now.saturating_sub(req.arrival);
                    let reach: Vec<bool> = (0..nodes).map(|n| chaos.reachable(n, now)).collect();
                    let slow: Vec<f64> = (0..nodes).map(|n| chaos.slowdown(n, now)).collect();
                    // Full policy routes only at reachable nodes believed
                    // `Up`, falling back to any reachable node when the
                    // belief map offers none. The baseline believes static
                    // placement and routes anywhere — and pays for it.
                    let any_up = (0..nodes).any(|n| reach[n] && chaos.health(n) == NodeHealth::Up);
                    let elig: Vec<bool> = (0..nodes)
                        .map(|n| {
                            if !policy.failover {
                                true
                            } else {
                                reach[n] && (!any_up || chaos.health(n) == NodeHealth::Up)
                            }
                        })
                        .collect();
                    macro_rules! fail_unreachable {
                        ($node:expr) => {{
                            let node = $node;
                            failed += 1;
                            unreachable += 1;
                            chaos.record(now, node, ChaosEvent::Unreachable);
                            mix(&mut route_hash, request);
                            mix(&mut route_hash, node as u64);
                            mix(&mut route_hash, ROUTE_FAILED);
                            continue;
                        }};
                    }

                    // Rung 0 — reuse a warm instance on a routable node.
                    let mut warm = None;
                    for node in 0..nodes {
                        if !elig[node] {
                            continue;
                        }
                        let s = &mut state[nf(node)];
                        while let Some(id) = s.idle.pop() {
                            if instances.contains(id) {
                                s.idle_live = s.idle_live.saturating_sub(1);
                                warm = Some((node, id));
                                break;
                            }
                        }
                        if warm.is_some() {
                            break;
                        }
                    }
                    if let Some((node, id)) = warm {
                        if !reach[node] {
                            // Baseline only: the believed-warm node is on
                            // an island — the request fails typed.
                            fail_unreachable!(node);
                        }
                        if let Some(slot) = instances.get_mut(id) {
                            slot.busy = true;
                            slot.request = request;
                        }
                        reuses += 1;
                        let exec_s = stretch(f.exec, slow[node]);
                        startup_hist.record(lag.saturating_add(REUSE_HANDOFF));
                        e2e_hist.record(lag.saturating_add(REUSE_HANDOFF).saturating_add(exec_s));
                        mix(&mut route_hash, request);
                        mix(&mut route_hash, node as u64);
                        mix(&mut route_hash, ROUTE_REUSE);
                        queue.schedule(
                            now.saturating_add(REUSE_HANDOFF).saturating_add(exec_s),
                            Event::ExecComplete {
                                request,
                                instance: Some(id),
                            },
                        );
                        continue;
                    }

                    // Rung 1 — local sfork on a believed template holder.
                    // Full policy believes physical placement (crashes
                    // clear it, re-replication restores it); the baseline
                    // believes the original round-robin spread.
                    let believed = |state: &[ChaosFn], n: usize| {
                        if policy.failover {
                            state[nf(n)].has_template
                        } else {
                            original_holder(n, req.function) || state[nf(n)].has_template
                        }
                    };
                    let holder = (0..nodes)
                        .filter(|&n| elig[n] && believed(&state, n) && node_state[n].live < cap)
                        .min_by_key(|&n| (node_state[n].live, n));
                    if let Some(node) = holder {
                        if !reach[node] {
                            fail_unreachable!(node);
                        }
                        local += 1;
                        let cost = stretch(f.boot, slow[node]);
                        let exec_s = stretch(f.exec, slow[node]);
                        mix(&mut route_hash, request);
                        mix(&mut route_hash, node as u64);
                        mix(&mut route_hash, ROUTE_LOCAL);
                        let id = instances.insert(Slot {
                            node,
                            function: fnid,
                            request,
                            busy: true,
                            idle_since: SimNanos::ZERO,
                        });
                        let ns = &mut node_state[node];
                        ns.live += 1;
                        ns.peak = ns.peak.max(ns.live);
                        startup_hist.record(lag.saturating_add(cost));
                        e2e_hist.record(lag.saturating_add(cost).saturating_add(exec_s));
                        queue.schedule(
                            now.saturating_add(cost).saturating_add(exec_s),
                            Event::ExecComplete {
                                request,
                                instance: Some(id),
                            },
                        );
                        continue;
                    }

                    // Rung 2a — join the in-flight transfer: the joiner
                    // becomes a waiter with the same fate as the initiator
                    // (timeout and re-route on abort under the full
                    // policy; a hang under the baseline).
                    let joinable = (0..nodes)
                        .filter(|&n| {
                            self.config.routing == RoutingPolicy::RemoteFork
                                && elig[n]
                                && state[nf(n)].transfer.is_some()
                                && node_state[n].live < cap
                        })
                        .min_by_key(|&n| (node_state[n].live, n));
                    if let Some(node) = joinable {
                        if !reach[node] {
                            fail_unreachable!(node);
                        }
                        reroutes += 1;
                        remote += 1;
                        mix(&mut route_hash, request);
                        mix(&mut route_hash, node as u64);
                        mix(&mut route_hash, ROUTE_REMOTE);
                        let id = instances.insert(Slot {
                            node,
                            function: fnid,
                            request,
                            busy: true,
                            idle_since: SimNanos::ZERO,
                        });
                        let ns = &mut node_state[node];
                        ns.live += 1;
                        ns.peak = ns.peak.max(ns.live);
                        if let Some(t) = state[nf(node)].transfer.as_mut() {
                            t.waiters.push((request, id));
                        }
                        continue;
                    }

                    // Rung 2b — start a transfer from a holder the policy
                    // believes in. A gray source stretches the wire time —
                    // exactly what the hedge exists to beat.
                    let transferable = (0..nodes)
                        .filter(|&n| {
                            self.config.routing == RoutingPolicy::RemoteFork
                                && elig[n]
                                && !state[nf(n)].has_template
                                && state[nf(n)].transfer.is_none()
                                && node_state[n].live < cap
                        })
                        .min_by_key(|&n| (node_state[n].live, n));
                    let mut transfer_started = false;
                    if let Some(node) = transferable {
                        if !reach[node] {
                            fail_unreachable!(node);
                        }
                        let source = (0..nodes)
                            .filter(|&n| {
                                n != node
                                    && if policy.failover {
                                        state[nf(n)].has_template && reach[n]
                                    } else {
                                        original_holder(n, req.function)
                                            || state[nf(n)].has_template
                                    }
                            })
                            .min_by_key(|&n| (node_state[n].live, n));
                        match source {
                            Some(src) if !reach[src] => {
                                // Baseline only: the believed holder is
                                // gone — the transfer dies at setup.
                                fail_unreachable!(src);
                            }
                            Some(src) => {
                                reroutes += 1;
                                remote += 1;
                                transfers += 1;
                                mix(&mut route_hash, request);
                                mix(&mut route_hash, node as u64);
                                mix(&mut route_hash, ROUTE_REMOTE);
                                let id = instances.insert(Slot {
                                    node,
                                    function: fnid,
                                    request,
                                    busy: true,
                                    idle_since: SimNanos::ZERO,
                                });
                                let ns = &mut node_state[node];
                                ns.live += 1;
                                ns.peak = ns.peak.max(ns.live);
                                let wire = stretch(f.transfer, slow[src]);
                                let done = now.saturating_add(wire);
                                let s = &mut state[nf(node)];
                                let gen = s.gen_counter;
                                s.gen_counter += 1;
                                s.transfer = Some(Transfer {
                                    gen,
                                    source: src,
                                    done,
                                    hedged: !policy.failover,
                                    waiters: vec![(request, id)],
                                });
                                queue.schedule(
                                    done,
                                    Event::TransferComplete {
                                        node: node as u32,
                                        function: fnid,
                                        gen,
                                    },
                                );
                                if policy.failover {
                                    queue.schedule(
                                        now.saturating_add(policy.hedge_delay),
                                        Event::HedgeFire {
                                            node: node as u32,
                                            function: fnid,
                                            gen,
                                        },
                                    );
                                }
                                transfer_started = true;
                            }
                            // No holder left anywhere: fall to cold.
                            None => {}
                        }
                    }
                    if transfer_started {
                        continue;
                    }

                    // Rung 3 — cold: registry pull (once per node) plus
                    // the full cold boot.
                    let coldable = (0..nodes)
                        .filter(|&n| elig[n] && node_state[n].live < cap)
                        .min_by_key(|&n| (node_state[n].live, n));
                    if let Some(node) = coldable {
                        if !reach[node] {
                            fail_unreachable!(node);
                        }
                        reroutes += 1;
                        cold += 1;
                        let s = &mut state[nf(node)];
                        let mut cost = stretch(f.cold_boot, slow[node]);
                        if !s.pulled {
                            cost = cost.saturating_add(self.config.costs.cold_pull);
                            s.pulled = true;
                        }
                        let exec_s = stretch(f.exec, slow[node]);
                        mix(&mut route_hash, request);
                        mix(&mut route_hash, node as u64);
                        mix(&mut route_hash, ROUTE_COLD);
                        let id = instances.insert(Slot {
                            node,
                            function: fnid,
                            request,
                            busy: true,
                            idle_since: SimNanos::ZERO,
                        });
                        let ns = &mut node_state[node];
                        ns.live += 1;
                        ns.peak = ns.peak.max(ns.live);
                        cold_hist.record(lag.saturating_add(cost));
                        startup_hist.record(lag.saturating_add(cost));
                        e2e_hist.record(lag.saturating_add(cost).saturating_add(exec_s));
                        queue.schedule(
                            now.saturating_add(cost).saturating_add(exec_s),
                            Event::ExecComplete {
                                request,
                                instance: Some(id),
                            },
                        );
                        continue;
                    }

                    // Every routable node at capacity: shed.
                    shed += 1;
                    mix(&mut route_hash, request);
                    mix(&mut route_hash, u64::MAX);
                    mix(&mut route_hash, ROUTE_SHED);
                }
                Event::ExecComplete { instance, .. } => {
                    let Some(id) = instance else { continue };
                    let Some(slot) = instances.get_mut(id) else {
                        continue;
                    };
                    completed += 1;
                    let node = slot.node;
                    let function = slot.function;
                    let s = &mut state[slot_index(node, width, function.index())];
                    if s.idle_live < self.max_idle {
                        slot.busy = false;
                        slot.idle_since = now;
                        s.idle.push(id);
                        s.idle_live += 1;
                        queue.schedule(
                            now.saturating_add(self.keep_alive),
                            Event::KeepAliveExpiry { instance: id },
                        );
                    } else {
                        instances.remove(id);
                        node_state[node].live = node_state[node].live.saturating_sub(1);
                    }
                }
                Event::KeepAliveExpiry { instance } => {
                    let due = match instances.get(instance) {
                        Some(slot) if slot.busy => false,
                        Some(slot) => now.saturating_sub(slot.idle_since) >= self.keep_alive,
                        None => false,
                    };
                    if due {
                        if let Some(slot) = instances.remove(instance) {
                            expirations += 1;
                            let s = &mut state[slot_index(slot.node, width, slot.function.index())];
                            s.idle_live = s.idle_live.saturating_sub(1);
                            node_state[slot.node].live =
                                node_state[slot.node].live.saturating_sub(1);
                        }
                    }
                }
                Event::TransferComplete {
                    node,
                    function,
                    gen,
                } => {
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    let idx = slot_index(node, width, function.index());
                    let current = state
                        .get(idx)
                        .and_then(|s| s.transfer.as_ref())
                        .is_some_and(|t| t.gen == gen);
                    if !current {
                        // Stale generation: aborted, orphaned, hedged out,
                        // or the destination crashed — lazy miss.
                        continue;
                    }
                    let t = state[idx].transfer.take().unwrap_or(Transfer {
                        gen,
                        source: node,
                        done: now,
                        hedged: true,
                        waiters: Vec::new(),
                    });
                    state[idx].has_template = true;
                    let Some(f) = fns.get(function.index()) else {
                        continue;
                    };
                    let slowdown = chaos.slowdown(node, now);
                    let boot_s = stretch(f.boot, slowdown);
                    let exec_s = stretch(f.exec, slowdown);
                    for (request, id) in t.waiters {
                        if !instances.contains(id) {
                            continue;
                        }
                        let arrival = trace
                            .get(usize::try_from(request).unwrap_or(usize::MAX))
                            .map_or(now, |r| r.arrival);
                        let startup = now.saturating_sub(arrival).saturating_add(boot_s);
                        startup_hist.record(startup);
                        remote_hist.record(startup);
                        e2e_hist.record(startup.saturating_add(exec_s));
                        queue.schedule(
                            now.saturating_add(boot_s).saturating_add(exec_s),
                            Event::ExecComplete {
                                request,
                                instance: Some(id),
                            },
                        );
                    }
                }
                Event::NodeCrash { node } => {
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    crashes += 1;
                    chaos.record(now, node, ChaosEvent::Crash);
                    // 1. Kill sweep: every instance on the node dies; busy
                    // ones take their requests with them. Their pending
                    // events lazy-miss on the bumped arena generation.
                    let victims: Vec<InstanceId> = instances
                        .iter()
                        .filter(|(_, slot)| slot.node == node)
                        .map(|(id, _)| id)
                        .collect();
                    for id in victims {
                        if let Some(slot) = instances.remove(id) {
                            if slot.busy {
                                failed += 1;
                            }
                        }
                    }
                    if let Some(ns) = node_state.get_mut(node) {
                        ns.live = 0;
                    }
                    // 2. Clear the node's per-function state, remembering
                    // which templates it held for re-replication. A
                    // transfer *into* the dead node dies with it — its
                    // waiters were just killed above.
                    let mut held: Vec<usize> = Vec::new();
                    for fi in 0..width {
                        let s = &mut state[slot_index(node, width, fi)];
                        if s.has_template {
                            held.push(fi);
                        }
                        s.has_template = false;
                        s.pulled = false;
                        s.idle.clear();
                        s.idle_live = 0;
                        s.transfer = None;
                    }
                    // 3. Abort sweep: transfers *sourced* from the dead
                    // node lose their template mid-wire. The full policy
                    // times the waiters out onto a fresh route; the
                    // baseline orphans them — `done = MAX`, generation
                    // bumped so the pending completion lazy-misses, and
                    // the waiters hang.
                    for (n, ns) in node_state.iter_mut().enumerate() {
                        if n == node {
                            continue;
                        }
                        for fi in 0..width {
                            let idx = slot_index(n, width, fi);
                            let sourced = state[idx]
                                .transfer
                                .as_ref()
                                .is_some_and(|t| t.source == node);
                            if !sourced {
                                continue;
                            }
                            aborted_transfers += 1;
                            chaos.record(now, n, ChaosEvent::TransferAbort);
                            if policy.failover {
                                if let Some(t) = state[idx].transfer.take() {
                                    for (request, id) in t.waiters {
                                        if instances.remove(id).is_some() {
                                            ns.live = ns.live.saturating_sub(1);
                                        }
                                        failovers += 1;
                                        queue.schedule(
                                            now.saturating_add(policy.transfer_timeout),
                                            Event::Arrival { request },
                                        );
                                    }
                                }
                                chaos.record(now, n, ChaosEvent::Failover);
                            } else {
                                let s = &mut state[idx];
                                if let Some(t) = s.transfer.as_mut() {
                                    t.done = SimNanos::MAX;
                                    t.gen = s.gen_counter;
                                }
                                s.gen_counter += 1;
                            }
                        }
                    }
                    // 4. Re-replication: the full policy rebuilds each
                    // lost template back up to the placement budget, from
                    // the least-loaded surviving holder onto the lowest
                    // reachable non-holder.
                    if policy.failover {
                        for fi in held {
                            let holders: Vec<usize> = (0..nodes)
                                .filter(|&n| {
                                    state[slot_index(n, width, fi)].has_template
                                        && chaos.reachable(n, now)
                                })
                                .collect();
                            if holders.len() >= replicas {
                                continue;
                            }
                            let dest = (0..nodes).find(|&n| {
                                chaos.reachable(n, now)
                                    && !state[slot_index(n, width, fi)].has_template
                                    && state[slot_index(n, width, fi)].transfer.is_none()
                            });
                            let source = holders
                                .iter()
                                .copied()
                                .min_by_key(|&n| (node_state[n].live, n));
                            let (Some(dest), Some(src)) = (dest, source) else {
                                continue;
                            };
                            let Some(f) = fns.get(fi) else { continue };
                            let wire = self
                                .repair_delay
                                .saturating_add(stretch(f.transfer, chaos.slowdown(src, now)));
                            let idx = slot_index(dest, width, fi);
                            let s = &mut state[idx];
                            let gen = s.gen_counter;
                            s.gen_counter += 1;
                            s.transfer = Some(Transfer {
                                gen,
                                source: src,
                                done: now.saturating_add(wire),
                                // Background repairs are not hedged.
                                hedged: true,
                                waiters: Vec::new(),
                            });
                            queue.schedule(
                                now.saturating_add(wire),
                                Event::TransferComplete {
                                    node: dest as u32,
                                    function: FnId::from_index(fi),
                                    gen,
                                },
                            );
                            rereplications += 1;
                            chaos.record(now, dest, ChaosEvent::Rereplicate);
                        }
                    }
                }
                Event::PartitionHeal { epoch } => {
                    chaos.heal(epoch, now);
                }
                Event::HedgeFire {
                    node,
                    function,
                    gen,
                } => {
                    let node = usize::try_from(node).unwrap_or(usize::MAX);
                    let idx = slot_index(node, width, function.index());
                    let pending = state.get(idx).and_then(|s| s.transfer.as_ref());
                    let Some(t) = pending else { continue };
                    if t.gen != gen || t.hedged {
                        continue;
                    }
                    let (primary_src, primary_done) = (t.source, t.done);
                    // A second source, distinct from the primary: the
                    // least-loaded other reachable holder.
                    let alt = (0..nodes)
                        .filter(|&n| {
                            n != node
                                && n != primary_src
                                && state[slot_index(n, width, function.index())].has_template
                                && chaos.reachable(n, now)
                        })
                        .min_by_key(|&n| (node_state[n].live, n));
                    let Some(s) = state.get_mut(idx) else {
                        continue;
                    };
                    let Some(t) = s.transfer.as_mut() else {
                        continue;
                    };
                    t.hedged = true;
                    let Some(alt) = alt else { continue };
                    let Some(f) = fns.get(function.index()) else {
                        continue;
                    };
                    hedges += 1;
                    chaos.record(now, node, ChaosEvent::HedgeFired);
                    let alt_wire = stretch(f.transfer, chaos.slowdown(alt, now));
                    let alt_done = now.saturating_add(alt_wire);
                    if alt_done < primary_done {
                        // The hedge wins: re-point the transfer at the new
                        // source under a fresh generation. The primary's
                        // completion event now lazy-misses — cancellation
                        // by generation, no un-scheduling needed.
                        hedge_wins += 1;
                        chaos.record(now, node, ChaosEvent::HedgeWon);
                        let gen = s.gen_counter;
                        s.gen_counter += 1;
                        let t = s.transfer.as_mut().unwrap();
                        t.gen = gen;
                        t.source = alt;
                        t.done = alt_done;
                        transfers += 1;
                        queue.schedule(
                            alt_done,
                            Event::TransferComplete {
                                node: node as u32,
                                function,
                                gen,
                            },
                        );
                    }
                }
                Event::HeartbeatTick { round } => {
                    chaos.heartbeat(now);
                    let next = now.saturating_add(policy.heartbeat_interval);
                    if next <= hb_end {
                        queue.schedule(
                            next,
                            Event::HeartbeatTick {
                                round: round.wrapping_add(1),
                            },
                        );
                    }
                }
                // Never scheduled by the chaos engine: boots collapse into
                // `ExecComplete`, and the injector seam belongs to
                // `run_cluster`.
                Event::BootComplete { .. } | Event::NodeRepair { .. } | Event::PoolTick { .. } => {}
            }
        }

        // End sweep: waiters still parked on an orphaned transfer never
        // got a completion path — the baseline's hang, counted as failed.
        let mut hung = 0u64;
        for n in 0..nodes {
            for fi in 0..width {
                let Some(t) = &state[slot_index(n, width, fi)].transfer else {
                    continue;
                };
                if t.done != SimNanos::MAX {
                    continue;
                }
                for &(_, id) in &t.waiters {
                    if instances.contains(id) {
                        hung += 1;
                        failed += 1;
                        chaos.record(horizon, n, ChaosEvent::Hung);
                    }
                }
            }
        }

        let per_node_peak: Vec<usize> = node_state.iter().map(|n| n.peak).collect();
        let peak_node_instances = per_node_peak.iter().copied().max().unwrap_or(0);
        let heartbeats = chaos.heartbeats();
        let suspected = chaos.count(ChaosEvent::Suspect);
        let mut metrics = MetricsRegistry::new();
        metrics.add(names::CLUSTER_LOCAL, local);
        metrics.add(names::CLUSTER_REMOTE, remote);
        metrics.add(names::CLUSTER_COLD, cold);
        metrics.add(names::CLUSTER_REUSE, reuses);
        metrics.add(names::CLUSTER_SHED, shed);
        metrics.add(names::CLUSTER_REROUTES, reroutes);
        metrics.add(names::CLUSTER_TRANSFERS, transfers);
        metrics.add(names::CHAOS_CRASHES, crashes);
        metrics.add(names::CHAOS_FAILED, failed);
        metrics.add(names::CHAOS_HUNG, hung);
        metrics.add(names::CHAOS_FAILOVERS, failovers);
        metrics.add(names::CHAOS_REREPLICATIONS, rereplications);
        metrics.add(names::CHAOS_HEDGES, hedges);
        metrics.add(names::CHAOS_HEDGE_WINS, hedge_wins);
        metrics.add(names::CHAOS_ABORTED_TRANSFERS, aborted_transfers);
        metrics.add(names::CHAOS_UNREACHABLE, unreachable);
        metrics.add(names::CHAOS_HEARTBEATS, heartbeats);
        metrics.add(names::CHAOS_SUSPECTED, suspected);
        metrics.set_gauge(
            names::CLUSTER_PEAK_NODE_INSTANCES,
            i64::try_from(peak_node_instances).unwrap_or(i64::MAX),
        );

        let requests = u64::try_from(trace.len()).unwrap_or(u64::MAX);
        let availability = crate::simulate::fraction(completed, requests);
        Ok(ChaosOutcome {
            cluster: ClusterOutcome {
                requests,
                completed,
                shed,
                reuses,
                local,
                remote,
                cold,
                reroutes,
                transfers,
                transfer_faults: 0,
                node_repairs: 0,
                expirations,
                events: queue.scheduled(),
                horizon,
                per_node_peak,
                peak_node_instances,
                goodput: availability,
                cold_rate: crate::simulate::fraction(cold, requests),
                startup: Quantiles::from_histogram(&startup_hist),
                end_to_end: Quantiles::from_histogram(&e2e_hist),
                remote_startup: Quantiles::from_histogram(&remote_hist),
                cold_startup: Quantiles::from_histogram(&cold_hist),
                route_hash,
                metrics,
            },
            failed,
            hung,
            crashes,
            heartbeats,
            suspected,
            failovers,
            rereplications,
            hedges,
            hedge_wins,
            aborted_transfers,
            unreachable,
            availability,
            chaos_log: chaos.log().to_vec(),
        })
    }

    /// Calibrates every function's costs, one distinct cost shape at a
    /// time, through the process-wide [`CALIBRATIONS`] memo.
    fn calibrate(&self) -> Result<Vec<ClusterFn>, PlatformError> {
        let costs = by_shape(&self.catalogue, |profile| memoized(profile, &self.model))?;
        Ok(self
            .catalogue
            .iter()
            .zip(costs)
            .map(|(profile, (boot, exec, cold_boot))| ClusterFn {
                boot,
                exec,
                transfer: self.config.costs.transfer_time(profile),
                cold_boot,
            })
            .collect())
    }
}

/// Calibrated `(steady fork, exec, cold boot)` of one function.
type Costs = (SimNanos, SimNanos, SimNanos);

/// Every calibration this process has run, keyed by the exact profile
/// booted and the cost model. [`calibrate_shape`] uses fixed engines on
/// fresh contexts with no policy and no injector, so its result is a pure
/// function of that key: every [`ClusterSim`] in the process — across
/// cells, grids and threads — reuses it instead of booting again. The name
/// stays in the key because the OCI config and the handler file carry it,
/// and their lengths move the cold boot by nanoseconds.
static CALIBRATIONS: Mutex<Vec<(AppProfile, CostModel, Costs)>> = Mutex::new(Vec::new());

/// The memoized calibration of `profile` under `model`. The lock is never
/// held across a boot, and errors are returned, never cached.
fn memoized(profile: &AppProfile, model: &CostModel) -> Result<Costs, PlatformError> {
    let cached = |memo: &[(AppProfile, CostModel, Costs)]| {
        memo.iter()
            .find(|(p, m, _)| p == profile && m == model)
            .map(|(_, _, costs)| *costs)
    };
    if let Some(costs) = cached(&CALIBRATIONS.lock().unwrap_or_else(PoisonError::into_inner)) {
        return Ok(costs);
    }
    let costs = calibrate_shape(profile, model)?;
    let mut memo = CALIBRATIONS.lock().unwrap_or_else(PoisonError::into_inner);
    // Another thread may have calibrated the same key meanwhile; both
    // results are equal, so the first one stays.
    if cached(&memo).is_none() {
        memo.push((profile.clone(), model.clone(), costs));
    }
    Ok(costs)
}

/// Boots one cost shape's real engines on an offline clock: steady local
/// sfork and handler execution (Fork mode, template built first), plus the
/// full cold restore (Cold mode) for the rung the remote fork is competing
/// against.
fn calibrate_shape(profile: &AppProfile, model: &CostModel) -> Result<Costs, PlatformError> {
    let calibration = ResiliencePolicy::none();
    let mut scratch = MetricsRegistry::new();
    let mut fork = CatalyzerEngine::standalone(BootMode::Fork);
    // Pay template construction offline — holders are provisioned, so only
    // the steady boot is on-path.
    let mut first_ctx = BootCtx::fresh(model);
    resilient_boot(
        &mut fork,
        profile,
        &calibration,
        &mut first_ctx,
        &mut scratch,
    )?;
    let mut steady_ctx = BootCtx::fresh(model);
    let booted = resilient_boot(
        &mut fork,
        profile,
        &calibration,
        &mut steady_ctx,
        &mut scratch,
    )?;
    let mut outcome = booted.outcome;
    let exec_ctx = BootCtx::fresh(model);
    outcome
        .program
        .invoke_handler(exec_ctx.clock(), exec_ctx.model())?;
    let mut cold_engine = CatalyzerEngine::standalone(BootMode::Cold);
    let mut cold_ctx = BootCtx::fresh(model);
    resilient_boot(
        &mut cold_engine,
        profile,
        &calibration,
        &mut cold_ctx,
        &mut scratch,
    )?;
    Ok((steady_ctx.now(), exec_ctx.now(), cold_ctx.now()))
}

#[cfg(test)]
mod tests {
    use super::super::TransferCosts;
    use super::*;

    fn burst(n: u64, function: usize) -> Vec<TraceRequest> {
        (0..n)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_nanos(i),
                function,
            })
            .collect()
    }

    #[test]
    fn single_node_cluster_serves_everything_locally() {
        let trace: Vec<TraceRequest> = (0..50u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_millis(i.saturating_mul(5)),
                function: 0,
            })
            .collect();
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(1, 1))
            .run_cluster(&trace)
            .unwrap();
        assert_eq!(out.completed, 50);
        assert_eq!(out.shed, 0);
        assert_eq!(out.remote, 0);
        assert_eq!(out.cold, 0);
        assert_eq!(out.local + out.reuses, 50);
        assert!((out.goodput - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn flash_crowd_remote_fork_beats_the_cold_baseline() {
        let trace = burst(350, 0);
        let cell = |routing: RoutingPolicy| {
            let mut config = ClusterConfig::new(4, 1);
            config.routing = routing;
            ClusterSim::new(vec![AppProfile::c_hello()], config)
                .with_node_capacity(100)
                .run_cluster(&trace)
                .unwrap()
        };
        let forked = cell(RoutingPolicy::RemoteFork);
        let baseline = cell(RoutingPolicy::LocalCold);
        assert_eq!(forked.shed, 0, "{forked:?}");
        assert!(forked.remote > 0, "{forked:?}");
        assert_eq!(forked.cold, 0, "remote sfork suppresses cold boots");
        assert!(baseline.cold > 0, "{baseline:?}");
        assert!(
            forked.startup.p99 < baseline.startup.p99,
            "remote {:?} vs cold {:?}",
            forked.startup,
            baseline.startup
        );
        assert!(forked.cold_rate < baseline.cold_rate);
    }

    #[test]
    fn poisoned_transfers_degrade_to_cold_and_repair() {
        let plan = FaultPlan::zero(0xC11)
            .with_point(
                InjectionPoint::TemplateTransfer,
                faultsim::PointPlan {
                    rate: 1.0,
                    stall_ratio: 0.0,
                    max_burst: 1,
                },
            )
            .with_poison_ratio(1.0);
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
            .with_node_capacity(40)
            .with_faults(plan)
            .run_cluster(&burst(150, 0))
            .unwrap();
        assert_eq!(out.completed + out.shed, out.requests);
        assert!(out.transfer_faults > 0, "{out:?}");
        assert!(out.cold > 0, "poisoned transfers fall to the cold rung");
        assert!(out.node_repairs > 0, "repairs run in the background");
        assert_eq!(
            out.metrics.counter(names::CLUSTER_TRANSFER_FAULTS),
            out.transfer_faults
        );
    }

    #[test]
    fn transient_transfer_faults_only_slow_the_wire() {
        let plan = FaultPlan::zero(0xC12).with_point(
            InjectionPoint::TemplateTransfer,
            faultsim::PointPlan {
                rate: 1.0,
                stall_ratio: 0.0,
                max_burst: 1,
            },
        );
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
            .with_node_capacity(64)
            .with_faults(plan)
            .run_cluster(&burst(150, 0))
            .unwrap();
        assert_eq!(out.shed, 0);
        assert!(out.transfer_faults > 0);
        assert_eq!(out.cold, 0, "transients retry on the remote rung");
        assert_eq!(out.completed, out.requests);
    }

    fn chaos_cell(
        nodes: usize,
        budget: usize,
        plan: NodePlan,
        policy: ChaosPolicy,
        n: u64,
    ) -> ChaosOutcome {
        ClusterSim::new(
            vec![AppProfile::c_hello()],
            ClusterConfig::new(nodes, budget),
        )
        .with_node_capacity(100)
        .with_chaos(plan, policy)
        .run_chaos(&burst(n, 0))
        .unwrap()
    }

    #[test]
    fn quiet_chaos_conserves_and_fails_nothing() {
        let out = chaos_cell(4, 2, NodePlan::quiet(0), ChaosPolicy::full(), 300);
        assert_eq!(out.failed, 0);
        assert_eq!(out.hung, 0);
        assert_eq!(out.crashes, 0);
        assert_eq!(
            out.cluster.completed + out.cluster.shed + out.failed,
            out.cluster.requests
        );
        assert!((out.availability - 1.0).abs() < f64::EPSILON, "{out:?}");
    }

    #[test]
    fn holder_crash_fails_over_and_rereplicates() {
        // Nodes 0 and 1 hold the replicas; node 0 dies mid-run. The full
        // policy re-routes everything and rebuilds the lost replica from
        // node 1; the baseline keeps routing at the corpse (it looks
        // idle!) and fails typed.
        let trace: Vec<TraceRequest> = (0..200u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(i.saturating_mul(50)),
                function: 0,
            })
            .collect();
        let plan = || NodePlan::quiet(1).with_crash(0, SimNanos::from_millis(3));
        let cell = |policy: ChaosPolicy| {
            ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(4, 2))
                .with_node_capacity(100)
                .with_chaos(plan(), policy)
                .run_chaos(&trace)
                .unwrap()
        };
        let full = cell(ChaosPolicy::full());
        let none = cell(ChaosPolicy::none());
        assert_eq!(full.crashes, 1);
        assert!(full.rereplications > 0, "{full:?}");
        assert_eq!(
            full.unreachable, 0,
            "full policy never routes at the corpse"
        );
        assert!(
            full.availability >= 3.0 / 4.0,
            "single crash must hold the (N-1)/N floor: {full:?}"
        );
        assert!(none.unreachable > 0, "{none:?}");
        assert!(
            none.availability < full.availability,
            "baseline {:.3} vs full {:.3}",
            none.availability,
            full.availability
        );
        for out in [&full, &none] {
            assert_eq!(
                out.cluster.completed + out.cluster.shed + out.failed,
                out.cluster.requests,
                "conservation: {out:?}"
            );
        }
    }

    #[test]
    fn gray_source_is_hedged_around() {
        // Node 0 (a holder) goes gray with a huge stretch right before a
        // flash crowd forces transfers; the hedge fires and the second
        // source wins.
        let plan = NodePlan::quiet(2).with_gray(0, SimNanos::ZERO, SimNanos::from_secs(1), 200.0);
        let out = chaos_cell(4, 2, plan, ChaosPolicy::full(), 350);
        assert!(out.hedges > 0, "{out:?}");
        assert!(out.hedge_wins > 0, "{out:?}");
        assert_eq!(out.failed, 0);
        assert_eq!(
            out.cluster.completed + out.cluster.shed + out.failed,
            out.cluster.requests
        );
    }

    #[test]
    fn source_crash_reroutes_waiters_or_hangs_them() {
        // A flash crowd starts a transfer sourced from node 0, which then
        // crashes mid-wire (the wire is ~30 µs of RDMA setup; the crash
        // lands at 20 µs). Full policy: waiters time out and re-route.
        // Baseline: the transfer is orphaned and its waiters hang.
        let plan = || NodePlan::quiet(3).with_crash(0, SimNanos::from_micros(20));
        let cell = |policy: ChaosPolicy| {
            ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(3, 1))
                .with_node_capacity(100)
                .with_chaos(plan(), policy)
                .run_chaos(&burst(120, 0))
                .unwrap()
        };
        let full = cell(ChaosPolicy::full());
        let none = cell(ChaosPolicy::none());
        assert!(full.aborted_transfers > 0, "{full:?}");
        assert!(full.failovers > 0, "{full:?}");
        assert_eq!(full.hung, 0, "waiters get the timeout path: {full:?}");
        assert!(none.hung > 0, "baseline waiters hang: {none:?}");
        for out in [&full, &none] {
            assert_eq!(
                out.cluster.completed + out.cluster.shed + out.failed,
                out.cluster.requests,
                "conservation: {out:?}"
            );
        }
    }

    #[test]
    fn partition_heals_and_routing_returns() {
        let plan = NodePlan::quiet(4).with_partition(
            vec![1],
            SimNanos::from_micros(10),
            SimNanos::from_millis(2),
        );
        let trace: Vec<TraceRequest> = (0..200u64)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(i.saturating_mul(50)),
                function: 0,
            })
            .collect();
        let out = ClusterSim::new(vec![AppProfile::c_hello()], ClusterConfig::new(2, 2))
            .with_node_capacity(100)
            .with_chaos(plan, ChaosPolicy::full())
            .run_chaos(&trace)
            .unwrap();
        assert!(
            out.chaos_log
                .iter()
                .any(|r| r.kind == ChaosEvent::Heal && r.node == 1),
            "{:?}",
            out.chaos_log
        );
        assert_eq!(out.failed, 0, "{out:?}");
        assert!((out.availability - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn chaos_runs_are_byte_deterministic() {
        let once = || {
            let plan = NodePlan::storm(0xC0FFEE, 4, 6, SimNanos::ZERO, SimNanos::from_millis(1));
            let out = chaos_cell(4, 2, plan, ChaosPolicy::full(), 400);
            serde_json::to_string(&out).unwrap()
        };
        assert_eq!(once(), once(), "same seed, byte-identical chaos history");
    }

    #[test]
    fn cluster_fleet_is_deterministic() {
        let trace = burst(400, 0);
        let once = || {
            let out = ClusterSim::new(
                vec![AppProfile::c_hello()],
                ClusterConfig {
                    nodes: 4,
                    placement_budget: 2,
                    routing: RoutingPolicy::RemoteFork,
                    costs: TransferCosts::rdma_defaults(),
                },
            )
            .with_node_capacity(64)
            .with_faults(FaultPlan::uniform(0xD00D, 0.2))
            .run_cluster(&trace)
            .unwrap();
            serde_json::to_string(&out).unwrap()
        };
        assert_eq!(once(), once(), "same inputs, byte-identical outcome");
    }

    /// Memo entries for exactly `profile` under `model`.
    fn memo_entries(profile: &AppProfile, model: &CostModel) -> Vec<Costs> {
        CALIBRATIONS
            .lock()
            .unwrap()
            .iter()
            .filter(|(p, m, _)| p == profile && m == model)
            .map(|(_, _, costs)| *costs)
            .collect()
    }

    #[test]
    fn second_sim_reuses_the_process_calibration() {
        let mut profile = AppProfile::ruby_hello();
        profile.name = "memo-reuse".to_string();
        let model = CostModel::experimental_machine();
        let trace = burst(200, 0);
        let once = || {
            let out = ClusterSim::new(vec![profile.clone()], ClusterConfig::new(2, 1))
                .run_cluster(&trace)
                .unwrap();
            serde_json::to_string(&out).unwrap()
        };
        let first = once();
        assert_eq!(memo_entries(&profile, &model).len(), 1);
        assert_eq!(once(), first, "memoized costs, byte-identical outcome");
        assert_eq!(
            memo_entries(&profile, &model).len(),
            1,
            "the second sim adds no entry"
        );
    }

    #[test]
    fn each_cost_model_gets_its_own_calibration() {
        let mut profile = AppProfile::node_hello();
        profile.name = "memo-models".to_string();
        let default = CostModel::experimental_machine();
        let mut slower = default.clone();
        slower.host.config_parse_per_kib = slower.host.config_parse_per_kib.saturating_mul(4);
        let trace = burst(50, 0);
        let sim = |model: &CostModel| {
            ClusterSim::new(vec![profile.clone()], ClusterConfig::new(1, 1))
                .with_model(model.clone())
                .run_cluster(&trace)
                .unwrap()
        };
        sim(&default);
        sim(&slower);
        let (base, other) = (
            memo_entries(&profile, &default),
            memo_entries(&profile, &slower),
        );
        assert_eq!((base.len(), other.len()), (1, 1));
        assert!(other[0].2 > base[0].2, "{other:?} vs {base:?}");
    }
}
