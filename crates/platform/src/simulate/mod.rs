//! The fleet simulation core: one discrete-event engine behind one
//! builder-style [`Simulation`] API.
//!
//! A central [`EventQueue`] drives every run: a `BinaryHeap` keyed on
//! [`SimNanos`] holds the events scheduled while the run goes on, and a
//! cursor over the sorted trace feeds the request arrivals in without
//! copying them into the heap. Arrivals, boot completions, execution
//! completions, keep-alive expiries, and self-healing pool ticks are all
//! events popped in a deterministic, insertion-order-independent order.
//! Instance and function state live in index-based arenas ([`Arena`],
//! [`InstanceId`], [`FnId`]) instead of `Rc<RefCell<...>>` webs.
//!
//! Two engines share the queue:
//!
//! - **Closed-loop** ([`Simulation::run`]): every request is served to
//!   completion through real [`InstancePool`]s, boot engines, fault
//!   injection, resilience, and admission control — full fidelity, suited
//!   to thousands of requests. This is what the legacy `run` /
//!   `run_with_faults` / `run_admitted` entry points (kept as thin
//!   wrappers, byte-identical outputs) compile down to.
//! - **Open-loop fleet** ([`Simulation::run_fleet`]): per-function boot and
//!   execution costs are calibrated once through the real engines, then
//!   millions of requests flow through the event queue against arena-held
//!   instances — the regime that extends Figure 15 from 10^3 to 10^5–10^6
//!   concurrent instances.
//!
//! Determinism is the contract: the same catalogue, knobs, and trace
//! produce byte-identical outcomes, logs, and metrics.
//!
//! # Example
//!
//! ```
//! use platform::simulate::{Simulation, TraceRequest};
//! use platform::AdmissionPolicy;
//! use runtimes::AppProfile;
//! use simtime::SimNanos;
//!
//! let trace: Vec<TraceRequest> = (0..16)
//!     .map(|i| TraceRequest {
//!         arrival: SimNanos::from_millis(2).saturating_mul(i),
//!         function: 0,
//!     })
//!     .collect();
//! let report = Simulation::new(vec![AppProfile::c_hello()])
//!     .with_keep_alive(SimNanos::from_secs(5))
//!     .with_admission(AdmissionPolicy::standard(4, SimNanos::from_millis(100)))
//!     .run(&trace)?;
//! assert_eq!(report.completed, 16);
//! # Ok::<(), platform::PlatformError>(())
//! ```

pub mod arena;
pub mod events;
pub mod fleet;

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use catalyzer::{BootMode, CatalyzerEngine};
use faultsim::{FaultInjector, FaultPlan};
use runtimes::AppProfile;
use sandbox::BootEngine;
use simtime::names;
use simtime::stats::{summarize, Summary};
use simtime::{CostModel, MetricsRegistry, SimNanos};

use crate::admission::{
    AdmissionController, AdmissionPolicy, AdmissionRecord, BreakerTransition, HealthSignal,
};
use crate::error::TraceError;
use crate::pool::{InstancePool, PoolStats, RepairStats};
use crate::resilience::ResiliencePolicy;
use crate::PlatformError;

pub use arena::{Arena, FnId, InstanceId};
pub use events::{Event, EventQueue};
pub use fleet::{FleetOutcome, Quantiles};

/// Scheduler hand-off charged when a request is served by reusing a warm
/// instance instead of booting one. Both engines — the closed-loop pools
/// and the open-loop fleet — charge exactly this, so reuse latency can
/// never diverge between fidelity levels.
pub const REUSE_HANDOFF: SimNanos = SimNanos::from_micros(150);

/// A request against the simulated platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Virtual arrival time.
    pub arrival: SimNanos,
    /// Index into the function list.
    pub function: usize,
}

/// The outcome of driving a trace through the platform.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Startup-latency distribution across all requests.
    pub startup: Summary,
    /// End-to-end (startup + execution) distribution.
    pub end_to_end: Summary,
    /// Fraction of requests served by reusing an idle instance.
    pub reuse_rate: f64,
    /// Aggregated pool statistics (summed over functions).
    pub pools: PoolStats,
    /// Maximum requests in flight at any instant.
    pub peak_concurrency: usize,
    /// Injected faults absorbed across all pools (0 without a fault plan).
    pub faults: u64,
    /// Boots that succeeded only after recovering from at least one fault.
    pub degraded: u64,
}

/// Checks the trace contract once, up front: time-sorted arrivals,
/// in-range function indices, at least one request. The typed replacement
/// for the panics the legacy drivers documented.
pub(crate) fn validate_trace(trace: &[TraceRequest], functions: usize) -> Result<(), TraceError> {
    if trace.is_empty() {
        return Err(TraceError::Empty);
    }
    let mut previous = SimNanos::ZERO;
    for (at, req) in trace.iter().enumerate() {
        if req.arrival < previous {
            return Err(TraceError::Unsorted {
                at,
                arrival: req.arrival,
                previous,
            });
        }
        previous = req.arrival;
        if req.function >= functions {
            return Err(TraceError::UnknownFunction {
                at,
                function: req.function,
                functions,
            });
        }
    }
    Ok(())
}

/// Boxed engine constructor: one factory serves heterogeneous fleets.
type EngineFactory = Box<dyn FnMut(&AppProfile) -> Box<dyn BootEngine>>;

/// Builder-style front door to the discrete-event simulation core.
///
/// Composes the platform's policies as first-class knobs — fault plans,
/// resilience ladders, admission control, keep-alive and prewarm — over a
/// function catalogue, then runs a trace through either the full-fidelity
/// closed-loop engine ([`Simulation::run`]) or the calibrated open-loop
/// fleet engine ([`Simulation::run_fleet`]).
pub struct Simulation {
    catalogue: Vec<AppProfile>,
    engine: EngineFactory,
    model: CostModel,
    keep_alive: SimNanos,
    max_idle: usize,
    min_ready: usize,
    plan: Option<FaultPlan>,
    policy: ResiliencePolicy,
    admission: Option<AdmissionPolicy>,
    /// Boot clocks start at the arrival time (platform timeline) rather
    /// than at zero per request. The legacy `run`/`run_with_faults`
    /// wrappers clear this to preserve their request-local semantics.
    platform_time: bool,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("functions", &self.catalogue.len())
            .field("keep_alive", &self.keep_alive)
            .field("max_idle", &self.max_idle)
            .field("min_ready", &self.min_ready)
            .field("faults", &self.plan.is_some())
            .field("admission", &self.admission.is_some())
            .field("platform_time", &self.platform_time)
            .finish()
    }
}

impl Simulation {
    /// A simulation over `catalogue` with the paper's defaults: Catalyzer
    /// fork boot for every function, the experimental machine's cost
    /// model, a 5 s keep-alive window, up to 4 idle instances per
    /// function, the full resilience ladder, and no faults or admission
    /// control.
    pub fn new(catalogue: impl Into<Vec<AppProfile>>) -> Simulation {
        Simulation {
            catalogue: catalogue.into(),
            engine: Box::new(|_| Box::new(CatalyzerEngine::standalone(BootMode::Fork))),
            model: CostModel::experimental_machine(),
            keep_alive: SimNanos::from_secs(5),
            max_idle: 4,
            min_ready: 0,
            plan: None,
            policy: ResiliencePolicy::full(),
            admission: None,
            platform_time: true,
        }
    }

    /// Sets the boot-engine factory: `make` constructs the engine for each
    /// function, so a fleet can be homogeneous or per-function.
    pub fn with_engine<E, F>(mut self, mut make: F) -> Simulation
    where
        E: BootEngine + 'static,
        F: FnMut(&AppProfile) -> E + 'static,
    {
        self.engine = Box::new(move |profile| Box::new(make(profile)));
        self
    }

    /// Sets the machine cost model.
    pub fn with_model(mut self, model: CostModel) -> Simulation {
        self.model = model;
        self
    }

    /// Sets the keep-alive window idle instances survive.
    pub fn with_keep_alive(mut self, keep_alive: SimNanos) -> Simulation {
        self.keep_alive = keep_alive;
        self
    }

    /// Caps idle instances parked per function.
    pub fn with_max_idle(mut self, max_idle: usize) -> Simulation {
        self.max_idle = max_idle;
        self
    }

    /// Keeps at least `min_ready` instances warm per function: pools turn
    /// self-healing and the background repair loop replenishes the floor.
    pub fn with_prewarm(mut self, min_ready: usize) -> Simulation {
        self.min_ready = min_ready;
        self
    }

    /// Arms deterministic fault injection: all functions share one seeded
    /// injector built from `plan`, so the whole run is a pure function of
    /// `(catalogue, knobs, trace)`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Simulation {
        self.plan = Some(plan);
        self
    }

    /// Sets the recovery policy boots climb when faults fire.
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Simulation {
        self.policy = policy;
        self
    }

    /// Arms admission control: arrivals are gated (typed sheds, deadline
    /// stamps, circuit breakers) and completions feed the breakers.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Simulation {
        self.admission = Some(policy);
        self
    }

    /// Starts each boot's clock at zero instead of at the arrival time —
    /// the legacy `run`/`run_with_faults` semantics, where fault windows
    /// are request-local. New code should prefer the default platform
    /// timeline.
    pub fn with_request_local_clocks(mut self) -> Simulation {
        self.platform_time = false;
        self
    }

    /// Drives `trace` through the closed-loop discrete-event engine: every
    /// request runs to completion through real pools and boot engines.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidTrace`] for malformed traces (this entry
    /// point never panics on bad input); engine or handler errors. With
    /// admission armed, a failed *admitted* request is counted as
    /// availability loss instead of aborting the run.
    pub fn run(self, trace: &[TraceRequest]) -> Result<SimReport, PlatformError> {
        self.run_closed(trace)
    }

    /// The closed-loop engine: arrivals and completions flow through the
    /// event queue; serving goes through full-fidelity [`InstancePool`]s.
    fn run_closed(mut self, trace: &[TraceRequest]) -> Result<SimReport, PlatformError> {
        validate_trace(trace, self.catalogue.len())?;
        let injector = self
            .plan
            .take()
            .map(|p| Rc::new(RefCell::new(FaultInjector::new(p))));
        let self_healing = self.admission.is_some() || self.min_ready > 0;
        let mut pools: Vec<InstancePool<Box<dyn BootEngine>>> = self
            .catalogue
            .iter()
            .map(|profile| {
                let mut pool = InstancePool::new(
                    (self.engine)(profile),
                    profile.clone(),
                    self.keep_alive,
                    self.max_idle,
                )
                .with_policy(self.policy);
                if self_healing {
                    pool = pool.with_self_healing(self.min_ready);
                }
                if let Some(injector) = &injector {
                    pool = pool.with_injector(Rc::clone(injector));
                }
                pool
            })
            .collect();
        let mut ctrl = self.admission.take().map(AdmissionController::new);

        let mut queue = EventQueue::for_trace(trace);

        let mut admitted = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut shed_overload = 0u64;
        let mut shed_deadline = 0u64;
        let mut shed_breaker = 0u64;
        let mut goodput = 0u64;
        let mut reuses = 0u64;
        let mut in_flight = 0usize;
        let mut peak_in_flight = 0usize;
        let mut startups = Vec::with_capacity(trace.len());
        let mut e2es = Vec::with_capacity(trace.len());

        while let Some((now, event)) = queue.pop() {
            match event {
                Event::ExecComplete { .. } => {
                    in_flight = in_flight.saturating_sub(1);
                }
                // Cluster- and chaos-only classes: the closed-loop engine
                // never schedules them.
                Event::TransferComplete { .. }
                | Event::NodeRepair { .. }
                | Event::NodeCrash { .. }
                | Event::PartitionHeal { .. }
                | Event::HedgeFire { .. }
                | Event::HeartbeatTick { .. } => {}
                Event::Arrival { request } => {
                    let Some(req) = trace.get(usize::try_from(request).unwrap_or(usize::MAX))
                    else {
                        continue;
                    };
                    let Some(pool) = pools.get_mut(req.function) else {
                        continue;
                    };
                    match &mut ctrl {
                        Some(ctrl) => {
                            let name = self.catalogue[req.function].name.as_str();
                            // The repair daemon wakes between arrivals:
                            // anything poisoned earlier is rebuilt and
                            // healed here, off the request path.
                            pool.tick(now, &self.model)?;
                            let slot = match ctrl.admit(name, now) {
                                Ok(slot) => slot,
                                Err(err) => {
                                    // Every shed is typed; nothing is
                                    // silently dropped.
                                    match err {
                                        PlatformError::Overload { .. } => shed_overload += 1,
                                        PlatformError::DeadlineExceeded { .. } => {
                                            shed_deadline += 1
                                        }
                                        PlatformError::CircuitOpen { .. } => shed_breaker += 1,
                                        other => return Err(other),
                                    }
                                    continue;
                                }
                            };
                            admitted += 1;
                            match pool.serve_at(slot.start, &self.model) {
                                Ok(served) => {
                                    completed += 1;
                                    if served.reused {
                                        reuses += 1;
                                    }
                                    let finish = slot
                                        .start
                                        .saturating_add(served.startup)
                                        .saturating_add(served.exec);
                                    let signal = if served.poisoned {
                                        HealthSignal::Poisoned
                                    } else {
                                        HealthSignal::Healthy
                                    };
                                    ctrl.complete(name, finish, signal);
                                    startups.push(served.startup);
                                    e2es.push(
                                        slot.queued
                                            .saturating_add(served.startup)
                                            .saturating_add(served.exec),
                                    );
                                    if slot.deadline.is_none_or(|d| finish <= d) {
                                        goodput += 1;
                                    }
                                    in_flight += 1;
                                    peak_in_flight = peak_in_flight.max(in_flight);
                                    queue.schedule(
                                        finish,
                                        Event::ExecComplete {
                                            request,
                                            instance: None,
                                        },
                                    );
                                }
                                Err(_) => {
                                    // Availability loss: the admitted
                                    // request died. The slot frees at its
                                    // start time and the breaker hears
                                    // about it.
                                    failed += 1;
                                    ctrl.complete(name, slot.start, HealthSignal::Failed);
                                }
                            }
                        }
                        None => {
                            let (startup, exec, reused) = if self.platform_time {
                                let served = pool.serve_at(now, &self.model)?;
                                (served.startup, served.exec, served.reused)
                            } else {
                                pool.serve(now, &self.model)?
                            };
                            admitted += 1;
                            completed += 1;
                            goodput += 1;
                            if reused {
                                reuses += 1;
                            }
                            startups.push(startup);
                            e2es.push(startup.saturating_add(exec));
                            let finish = now.saturating_add(startup).saturating_add(exec);
                            in_flight += 1;
                            peak_in_flight = peak_in_flight.max(in_flight);
                            queue.schedule(
                                finish,
                                Event::ExecComplete {
                                    request,
                                    instance: None,
                                },
                            );
                        }
                    }
                }
                // The closed-loop engine delegates booting, expiry, and
                // repair scheduling to the pools themselves; these classes
                // are driven by the open-loop fleet engine.
                Event::BootComplete { .. }
                | Event::KeepAliveExpiry { .. }
                | Event::PoolTick { .. } => {}
            }
        }

        let mut metrics = MetricsRegistry::new();
        let mut repairs = RepairStats::default();
        let mut degraded = 0u64;
        let mut pool_stats = PoolStats::default();
        for pool in &pools {
            metrics.merge_from(pool.metrics());
            degraded += pool.metrics().counter(names::POOL_DEGRADED);
            let r = pool.repair_stats();
            repairs.repairs += r.repairs;
            repairs.evicted += r.evicted;
            repairs.replenished += r.replenished;
            repairs.repair_time = repairs.repair_time.saturating_add(r.repair_time);
            let s = pool.stats();
            pool_stats.reuses += s.reuses;
            pool_stats.boots += s.boots;
            pool_stats.expirations += s.expirations;
        }
        let (admission_log, transitions, breaker_opens) = match ctrl {
            Some(ctrl) => {
                metrics.add(names::ADMIT_COUNT, admitted);
                metrics.add(names::SHED_OVERLOAD, shed_overload);
                metrics.add(names::SHED_DEADLINE, shed_deadline);
                metrics.add(names::SHED_BREAKER, shed_breaker);
                let transitions = ctrl.all_transitions();
                for (_, transition) in &transitions {
                    metrics.inc(&names::breaker_gauge(transition.to.label()));
                }
                (ctrl.log().to_vec(), transitions, ctrl.breaker_opens())
            }
            None => (Vec::new(), Vec::new(), 0),
        };
        let faults = injector.map_or(0, |i| i.borrow().total_fired());

        Ok(SimReport {
            requests: u64::try_from(trace.len()).unwrap_or(u64::MAX),
            admitted,
            completed,
            failed,
            shed_overload,
            shed_deadline,
            shed_breaker,
            goodput,
            reuses,
            startup: summarize(&startups),
            end_to_end: summarize(&e2es),
            pools: pool_stats,
            peak_in_flight,
            events: queue.scheduled(),
            faults,
            degraded,
            breaker_opens,
            repairs,
            admission_log,
            transitions,
            metrics,
        })
    }
}

/// Everything one closed-loop [`Simulation::run`] produced.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Requests in the trace.
    pub requests: u64,
    /// Requests admission let through (all of them without admission).
    pub admitted: u64,
    /// Admitted requests that served successfully.
    pub completed: u64,
    /// Admitted requests that surfaced an error (availability loss; only
    /// possible with admission armed — without it the run aborts).
    pub failed: u64,
    /// Requests shed typed as [`PlatformError::Overload`].
    pub shed_overload: u64,
    /// Requests shed typed as [`PlatformError::DeadlineExceeded`].
    pub shed_deadline: u64,
    /// Requests shed typed as [`PlatformError::CircuitOpen`].
    pub shed_breaker: u64,
    /// Completed requests that finished within their deadline (all of them
    /// when no deadline is stamped).
    pub goodput: u64,
    /// Completed requests served by reusing an idle instance.
    pub reuses: u64,
    /// Startup-latency distribution of completed requests.
    pub startup: Option<Summary>,
    /// End-to-end (queue wait + startup + execution) distribution of
    /// completed requests.
    pub end_to_end: Option<Summary>,
    /// Aggregated pool statistics (summed over functions).
    pub pools: PoolStats,
    /// Maximum requests concurrently in flight (arrival-to-completion),
    /// measured by the event queue.
    pub peak_in_flight: usize,
    /// Events the queue processed, a proxy for simulation work.
    pub events: u64,
    /// Injected faults absorbed across the fleet.
    pub faults: u64,
    /// Boots that succeeded only after recovering from at least one fault.
    pub degraded: u64,
    /// Breaker trips (transitions into Open) across all functions.
    pub breaker_opens: u64,
    /// Background repair-loop work, summed over pools.
    pub repairs: RepairStats,
    /// The full admission decision log (empty without admission).
    pub admission_log: Vec<AdmissionRecord>,
    /// Every breaker transition, `(function, transition)`.
    pub transitions: Vec<(String, BreakerTransition)>,
    /// Fleet-wide metrics rollup (pool metrics merged; with admission also
    /// `admit.*`, `shed.*`, and `breaker.<state>` counters).
    pub metrics: MetricsRegistry,
}

impl SimReport {
    /// Total sheds of any type.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_deadline + self.shed_breaker
    }

    /// `reuses / completed` — the warm-serve fraction.
    pub fn reuse_rate(&self) -> f64 {
        fraction(self.reuses, self.completed)
    }

    /// `completed / admitted` — 1.0 means no admitted request was lost.
    pub fn availability(&self) -> f64 {
        fraction(self.completed, self.admitted)
    }
}

/// An all-zero [`Summary`] for runs that completed nothing.
fn empty_summary() -> Summary {
    Summary {
        count: 0,
        mean: SimNanos::ZERO,
        min: SimNanos::ZERO,
        max: SimNanos::ZERO,
        p50: SimNanos::ZERO,
        p95: SimNanos::ZERO,
        p99: SimNanos::ZERO,
    }
}

/// Drives `requests` (sorted by arrival) through one pool per function.
///
/// `make_engine` constructs the boot engine for each function's pool, so a
/// caller can simulate a homogeneous fleet (`|_| GvisorRestoreEngine::new()`)
/// or per-function choices.
///
/// Legacy entry point, kept as a thin wrapper over [`Simulation`] (which
/// new code should prefer): equivalent to
/// `Simulation::new(...).with_engine(...).with_request_local_clocks().run(...)`
/// plus the historical outcome shape.
///
/// # Errors
///
/// [`PlatformError::InvalidTrace`] when any request indexes past
/// `functions`, arrivals go backwards, or the trace is empty (these used
/// to panic); engine or handler errors.
pub fn run<E, F>(
    functions: &[AppProfile],
    requests: &[TraceRequest],
    keep_alive: SimNanos,
    max_idle: usize,
    make_engine: F,
    model: &CostModel,
) -> Result<SimulationOutcome, PlatformError>
where
    E: BootEngine + 'static,
    F: FnMut(&AppProfile) -> E + 'static,
{
    run_with_faults(
        functions,
        requests,
        keep_alive,
        max_idle,
        make_engine,
        model,
        None,
        ResiliencePolicy::full(),
    )
}

/// [`run`], with deterministic fault injection: all pools share one seeded
/// injector built from `plan` (when given), and scale-up boots recover
/// through `policy`. [`SimulationOutcome::faults`] / `degraded` report what
/// the fleet absorbed.
///
/// Legacy entry point, kept as a thin wrapper over [`Simulation`].
///
/// # Errors
///
/// Same as [`run`]; unrecovered injected faults.
#[allow(clippy::too_many_arguments)]
pub fn run_with_faults<E, F>(
    functions: &[AppProfile],
    requests: &[TraceRequest],
    keep_alive: SimNanos,
    max_idle: usize,
    make_engine: F,
    model: &CostModel,
    plan: Option<FaultPlan>,
    policy: ResiliencePolicy,
) -> Result<SimulationOutcome, PlatformError>
where
    E: BootEngine + 'static,
    F: FnMut(&AppProfile) -> E + 'static,
{
    let mut sim = Simulation::new(functions.to_vec())
        .with_engine(make_engine)
        .with_model(model.clone())
        .with_keep_alive(keep_alive)
        .with_max_idle(max_idle)
        .with_resilience(policy)
        .with_request_local_clocks();
    if let Some(plan) = plan {
        sim = sim.with_faults(plan);
    }
    let report = sim.run(requests)?;
    Ok(SimulationOutcome {
        startup: report.startup.unwrap_or_else(empty_summary),
        end_to_end: report.end_to_end.unwrap_or_else(empty_summary),
        reuse_rate: report.reuses as f64 / requests.len() as f64,
        pools: report.pools,
        // The legacy loop counted the in-flight set *plus* the arriving
        // request's own completion entry, so its peak sat one above the
        // event queue's true in-flight maximum.
        peak_concurrency: report.peak_in_flight.saturating_add(1),
        faults: report.faults,
        degraded: report.degraded,
    })
}

/// The outcome of driving a trace through admission-controlled,
/// self-healing pools.
#[derive(Debug, Clone)]
pub struct AdmittedOutcome {
    /// Requests in the trace.
    pub requests: u64,
    /// Requests admission let through.
    pub admitted: u64,
    /// Admitted requests that served successfully.
    pub completed: u64,
    /// Admitted requests that surfaced an error (availability loss).
    pub failed: u64,
    /// Requests shed typed as [`PlatformError::Overload`].
    pub shed_overload: u64,
    /// Requests shed typed as [`PlatformError::DeadlineExceeded`].
    pub shed_deadline: u64,
    /// Requests shed typed as [`PlatformError::CircuitOpen`].
    pub shed_breaker: u64,
    /// Completed requests that finished within their deadline (all of them
    /// when the policy stamps no deadline). The denominator for goodput is
    /// the *whole* trace, sheds included.
    pub goodput: u64,
    /// End-to-end latency (queue wait + startup + execution) of completed
    /// requests; `None` when nothing completed.
    pub e2e: Option<Summary>,
    /// Startup-latency distribution of completed requests.
    pub startup: Option<Summary>,
    /// Fraction of completed requests served by reuse.
    pub reuse_rate: f64,
    /// Injected faults absorbed across the fleet.
    pub faults: u64,
    /// Boots that succeeded only after recovering from at least one fault.
    pub degraded: u64,
    /// Breaker trips (transitions into Open) across all functions.
    pub breaker_opens: u64,
    /// Background repair-loop work, summed over pools.
    pub repairs: RepairStats,
    /// The full admission decision log — byte-identical across runs of the
    /// same seed.
    pub admission_log: Vec<AdmissionRecord>,
    /// Every breaker transition, `(function, transition)`.
    pub transitions: Vec<(String, BreakerTransition)>,
    /// Fleet-wide metrics rollup (pool metrics merged, plus `admit.*`,
    /// `shed.*`, and `breaker.<state>` counters).
    pub metrics: MetricsRegistry,
}

impl AdmittedOutcome {
    /// `completed / admitted` — 1.0 means no admitted request was lost.
    pub fn availability(&self) -> f64 {
        fraction(self.completed, self.admitted)
    }

    /// `goodput / requests` — the fraction of *offered* load answered
    /// within its deadline.
    pub fn goodput_rate(&self) -> f64 {
        fraction(self.goodput, self.requests)
    }

    /// Total sheds of any type.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_deadline + self.shed_breaker
    }
}

/// Exact for the request counts involved (< 2^32) without numeric casts.
pub(crate) fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    f64::from(u32::try_from(part).unwrap_or(u32::MAX))
        / f64::from(u32::try_from(whole).unwrap_or(u32::MAX))
}

/// Drives `requests` (sorted by arrival) through per-function self-healing
/// pools behind an [`AdmissionController`] — the full overload-protection
/// pipeline: tick the pool's repair loop, gate the arrival (typed sheds,
/// never panics, never drops silently), serve at the admitted start time on
/// the platform clock, and feed the completion back into the breaker.
///
/// Unlike [`run_with_faults`], a failed *admitted* request does not abort
/// the simulation: it is counted as availability loss (the subject under
/// measurement) and reported in [`AdmittedOutcome::failed`].
///
/// Pools are always self-healing here (deferred quarantine + background
/// repair to a `min_ready` floor); `policy`'s retry/fallback knobs still
/// apply.
///
/// Legacy entry point, kept as a thin wrapper over [`Simulation`].
///
/// # Errors
///
/// [`PlatformError::InvalidTrace`] for malformed traces (these used to
/// panic); non-fault engine errors from the background repair loop.
#[allow(clippy::too_many_arguments)]
pub fn run_admitted<E, F>(
    functions: &[AppProfile],
    requests: &[TraceRequest],
    keep_alive: SimNanos,
    max_idle: usize,
    min_ready: usize,
    make_engine: F,
    model: &CostModel,
    plan: Option<FaultPlan>,
    policy: ResiliencePolicy,
    admission: AdmissionPolicy,
) -> Result<AdmittedOutcome, PlatformError>
where
    E: BootEngine + 'static,
    F: FnMut(&AppProfile) -> E + 'static,
{
    let mut sim = Simulation::new(functions.to_vec())
        .with_engine(make_engine)
        .with_model(model.clone())
        .with_keep_alive(keep_alive)
        .with_max_idle(max_idle)
        .with_prewarm(min_ready)
        .with_resilience(policy)
        .with_admission(admission);
    if let Some(plan) = plan {
        sim = sim.with_faults(plan);
    }
    let report = sim.run(requests)?;
    Ok(AdmittedOutcome {
        requests: report.requests,
        admitted: report.admitted,
        completed: report.completed,
        failed: report.failed,
        shed_overload: report.shed_overload,
        shed_deadline: report.shed_deadline,
        shed_breaker: report.shed_breaker,
        goodput: report.goodput,
        e2e: report.end_to_end,
        startup: report.startup,
        reuse_rate: fraction(report.reuses, report.completed),
        faults: report.faults,
        degraded: report.degraded,
        breaker_opens: report.breaker_opens,
        repairs: report.repairs,
        admission_log: report.admission_log,
        transitions: report.transitions,
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandbox::GvisorRestoreEngine;

    fn functions() -> Vec<AppProfile> {
        vec![AppProfile::c_hello(), AppProfile::c_nginx()]
    }

    fn steady_trace(n: usize, gap: SimNanos) -> Vec<TraceRequest> {
        (0..n)
            .map(|i| TraceRequest {
                arrival: gap.saturating_mul(i as u64),
                function: i % 2,
            })
            .collect()
    }

    #[test]
    fn steady_traffic_reuses_after_warmup() {
        let model = CostModel::experimental_machine();
        let outcome = run(
            &functions(),
            &steady_trace(20, SimNanos::from_millis(500)),
            SimNanos::from_secs(5),
            4,
            |_| GvisorRestoreEngine::new(),
            &model,
        )
        .unwrap();
        // 2 cold boots (one per function), 18 reuses.
        assert_eq!(outcome.pools.boots, 2);
        assert!(
            (outcome.reuse_rate - 0.9).abs() < 1e-9,
            "{}",
            outcome.reuse_rate
        );
        // The p99 startup is still a cold boot: caching can't fix the tail.
        assert!(outcome.startup.p99 > SimNanos::from_millis(50));
        assert!(outcome.startup.p50 < SimNanos::from_millis(1));
    }

    #[test]
    fn sparse_traffic_expires_and_recolds() {
        let model = CostModel::experimental_machine();
        let outcome = run(
            &functions(),
            &steady_trace(8, SimNanos::from_secs(30)),
            SimNanos::from_secs(5), // shorter than the inter-arrival gap
            4,
            |_| GvisorRestoreEngine::new(),
            &model,
        )
        .unwrap();
        assert_eq!(outcome.pools.boots, 8, "every request cold boots");
        assert_eq!(outcome.reuse_rate, 0.0);
        assert!(outcome.pools.expirations > 0);
    }

    #[test]
    fn fork_boot_fleet_has_flat_distribution() {
        let model = CostModel::experimental_machine();
        let outcome = run(
            &functions(),
            &steady_trace(20, SimNanos::from_secs(30)), // all keep-alive misses
            SimNanos::from_secs(1),
            0,
            |_| CatalyzerEngine::standalone(BootMode::Fork),
            &model,
        )
        .unwrap();
        assert_eq!(outcome.reuse_rate, 0.0);
        assert!(
            outcome.startup.p99 < SimNanos::from_millis(1),
            "{:?}",
            outcome.startup
        );
        // max/min within 2x: no tail at all.
        assert!(outcome.startup.max < outcome.startup.min.saturating_mul(2));
    }

    #[test]
    fn burst_drives_peak_concurrency() {
        let model = CostModel::experimental_machine();
        // 10 requests in the same millisecond: executions overlap.
        let burst: Vec<TraceRequest> = (0..10)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(i * 100),
                function: 0,
            })
            .collect();
        let outcome = run(
            &[AppProfile::c_nginx()],
            &burst,
            SimNanos::from_secs(5),
            0, // no reuse: every request boots its own instance
            |_| CatalyzerEngine::standalone(BootMode::Fork),
            &model,
        )
        .unwrap();
        assert!(outcome.peak_concurrency > 1, "{}", outcome.peak_concurrency);
        assert_eq!(outcome.pools.boots, 10);
    }

    #[test]
    fn admitted_zero_load_sheds_nothing() {
        let model = CostModel::experimental_machine();
        // Sparse arrivals, generous limit: admission must be invisible.
        let outcome = run_admitted(
            &[AppProfile::c_hello()],
            &steady_trace(12, SimNanos::from_millis(50))
                .into_iter()
                .map(|mut r| {
                    r.function = 0;
                    r
                })
                .collect::<Vec<_>>(),
            SimNanos::from_secs(5),
            4,
            1,
            |_| CatalyzerEngine::standalone(BootMode::Fork),
            &model,
            None,
            ResiliencePolicy::full(),
            crate::AdmissionPolicy::standard(4, SimNanos::from_millis(100)),
        )
        .unwrap();
        assert_eq!(outcome.requests, 12);
        assert_eq!(outcome.admitted, 12);
        assert_eq!(outcome.completed, 12);
        assert_eq!(outcome.shed(), 0, "zero load must shed nothing");
        assert_eq!(outcome.breaker_opens, 0, "no false breaker trips");
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.goodput, 12);
        assert!((outcome.availability() - 1.0).abs() < 1e-12);
        assert!(outcome.repairs.repairs == 0, "nothing to repair");
        assert!(outcome.repairs.replenished >= 1, "floor kept warm");
    }

    #[test]
    fn admitted_burst_sheds_typed_and_bounds_the_queue() {
        let model = CostModel::experimental_machine();
        // Same-instant burst far beyond limit+queue: overload sheds.
        let burst: Vec<TraceRequest> = (0..24)
            .map(|i| TraceRequest {
                arrival: SimNanos::from_micros(i * 10),
                function: 0,
            })
            .collect();
        let outcome = run_admitted(
            &[AppProfile::c_nginx()],
            &burst,
            SimNanos::from_secs(5),
            4,
            0,
            |_| CatalyzerEngine::standalone(BootMode::Fork),
            &model,
            None,
            ResiliencePolicy::full(),
            crate::AdmissionPolicy::standard(2, SimNanos::from_secs(10)),
        )
        .unwrap();
        assert!(outcome.shed_overload > 0, "queue is bounded");
        assert_eq!(
            outcome.admitted + outcome.shed(),
            outcome.requests,
            "every request is admitted or shed typed — none dropped"
        );
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.completed, outcome.admitted);
        // The decision log records every arrival.
        assert_eq!(outcome.admission_log.len(), burst.len());
    }

    #[test]
    fn admitted_is_deterministic() {
        let model = CostModel::experimental_machine();
        let trace = steady_trace(16, SimNanos::from_millis(2));
        let run_once = || {
            let outcome = run_admitted(
                &functions(),
                &trace,
                SimNanos::from_secs(5),
                4,
                1,
                |_| CatalyzerEngine::standalone(BootMode::Fork),
                &model,
                Some(FaultPlan::storm(
                    11,
                    0.8,
                    SimNanos::from_millis(4),
                    SimNanos::from_millis(20),
                )),
                ResiliencePolicy::full(),
                crate::AdmissionPolicy::standard(2, SimNanos::from_millis(50)),
            )
            .unwrap();
            serde_json::to_string(&outcome.admission_log).unwrap()
        };
        assert_eq!(run_once(), run_once(), "same seed, same decision history");
    }

    #[test]
    fn unsorted_trace_rejected_typed() {
        let model = CostModel::experimental_machine();
        let bad = vec![
            TraceRequest {
                arrival: SimNanos::from_secs(1),
                function: 0,
            },
            TraceRequest {
                arrival: SimNanos::ZERO,
                function: 0,
            },
        ];
        let err = run(
            &[AppProfile::c_hello()],
            &bad,
            SimNanos::from_secs(1),
            1,
            |_| CatalyzerEngine::standalone(BootMode::Fork),
            &model,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PlatformError::InvalidTrace(TraceError::Unsorted { at: 1, .. })
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("time-sorted"), "{err}");
    }

    #[test]
    fn unknown_function_rejected_typed() {
        let trace = vec![TraceRequest {
            arrival: SimNanos::ZERO,
            function: 3,
        }];
        let err = Simulation::new(functions()).run(&trace).unwrap_err();
        assert!(
            matches!(
                err,
                PlatformError::InvalidTrace(TraceError::UnknownFunction {
                    at: 0,
                    function: 3,
                    functions: 2,
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn empty_trace_rejected_typed() {
        let err = Simulation::new(functions()).run(&[]).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::InvalidTrace(TraceError::Empty)
        ));
    }

    #[test]
    fn builder_defaults_run_fork_boot() {
        let trace = steady_trace(8, SimNanos::from_millis(10));
        let report = Simulation::new(functions()).run(&trace).unwrap();
        assert_eq!(report.requests, 8);
        assert_eq!(report.completed, 8);
        assert_eq!(report.shed(), 0);
        assert!((report.availability() - 1.0).abs() < 1e-12);
        let startup = report.startup.unwrap();
        assert!(
            startup.p99 < SimNanos::from_millis(1),
            "fork boot stays sub-ms: {startup:?}"
        );
        assert!(report.events >= 16, "arrival + completion per request");
    }
}
