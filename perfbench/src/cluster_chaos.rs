//! `cluster-chaos`: the open-loop cluster and chaos engines, two cells per
//! iteration in one process on a 1,000-function catalogue.
//!
//! (a) `ClusterSim::run_cluster`: 4 nodes, placement budget 1, remote-fork
//! routing and a viral burst on one function, so remote sforks, transfers
//! and reroutes happen. (b) `ClusterSim::run_chaos`: 4 nodes, budget 2,
//! `ChaosPolicy::full()`, and a node plan that grays the viral function's
//! first holder just before the burst, crashes it mid-burst and partitions
//! another node around it. Each cell recalibrates the same fourteen shapes,
//! cold compile included, as `repro cluster` and `repro chaos` do today.
//! This is the workload where reusing calibration across cells would show.

use faultsim::NodePlan;
use platform::cluster::{ChaosOutcome, ChaosPolicy, ClusterOutcome};
use platform::simulate::TraceRequest;
use platform::{ClusterConfig, ClusterSim, PlatformError};
use runtimes::AppProfile;
use simtime::SimNanos;
use workloads::generator::{open_loop, Arrivals, Popularity, TraceSpec};

use crate::check::{conservation, digest_json};
use crate::host::secs;
use crate::trace::median;
use crate::{cycled_catalogue, Run};

/// Functions in the catalogue.
pub const FUNCTIONS: usize = 1_000;

/// Zipf Poisson baseline requests.
pub const BASELINE: usize = 1_000_000;

/// Baseline arrival rate: the baseline spans 500 virtual seconds.
pub const RATE_HZ: f64 = 2_000.0;

/// Viral-burst arrivals, all for [`VIRAL`].
pub const BURST: usize = 4_500;

/// The function that goes viral: a Zipf-tail function, so no node but its
/// holders has its template when the burst lands. Its template holders are
/// nodes 0 and 1 (placement puts replica `r` of function `f` on node
/// `(f + r) % NODES`).
pub const VIRAL: usize = 996;

/// When the viral burst lands.
pub const BURST_AT: SimNanos = SimNanos::from_secs(250);

/// Window the viral burst spreads over, shorter than one fork boot.
pub const BURST_WIDTH: SimNanos = SimNanos::from_micros(500);

/// Nodes per cell.
pub const NODES: usize = 4;

/// Concurrent instances per node.
pub const NODE_CAPACITY: usize = 2_000;

/// Keep-alive of both cells.
pub const KEEP_ALIVE: SimNanos = SimNanos::from_millis(200);

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Timed iterations every run makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 2;

/// The seed's trace: the baseline plus the viral burst, time-sorted.
pub fn trace(seed: u64) -> Vec<TraceRequest> {
    let spec = TraceSpec {
        functions: FUNCTIONS,
        count: BASELINE,
        arrivals: Arrivals::Poisson { rate_hz: RATE_HZ },
        popularity: Popularity::Zipf { exponent: 1.0 },
        seed,
    };
    let mut trace: Vec<TraceRequest> = open_loop(&spec)
        .into_iter()
        .map(|r| TraceRequest {
            arrival: r.arrival,
            function: r.function,
        })
        .collect();
    let step = BURST_WIDTH.as_nanos() / BURST as u64;
    trace.extend((0..BURST as u64).map(|i| TraceRequest {
        arrival: BURST_AT.saturating_add(SimNanos::from_nanos(step * i)),
        function: VIRAL,
    }));
    trace.sort_by_key(|r| r.arrival);
    trace
}

/// The chaos cell's node plan. With budget 2 the viral function's holders
/// are nodes 0 and 1: node 0 goes gray 10 ms before the burst (hedged
/// transfers fire around it) and crashes 700 µs into it (pending transfers
/// abort, waiters fail over); node 3 is partitioned from 2 ms to 50 ms in.
pub fn node_plan(seed: u64) -> NodePlan {
    NodePlan::quiet(seed)
        .with_gray(
            0,
            BURST_AT.saturating_sub(SimNanos::from_millis(10)),
            BURST_AT.saturating_add(SimNanos::from_secs(2)),
            200.0,
        )
        .with_crash(0, BURST_AT.saturating_add(SimNanos::from_micros(700)))
        .with_partition(
            [3],
            BURST_AT.saturating_add(SimNanos::from_millis(2)),
            BURST_AT.saturating_add(SimNanos::from_millis(50)),
        )
}

fn sim(catalogue: &[AppProfile], budget: usize) -> ClusterSim {
    ClusterSim::new(catalogue.to_vec(), ClusterConfig::new(NODES, budget))
        .with_node_capacity(NODE_CAPACITY)
        .with_keep_alive(KEEP_ALIVE)
}

fn cell_a(
    catalogue: &[AppProfile],
    trace: &[TraceRequest],
) -> Result<ClusterOutcome, PlatformError> {
    sim(catalogue, 1).run_cluster(trace)
}

fn cell_b(
    catalogue: &[AppProfile],
    trace: &[TraceRequest],
    seed: u64,
) -> Result<ChaosOutcome, PlatformError> {
    sim(catalogue, 2)
        .with_chaos(node_plan(seed), ChaosPolicy::full())
        .run_chaos(trace)
}

/// Runs the workload: set-up, then steps of both cells for `run.seconds`.
/// Traced: two calibration probes first.
pub fn run(run: &mut Run, traced: bool) {
    run.spans.set_on(traced);
    let seed = run.seed;
    let ((catalogue, trace), setup_s) = run.setup(SETUP_REPS, |run| {
        let catalogue = run
            .spans
            .span("workloads.catalogue", 0, |_| cycled_catalogue(FUNCTIONS));
        let trace = run.spans.span("workloads.open_loop", 0, |_| trace(seed));
        (catalogue, trace)
    });
    let requests = trace.len() as u64;

    let calibrate_s = traced.then(|| {
        run.calibration_probes("cluster-chaos calibration probe", || {
            cell_a(&catalogue, &trace[..1])
        })
    });

    let mut first_digest = None;
    let mut last: Option<(ClusterOutcome, ChaosOutcome)> = None;
    let times = run.timed(
        traced,
        MIN_ITERATIONS,
        |run, i| {
            let a = run
                .spans
                .span("platform.cluster.run_cluster", i as u64, |_| {
                    cell_a(&catalogue, &trace)
                });
            let b = run.spans.span("platform.chaos.run_chaos", i as u64, |_| {
                cell_b(&catalogue, &trace, seed)
            });
            (a, b)
        },
        |run, i, (a, b)| {
            let a = run.ledger.op(a, &format!("cluster-chaos run_cluster {i}"));
            let b = run.ledger.op(b, &format!("cluster-chaos run_chaos {i}"));
            let (Some(a), Some(b)) = (a, b) else { return };
            run.check_step("cluster-chaos", i, 2, &mut first_digest, |what| {
                conservation(
                    &format!("{what} run_cluster"),
                    a.requests,
                    a.completed,
                    a.shed,
                    0,
                )?;
                let c = &b.cluster;
                let what = format!("{what} run_chaos");
                conservation(&what, c.requests, c.completed, c.shed, b.failed)?;
                Ok(digest_json(&a)? ^ digest_json(&b)?.rotate_left(1))
            });
            last = Some((a, b));
        },
    );

    let n = times.len();
    run.e2e(
        "setup_s",
        median(&setup_s),
        "s",
        format!("median of {} catalogue + trace builds", setup_s.len()),
    );
    let rates: Vec<f64> = times.iter().map(|t| 2.0 * requests as f64 / t).collect();
    run.e2e(
        "req_per_s",
        median(&rates),
        "1/s",
        format!(
            "median of {n} steps of run_cluster + run_chaos, {requests} requests each, calibration included"
        ),
    );
    let Some((a, b)) = last else { return };
    let note = "virtual, fixed-ladder bound, worst of 2 cells".to_string();
    let worst =
        |q: fn(&ClusterOutcome) -> SimNanos| q(&a).max(q(&b.cluster)).as_nanos() as f64 / 1e3;
    run.e2e(
        "sim_startup_p50_us",
        worst(|c| c.startup.p50),
        "us",
        note.clone(),
    );
    run.e2e("sim_startup_p99_us", worst(|c| c.startup.p99), "us", note);
    let avail_a = a.completed as f64 / a.requests.max(1) as f64;
    run.e2e(
        "sim_availability",
        avail_a.min(b.availability),
        "ratio",
        format!(
            "virtual, worst of cluster {}/{} and chaos {}/{} completed",
            a.completed, a.requests, b.cluster.completed, b.cluster.requests
        ),
    );
    if let Some(calibrate_s) = calibrate_s {
        let loop_s = |run: &Run, name: &str| {
            let t: Vec<f64> = run.spans.durations(name).into_iter().map(secs).collect();
            median(&t) - calibrate_s
        };
        let cluster_loop = loop_s(run, "platform.cluster.run_cluster");
        let chaos_loop = loop_s(run, "platform.chaos.run_chaos");
        run.layer("platform.cluster.loop_s", cluster_loop, "s");
        run.layer(
            "platform.cluster.events_per_s",
            a.events as f64 / cluster_loop,
            "1/s",
        );
        run.layer("platform.cluster.remote", a.remote as f64, "count");
        run.layer("platform.cluster.transfers", a.transfers as f64, "count");
        run.layer("platform.cluster.reroutes", a.reroutes as f64, "count");
        run.layer("platform.chaos.loop_s", chaos_loop, "s");
        run.layer(
            "platform.chaos.events_per_s",
            b.cluster.events as f64 / chaos_loop,
            "1/s",
        );
        run.layer("platform.chaos.failovers", b.failovers as f64, "count");
        run.layer(
            "platform.chaos.rereplications",
            b.rereplications as f64,
            "count",
        );
        run.layer("platform.chaos.hedges", b.hedges as f64, "count");
        run.layer(
            "platform.chaos.hedge_win_rate",
            b.hedge_wins as f64 / b.hedges.max(1) as f64,
            "ratio",
        );
    }
}
