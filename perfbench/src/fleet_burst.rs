//! `fleet-burst`: one long open-loop `Simulation::run_fleet` run.
//!
//! A 1,000-function catalogue cycling the fourteen shapes, so calibration
//! is fork-only and short. The trace is a Zipf Poisson baseline of two
//! million requests plus one flash crowd of 10^5 arrivals inside 500 µs,
//! shorter than a fork boot, which lifts peak instances past 10^5: the
//! arena and idle lists outgrow the CPU caches. Keep-alive expiry and reuse
//! run on both sides of the burst. The event queue, arena and histograms do
//! nearly all the work; imagefmt does none.

use platform::simulate::{FleetOutcome, TraceRequest};
use platform::Simulation;
use runtimes::AppProfile;
use simtime::SimNanos;
use workloads::generator::{open_loop, Arrivals, Popularity, TraceSpec};

use crate::check::{conservation, digest_json};
use crate::host::secs;
use crate::trace::median;
use crate::{cycled_catalogue, Run};

/// Functions in the catalogue.
pub const FUNCTIONS: usize = 1_000;

/// Baseline requests.
pub const BASELINE: usize = 2_000_000;

/// Baseline arrival rate: the baseline spans 100 virtual seconds.
pub const RATE_HZ: f64 = 20_000.0;

/// Flash-crowd arrivals.
pub const BURST: usize = 100_000;

/// Window the flash crowd lands in, shorter than one fork boot.
pub const BURST_WIDTH: SimNanos = SimNanos::from_micros(500);

/// The flash crowd lands 60 s in: the generator bursts once per period,
/// and the baseline ends before a second period would begin.
pub const BURST_EVERY: SimNanos = SimNanos::from_secs(60);

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Timed iterations every run makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 2;

/// The seed's trace over `FUNCTIONS` functions.
pub fn trace(seed: u64) -> Vec<TraceRequest> {
    let spec = TraceSpec {
        functions: FUNCTIONS,
        count: BASELINE + BURST,
        arrivals: Arrivals::Bursty {
            rate_hz: RATE_HZ,
            every: BURST_EVERY,
            size: BURST,
            width: BURST_WIDTH,
        },
        popularity: Popularity::Zipf { exponent: 1.0 },
        seed,
    };
    open_loop(&spec)
        .into_iter()
        .map(|r| TraceRequest {
            arrival: r.arrival,
            function: r.function,
        })
        .collect()
}

/// Catalogue and trace, built inside `workloads.*` spans.
fn inputs(run: &mut Run) -> (Vec<AppProfile>, Vec<TraceRequest>) {
    let seed = run.seed;
    let catalogue = run
        .spans
        .span("workloads.catalogue", 0, |_| cycled_catalogue(FUNCTIONS));
    let trace = run.spans.span("workloads.open_loop", 0, |_| trace(seed));
    (catalogue, trace)
}

/// Runs the workload: set-up, then `run_fleet` over the whole trace for
/// `run.seconds`. Traced: two calibration probes first.
pub fn run(run: &mut Run, traced: bool) {
    run.spans.set_on(traced);
    let ((catalogue, trace), setup_s) = run.setup(SETUP_REPS, inputs);
    let requests = trace.len() as u64;

    let calibrate_s = traced.then(|| {
        run.calibration_probes("fleet-burst calibration probe", || {
            Simulation::new(catalogue.clone()).run_fleet(&trace[..1])
        })
    });

    let mut first_digest = None;
    let mut last: Option<FleetOutcome> = None;
    let times = run.timed(
        traced,
        MIN_ITERATIONS,
        |run, i| {
            run.spans.span("platform.fleet.run_fleet", i as u64, |_| {
                Simulation::new(catalogue.clone()).run_fleet(&trace)
            })
        },
        |run, i, result| {
            let Some(outcome) = run.ledger.op(result, &format!("fleet-burst run_fleet {i}")) else {
                return;
            };
            run.check_step("fleet-burst", i, 1, &mut first_digest, |what| {
                let o = &outcome;
                conservation(what, o.requests, o.completed, o.shed, 0)?;
                if o.startup.count != o.completed {
                    return Err(format!("{what}: startup samples != completions"));
                }
                digest_json(o)
            });
            last = Some(outcome);
        },
    );

    let n = times.len();
    run.e2e(
        "setup_s",
        median(&setup_s),
        "s",
        format!("median of {} catalogue + trace builds", setup_s.len()),
    );
    let rates: Vec<f64> = times.iter().map(|t| requests as f64 / t).collect();
    run.e2e(
        "req_per_s",
        median(&rates),
        "1/s",
        format!("median of {n} run_fleet calls of {requests} requests, calibration included"),
    );
    let Some(outcome) = last else { return };
    let note = "virtual, fixed-ladder bound, one cell".to_string();
    run.e2e(
        "sim_startup_p50_us",
        outcome.startup.p50.as_nanos() as f64 / 1e3,
        "us",
        note.clone(),
    );
    run.e2e(
        "sim_startup_p99_us",
        outcome.startup.p99.as_nanos() as f64 / 1e3,
        "us",
        note,
    );
    run.e2e(
        "sim_availability",
        outcome.completed as f64 / outcome.requests.max(1) as f64,
        "ratio",
        format!(
            "virtual, {} of {} completed",
            outcome.completed, outcome.requests
        ),
    );
    if let Some(calibrate_s) = calibrate_s {
        let traced_times: Vec<f64> = run
            .spans
            .durations("platform.fleet.run_fleet")
            .into_iter()
            .map(secs)
            .collect();
        let loop_s = median(&traced_times) - calibrate_s;
        run.layer("platform.fleet.loop_s", loop_s, "s");
        run.layer("platform.fleet.events", outcome.events as f64, "count");
        run.layer(
            "platform.fleet.events_per_s",
            outcome.events as f64 / loop_s,
            "1/s",
        );
        run.layer(
            "platform.fleet.peak_instances",
            outcome.peak_instances as f64,
            "count",
        );
        run.layer("platform.fleet.reuse_rate", outcome.reuse_rate, "ratio");
    }
}
