//! Host-time benchmark of the Catalyzer simulator.
//!
//! ```text
//! perfbench --workload <boot-matrix|fleet-burst|cluster-chaos> \
//!           [--seed N] [--seconds S] [--trace 0|1] [--pin HEX]
//! ```
//!
//! One workload per process, on one thread. The seed generates the
//! inputs (call order, catalogue and trace, node-fault plan); the simulator
//! receives only those. With `--trace 0` the run measures the end-to-end
//! metrics; with `--trace 1` it records spans around every call into a
//! crate and reports the per-layer metrics, writing the spans and the
//! table derived from them under `.bench_out/`. `--pin` replaces the pinned
//! output digest, to show that a wrong pin fails operations. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` for the workloads and metrics.

mod boot_matrix;
mod check;
mod cluster_chaos;
mod fleet_burst;
mod host;
mod layers;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use runtimes::AppProfile;
use simtime::CostModel;

use check::{Ledger, DEFAULT_SEED};
use host::{secs, HostClock};
use trace::Spans;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["boot-matrix", "fleet-burst", "cluster-chaos"];

/// End-to-end metrics reported with `--trace 0`, with their units. The
/// others (`calls_per_s` on `boot-matrix`, `fail_frac`, `sim_*`) are
/// printed and checked, not bounded.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Where the traced run writes its spans and layer table.
const OUT_DIR: &str = ".bench_out";

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or base, printed next to the value.
    pub note: String,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase, host seconds.
    pub seconds: f64,
    /// Machine model the simulator prices with.
    pub model: CostModel,
    /// Host clock started at process start.
    pub clock: HostClock,
    /// Span recorder (on only in the traced run).
    pub spans: Spans,
    /// Operations and failures.
    pub ledger: Ledger,
    /// Digest the workload's output must match, if pinned.
    pub expect: Option<u64>,
    /// End-to-end metrics, host time and virtual time alike.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Host nanoseconds of traced work: the denominator of layer coverage.
    pub traced_ns: u64,
    /// Host seconds of the untraced and of the traced timed steps.
    pub overhead: Option<(f64, f64)>,
}

impl Run {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        });
    }

    /// Runs `f`; while spans are recorded its host time counts as traced
    /// work, the denominator of layer coverage.
    pub fn traced<T>(&mut self, f: impl FnOnce(&mut Run) -> T) -> T {
        if !self.spans.is_on() {
            return f(self);
        }
        let start = self.clock.now_ns();
        let out = f(self);
        self.traced_ns = self
            .traced_ns
            .saturating_add(self.clock.now_ns().saturating_sub(start));
        out
    }

    /// Builds the workload's inputs `reps` times, dropping each before the
    /// next, and keeps the last. Returns it with each build's host seconds.
    pub fn setup<T>(&mut self, reps: usize, mut build: impl FnMut(&mut Run) -> T) -> (T, Vec<f64>) {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let start = self.clock.now_ns();
            last = Some(self.traced(|run| build(run)));
            times.push(secs(self.clock.now_ns().saturating_sub(start)));
        }
        println!("set-up steps (s): {}", steps(&times));
        (last.expect("at least one build"), times)
    }

    /// The traced run's calibration probes: the same one-request `run_*`
    /// call twice. Records `platform.calibrate_s` and the repeat ratio and
    /// returns the first probe's host seconds.
    pub fn calibration_probes<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        mut probe: impl FnMut() -> Result<T, E>,
    ) -> f64 {
        let mut time = |run: &mut Run, name: &'static str| {
            run.traced(|run| {
                let result = run.spans.span(name, 0, |_| probe());
                run.ledger.op(result, what);
            });
            run.spans.total_s(name)
        };
        let first = time(self, "platform.calibrate");
        let repeat = time(self, "platform.calibrate.repeat");
        self.layer("platform.calibrate_s", first, "s");
        self.layer("platform.calibrate_repeat_ratio", repeat / first, "ratio");
        first
    }

    /// Checks the output of timed step `i` inside a `bench.check` span:
    /// `check` returns the output's digest or a named failure. The first
    /// step's digest must match the pinned one, and every later step's the
    /// first's. A failure fails the step's `ops` operations.
    pub fn check_step(
        &mut self,
        workload: &str,
        i: usize,
        ops: u64,
        first: &mut Option<u64>,
        check: impl FnOnce(&str) -> Result<u64, String>,
    ) {
        let what = format!("{workload} step {i}");
        let result = self.spans.span("bench.check", i as u64, |_| check(&what));
        match result {
            Err(err) => self.ledger.fail(ops, err),
            Ok(got) => {
                let want = match *first {
                    Some(digest) => Some(digest),
                    None => {
                        println!("digest {workload} {got:016x}");
                        *first = Some(got);
                        self.expect
                    }
                };
                self.ledger.expect_digest(&what, got, want, ops);
            }
        }
    }

    /// The timed phase: repeats `measure` for `seconds` and at least `min`
    /// times, running `check` on each result outside the timing. In the
    /// traced run the steps alternate untraced and traced, in equal
    /// numbers, and their host seconds feed the tracing-overhead
    /// comparison. Returns each step's host seconds.
    pub fn timed<T>(
        &mut self,
        traced: bool,
        min: usize,
        mut measure: impl FnMut(&mut Run, usize) -> T,
        mut check: impl FnMut(&mut Run, usize, T),
    ) -> Vec<f64> {
        let length = std::time::Duration::from_secs_f64(self.seconds).as_nanos();
        let deadline = self
            .clock
            .now_ns()
            .saturating_add(u64::try_from(length).unwrap_or(u64::MAX));
        let (mut times, mut untraced_s, mut traced_s) = (Vec::new(), 0.0, 0.0);
        loop {
            let i = times.len();
            let enough = i >= if traced { 2 * min } else { min };
            if enough && self.clock.now_ns() >= deadline && (!traced || i % 2 == 0) {
                break;
            }
            let on = traced && i % 2 == 1;
            self.spans.set_on(on);
            let start = self.clock.now_ns();
            let out = self.traced(|run| measure(run, i));
            let dt = secs(self.clock.now_ns().saturating_sub(start));
            times.push(dt);
            if on {
                traced_s += dt;
            } else {
                untraced_s += dt;
            }
            self.traced(|run| check(run, i, out));
        }
        if traced {
            self.overhead = Some((untraced_s, traced_s));
        }
        println!("timed steps (s): {}", steps(&times));
        times
    }
}

/// Host seconds of each step, for the log.
fn steps(times: &[f64]) -> String {
    let list: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    list.join(" ")
}

/// The 1,000-function catalogue of the fleet and cluster workloads: the
/// fourteen Figure 1 shapes in turn, each copy under its own name, so
/// calibration sees exactly fourteen distinct cost shapes.
pub fn cycled_catalogue(count: usize) -> Vec<AppProfile> {
    let bases = workloads::catalogue::fig1_functions();
    (0..count)
        .map(|i| {
            let mut p = bases[i % bases.len()].clone();
            p.name = format!("{}-{i:04}", p.name);
            p
        })
        .collect()
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut pin = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--pin" => {
                pin = Some(
                    u64::from_str_radix(value.trim_start_matches("0x"), 16)
                        .map_err(|e| format!("--pin: {e}"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        pin,
    })
}

fn main() -> ExitCode {
    let clock = HostClock::start();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--pin HEX]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        model: CostModel::experimental_machine(),
        clock,
        spans: Spans::new(clock, false),
        ledger: Ledger::default(),
        expect: args.pin.or_else(|| check::pinned(args.workload, args.seed)),
        e2e: Vec::new(),
        layers: Vec::new(),
        traced_ns: 0,
        overhead: None,
    };
    match args.workload {
        "boot-matrix" => boot_matrix::run(&mut run, args.trace),
        "fleet-burst" => fleet_burst::run(&mut run, args.trace),
        _ => cluster_chaos::run(&mut run, args.trace),
    }
    if args.trace {
        layers::run(&mut run);
    }
    finish(&mut run, &args)
}

fn finish(run: &mut Run, args: &Args) -> ExitCode {
    match host::peak_rss_mib() {
        Some(mib) => run.e2e("peak_rss_mb", mib, "MiB", "VmHWM at exit".into()),
        None => run
            .ledger
            .fail(0, "peak_rss_mb: /proc/self/status has no VmHWM".into()),
    }
    let (attempted, failed) = (run.ledger.attempted(), run.ledger.failed());
    run.e2e(
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} of {attempted} operations"),
    );

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for m in &run.e2e {
        println!("e2e {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    for failure in run.ledger.failures() {
        println!("FAIL {failure}");
    }

    let reported: Vec<(&str, &'static str)> = if args.trace {
        for m in &run.layers {
            println!("layer {} = {} {}", m.name, m.value, m.unit);
        }
        let stem = format!("{}-seed{}", args.workload, args.seed);
        if let Err(err) = write_trace(run, &stem) {
            run.ledger
                .fail(0, format!("writing {OUT_DIR}/{stem}.*: {err}"));
        }
        layers::LAYER_METRICS.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let source = if args.trace { &run.layers } else { &run.e2e };
    let mut metrics = String::new();
    for (i, (name, unit)) in reported.iter().enumerate() {
        let Some(m) = source.iter().find(|m| m.name == *name) else {
            run.ledger
                .fail(0, format!("metric {name} was not measured"));
            continue;
        };
        if !m.value.is_finite() {
            run.ledger.fail(0, format!("metric {name} is not finite"));
            continue;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        );
    }
    let correct = run.ledger.failures().is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.ledger.attempted().max(1),
        run.ledger.failed()
    );
    ExitCode::SUCCESS
}

fn write_trace(run: &Run, stem: &str) -> std::io::Result<()> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir)?;
    let spans = dir.join(format!("{stem}.spans.jsonl"));
    run.spans.write_jsonl(&spans)?;
    let mut table = run.spans.table(run.traced_ns);
    table.push('\n');
    for m in &run.layers {
        let _ = writeln!(table, "{:<44} {:>16} {}", m.name, m.value, m.unit);
    }
    let table_path = dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&table_path, &table)?;
    print!("{table}");
    println!("trace files: {} {}", spans.display(), table_path.display());
    Ok(())
}
