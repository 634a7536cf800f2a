//! The traced run's per-layer sections and metrics.
//!
//! Besides the workload's own traced phase, every traced run makes two
//! sections of calls of its own, so each crate's public calls are timed on
//! their own: the compile decomposition (what a func-image compile and a
//! boot are made of, over the fourteen Figure 1 shapes) and the replays
//! (the seed's fleet-burst arrivals pushed through the event queue, the
//! arena and a latency histogram). Their time is not part of the tracing
//! overhead comparison. Metrics of a layer a workload never calls read 0.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use catalyzer::{Catalyzer, CatalyzerEngine};
use imagefmt::flat::{self, FlatImage};
use memsim::MappedImage;
use platform::simulate::{Arena, Event, EventQueue, TraceRequest};
use platform::{Gateway, InvokeRequest};
use runtimes::{AppProfile, WrappedProgram};
use sandbox::{BootCtx, BootEngine};
use simtime::{CostModel, LatencyHistogram, SimClock, SimNanos};

use crate::boot_matrix::{round_order, CALL, MODES, MODE_NAMES};
use crate::fleet_burst;
use crate::host::secs;
use crate::trace::{median, quantile_us, P50, P99};
use crate::Run;

/// Every per-layer metric, with its unit, as `BENCHMARK.json` lists them.
pub const LAYER_METRICS: [(&str, &str); 57] = [
    ("runtimes.init_s", "s"),
    ("runtimes.checkpoint_s", "s"),
    ("runtimes.handler_us.p50", "us"),
    ("runtimes.handler_us.p99", "us"),
    ("guest_kernel.checkpoint_objects_ms", "ms"),
    ("guest_kernel.objects", "count"),
    ("imagefmt.flat_write_s", "s"),
    ("imagefmt.flat_write_mib_per_s", "MiB/s"),
    ("imagefmt.image_mib", "MiB"),
    ("imagefmt.crc32_mib_per_s", "MiB/s"),
    ("imagefmt.flat_parse_us", "us"),
    ("imagefmt.restore_metadata_us.p50", "us"),
    ("imagefmt.restore_metadata_us.p99", "us"),
    ("memsim.sfork_clone_us.p50", "us"),
    ("memsim.sfork_clone_us.p99", "us"),
    ("memsim.cow_faults", "count"),
    ("core.first_cold_boot_s", "s"),
    ("core.template_ms", "ms"),
    ("core.boot_us.cold.p50", "us"),
    ("core.boot_us.cold.p99", "us"),
    ("core.boot_us.warm.p50", "us"),
    ("core.boot_us.warm.p99", "us"),
    ("core.boot_us.fork.p50", "us"),
    ("core.boot_us.fork.p99", "us"),
    ("platform.gateway.call_us.cold.p50", "us"),
    ("platform.gateway.call_us.cold.p99", "us"),
    ("platform.gateway.call_us.warm.p50", "us"),
    ("platform.gateway.call_us.warm.p99", "us"),
    ("platform.gateway.call_us.fork.p50", "us"),
    ("platform.gateway.call_us.fork.p99", "us"),
    ("platform.gateway.self_us.p50", "us"),
    ("platform.calibrate_s", "s"),
    ("platform.calibrate_repeat_ratio", "ratio"),
    ("platform.fleet.loop_s", "s"),
    ("platform.fleet.events", "count"),
    ("platform.fleet.events_per_s", "1/s"),
    ("platform.fleet.peak_instances", "count"),
    ("platform.fleet.reuse_rate", "ratio"),
    ("platform.event_queue.ns_per_event", "ns"),
    ("platform.arena.ns_per_op", "ns"),
    ("platform.cluster.loop_s", "s"),
    ("platform.cluster.events_per_s", "1/s"),
    ("platform.cluster.remote", "count"),
    ("platform.cluster.transfers", "count"),
    ("platform.cluster.reroutes", "count"),
    ("platform.chaos.loop_s", "s"),
    ("platform.chaos.events_per_s", "1/s"),
    ("platform.chaos.failovers", "count"),
    ("platform.chaos.rereplications", "count"),
    ("platform.chaos.hedges", "count"),
    ("platform.chaos.hedge_win_rate", "ratio"),
    ("simtime.histogram.ns_per_record", "ns"),
    ("workloads.trace_gen_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.check_s", "s"),
    ("bench.layer_coverage_frac", "ratio"),
    ("bench.traced_s", "s"),
];

/// Span names of steady `BootEngine::boot` calls, per mode.
const BOOT: [&str; 3] = ["core.boot.cold", "core.boot.warm", "core.boot.fork"];

/// Span names of the `Gateway::call`s made next to the steady boots.
const PAIRED_CALL: [&str; 3] = [
    "platform.gateway.paired_call.cold",
    "platform.gateway.paired_call.warm",
    "platform.gateway.paired_call.fork",
];

/// Index of the fork mode in [`MODES`].
const FORK: usize = 2;

/// Span names of the first boot per function and mode.
const FIRST_BOOT: [&str; 3] = [
    "core.first_cold_boot",
    "core.first_boot.warm",
    "core.first_boot.fork",
];

/// `restore_metadata` calls per function.
const RESTORE_REPS: usize = 9;

/// Steady boots per (mode, function).
const BOOT_REPS: usize = 6;

/// Replays of the event queue and the histogram.
const REPLAY_REPS: usize = 3;

/// Replays of the arena (each is short).
const ARENA_REPS: usize = 21;

const MIB: f64 = 1024.0 * 1024.0;

/// Runs the compile decomposition and the replays, then derives every
/// per-layer metric from the recorded spans.
pub fn run(run: &mut Run) {
    run.spans.set_on(true);
    let functions = workloads::catalogue::fig1_functions();
    let (objects, image_bytes) = run.traced(|run| compile_steps(run, &functions));
    let cow_faults = run.traced(|run| boots(run, &functions));
    let trace = run.traced(|run| {
        let seed = run.seed;
        run.spans.span("workloads.open_loop.replay", 0, |_| {
            fleet_burst::trace(seed)
        })
    });
    run.traced(|run| replays(run, &trace));
    let n = trace.len() as f64;
    drop(trace);

    let s = &run.spans;
    let mut out: Vec<(&str, f64)> = Vec::new();
    let q = |name: &str, p| quantile_us(&s.durations(name), p);
    out.push(("runtimes.init_s", s.total_s("runtimes.init")));
    out.push(("runtimes.checkpoint_s", s.total_s("runtimes.checkpoint")));
    out.push(("runtimes.handler_us.p50", q("runtimes.handler", P50)));
    out.push(("runtimes.handler_us.p99", q("runtimes.handler", P99)));
    out.push((
        "guest_kernel.checkpoint_objects_ms",
        1e3 * s.total_s("guest_kernel.checkpoint_objects"),
    ));
    out.push(("guest_kernel.objects", objects as f64));
    let image_mib = image_bytes as f64 / MIB;
    let write_s = s.total_s("imagefmt.flat_write");
    out.push(("imagefmt.flat_write_s", write_s));
    out.push(("imagefmt.flat_write_mib_per_s", image_mib / write_s));
    out.push(("imagefmt.image_mib", image_mib));
    out.push((
        "imagefmt.crc32_mib_per_s",
        image_mib / s.total_s("imagefmt.crc32"),
    ));
    out.push(("imagefmt.flat_parse_us", q("imagefmt.flat_parse", P50)));
    out.push((
        "imagefmt.restore_metadata_us.p50",
        q("imagefmt.restore_metadata", P50),
    ));
    out.push((
        "imagefmt.restore_metadata_us.p99",
        q("imagefmt.restore_metadata", P99),
    ));
    out.push(("memsim.sfork_clone_us.p50", q("memsim.sfork_clone", P50)));
    out.push(("memsim.sfork_clone_us.p99", q("memsim.sfork_clone", P99)));
    out.push(("memsim.cow_faults", cow_faults as f64));
    out.push(("core.first_cold_boot_s", s.total_s("core.first_cold_boot")));
    out.push(("core.template_ms", 1e3 * s.total_s("core.template")));
    let boot_names = [
        ("core.boot_us.cold.p50", "core.boot_us.cold.p99"),
        ("core.boot_us.warm.p50", "core.boot_us.warm.p99"),
        ("core.boot_us.fork.p50", "core.boot_us.fork.p99"),
    ];
    for (m, (p50, p99)) in boot_names.into_iter().enumerate() {
        out.push((p50, q(BOOT[m], P50)));
        out.push((p99, q(BOOT[m], P99)));
    }

    let call_names = [
        (
            "platform.gateway.call_us.cold.p50",
            "platform.gateway.call_us.cold.p99",
        ),
        (
            "platform.gateway.call_us.warm.p50",
            "platform.gateway.call_us.warm.p99",
        ),
        (
            "platform.gateway.call_us.fork.p50",
            "platform.gateway.call_us.fork.p99",
        ),
    ];
    for (m, (p50, p99)) in call_names.into_iter().enumerate() {
        out.push((p50, q(CALL[m], P50)));
        out.push((p99, q(CALL[m], P99)));
    }
    out.push((
        "platform.gateway.self_us.p50",
        gateway_self_us(run, functions.len()),
    ));

    let s = &run.spans;
    let per = |name: &str, ops: f64| {
        median(
            &s.durations(name)
                .iter()
                .map(|&d| d as f64)
                .collect::<Vec<_>>(),
        ) / ops
    };
    out.push((
        "platform.event_queue.ns_per_event",
        per("platform.event_queue.replay", n),
    ));
    out.push((
        "platform.arena.ns_per_op",
        per("platform.arena.replay", 2.0 * fleet_burst::BURST as f64),
    ));
    out.push((
        "simtime.histogram.ns_per_record",
        per("simtime.histogram.replay", 2.0 * n),
    ));
    let gen: Vec<f64> = s
        .durations("workloads.open_loop")
        .into_iter()
        .map(secs)
        .collect();
    out.push(("workloads.trace_gen_s", median(&gen)));
    if let Some((untraced, traced)) = run.overhead {
        out.push(("bench.trace_overhead_frac", traced / untraced - 1.0));
    }
    out.push(("bench.check_s", s.total_s("bench.check")));
    out.push((
        "bench.layer_coverage_frac",
        s.layer_ns() as f64 / run.traced_ns.max(1) as f64,
    ));
    out.push(("bench.traced_s", secs(run.traced_ns)));

    for (name, value) in out {
        push(run, name, value);
    }
    // Loops this workload never runs read 0.
    for (name, _) in LAYER_METRICS {
        if !run.layers.iter().any(|m| m.name == name) {
            push(run, name, 0.0);
        }
    }
}

fn push(run: &mut Run, name: &str, value: f64) {
    match LAYER_METRICS.iter().find(|(n, _)| *n == name) {
        Some(&(_, unit)) => run.layer(name, value, unit),
        None => run
            .ledger
            .fail(0, format!("layer metric {name} is not declared")),
    }
}

/// Gateway self time: per (mode, function), the median paired call minus
/// the median boot minus the median handler, all three timed side by side
/// in the decomposition; then the median over the pairs.
fn gateway_self_us(run: &Run, functions: usize) -> f64 {
    let median_us = |name: &str, op: u64| -> f64 {
        let d: Vec<f64> = run
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        median(&d)
    };
    let mut selfs = Vec::new();
    for m in 0..MODES.len() {
        for f in 0..functions {
            let op = (m * functions + f) as u64;
            selfs.push(
                median_us(PAIRED_CALL[m], op)
                    - median_us(BOOT[m], op)
                    - median_us("runtimes.handler", op),
            );
        }
    }
    median(&selfs)
}

/// The func-image compile, one public call at a time, per function:
/// initialise to the entry point, capture the kernel objects and the
/// checkpoint, write, checksum and parse the image, and restore its
/// metadata. Returns (kernel objects, image bytes) summed over functions.
fn compile_steps(run: &mut Run, functions: &[AppProfile]) -> (u64, u64) {
    let model = run.model.clone();
    let mut objects = 0;
    let mut bytes = 0;
    for (f, profile) in functions.iter().enumerate() {
        let result = compile_one(run, profile, f as u64, &model);
        if let Some((o, b)) = run.ledger.op(result, &format!("compile {}", profile.name)) {
            objects += o;
            bytes += b;
        }
    }
    (objects, bytes)
}

fn compile_one(
    run: &mut Run,
    profile: &AppProfile,
    op: u64,
    model: &CostModel,
) -> Result<(u64, u64), String> {
    let clock = SimClock::new();
    let spans = &mut run.spans;
    let program = spans.span("runtimes.init", op, |_| {
        let fs = profile.build_fs_server();
        let mut program = WrappedProgram::start_with(profile, fs, &clock, model)?;
        program.run_to_entry_point(&clock, model)?;
        Ok::<_, runtimes::RuntimeError>(program)
    });
    let program = program.map_err(|e| e.to_string())?;
    let objects = spans.span("guest_kernel.checkpoint_objects", op, |_| {
        program.kernel.checkpoint_objects().len() as u64
    });
    let src = spans
        .span("runtimes.checkpoint", op, |_| {
            program.checkpoint_source(&clock, model)
        })
        .map_err(|e| e.to_string())?;
    drop(program);
    let image = spans.span("imagefmt.flat_write", op, |_| {
        flat::write(&src, &clock, model)
    });
    drop(src);
    let len = image.len() as u64;
    black_box(spans.span("imagefmt.crc32", op, |_| imagefmt::crc32(black_box(&image))));
    let flat = spans
        .span("imagefmt.flat_parse", op, |_| {
            FlatImage::parse(
                &MappedImage::new(format!("{}.func", profile.name), image),
                &clock,
                model,
            )
        })
        .map_err(|e| e.to_string())?;
    for _ in 0..RESTORE_REPS {
        let restored = spans
            .span("imagefmt.restore_metadata", op, |_| {
                flat.restore_metadata(&clock, model)
            })
            .map_err(|e| e.to_string())?;
        if restored.len() as u64 != flat.object_count() {
            return Err(format!(
                "restored {} objects, image holds {}",
                restored.len(),
                flat.object_count()
            ));
        }
    }
    Ok((objects, len))
}

/// Boots through one shared Catalyzer: the first boot per function and
/// mode (the cold one compiles the func-image) and template generation,
/// then `BOOT_REPS` steady rounds, each in its seeded pair order. Per pair a
/// round makes one `BootEngine::boot` and runs the handler on it, then
/// makes one `Gateway::call` on a gateway over the same Catalyzer, so that
/// call, boot and handler are timed side by side; fork-booted address
/// spaces are then cloned with `sfork_clone`. Span ops are
/// `mode * functions + function`. Returns the CoW faults the fork-booted
/// programs took while serving.
fn boots(run: &mut Run, functions: &[AppProfile]) -> u64 {
    let model = run.model.clone();
    let system = Rc::new(RefCell::new(Catalyzer::new()));
    let mut engines: Vec<CatalyzerEngine> = MODES
        .iter()
        .map(|&m| CatalyzerEngine::new(Rc::clone(&system), m))
        .collect();
    let mut gateways: Vec<Gateway<CatalyzerEngine>> = MODES
        .iter()
        .map(|&m| {
            let mut gw = Gateway::new(CatalyzerEngine::new(Rc::clone(&system), m), model.clone());
            for f in functions {
                gw.register(f.clone());
            }
            gw
        })
        .collect();
    for (f, profile) in functions.iter().enumerate() {
        let op = f as u64;
        let what = format!("first boots {}", profile.name);
        let cold = run.spans.span(FIRST_BOOT[0], op, |_| {
            engines[0].boot(profile, &mut BootCtx::fresh(&model))
        });
        run.ledger.op(cold, &what);
        let template = run.spans.span("core.template", op, |_| {
            system.borrow_mut().ensure_template(profile, &model)
        });
        run.ledger.op(template, &what);
        for m in 1..MODES.len() {
            let first = run.spans.span(FIRST_BOOT[m], op, |_| {
                engines[m].boot(profile, &mut BootCtx::fresh(&model))
            });
            run.ledger.op(first, &what);
        }
    }
    let mut cow_faults = 0;
    for rep in 0..BOOT_REPS {
        for (m, f) in round_order(run.seed, rep as u64, functions.len()) {
            let profile = &functions[f];
            let op = (m * functions.len() + f) as u64;
            let what = format!("boot {} {}", MODE_NAMES[m], profile.name);
            // Alternate which goes first, so neither side always finds the
            // pair's state warm in the caches.
            let mut call = |run: &mut Run| {
                let call = run.spans.span(PAIRED_CALL[m], op, |_| {
                    gateways[m].call(InvokeRequest::new(&profile.name))
                });
                run.ledger.op(call, &what);
            };
            if rep % 2 == 0 {
                call(run);
            }
            let mut ctx = BootCtx::fresh(&model);
            let booted = run
                .spans
                .span(BOOT[m], op, |_| engines[m].boot(profile, &mut ctx));
            if let Some(mut outcome) = run.ledger.op(booted, &what) {
                let served = run.spans.span("runtimes.handler", op, |_| {
                    outcome.program.invoke_handler(ctx.clock(), ctx.model())
                });
                run.ledger.op(served, &what);
                if m == FORK {
                    cow_faults += outcome.program.space.stats().cow_faults;
                    let child = run.spans.span("memsim.sfork_clone", op, |_| {
                        outcome.program.space.sfork_clone("perfbench-child")
                    });
                    run.ledger.op(child, &what);
                }
            }
            if rep % 2 == 1 {
                call(run);
            }
        }
    }
    cow_faults
}

/// Pushes the fleet-burst arrivals through the event queue (schedule all,
/// pop all), the flash crowd through the arena (insert all, remove all),
/// and two samples per request through a latency histogram, as
/// `run_fleet` records startup and end-to-end latency.
fn replays(run: &mut Run, trace: &[TraceRequest]) {
    for rep in 0..REPLAY_REPS {
        let popped = run
            .spans
            .span("platform.event_queue.replay", rep as u64, |_| {
                let mut queue = EventQueue::with_capacity(trace.len());
                for (i, r) in trace.iter().enumerate() {
                    queue.schedule(r.arrival, Event::Arrival { request: i as u64 });
                }
                let mut popped = 0usize;
                while let Some(e) = queue.pop() {
                    black_box(e);
                    popped += 1;
                }
                popped
            });
        let ok = if popped == trace.len() {
            Ok(())
        } else {
            Err(format!("popped {popped} of {} events", trace.len()))
        };
        run.ledger.op(ok, "event-queue replay");
    }
    for rep in 0..ARENA_REPS {
        let live = run.spans.span("platform.arena.replay", rep as u64, |_| {
            let mut arena = Arena::with_capacity(fleet_burst::BURST);
            let ids: Vec<_> = (0..fleet_burst::BURST).map(|i| arena.insert(i)).collect();
            for id in ids {
                black_box(arena.remove(id));
            }
            arena.len()
        });
        let ok = if live == 0 {
            Ok(())
        } else {
            Err(format!("{live} left live"))
        };
        run.ledger.op(ok, "arena replay");
    }
    for rep in 0..REPLAY_REPS {
        let count = run.spans.span("simtime.histogram.replay", rep as u64, |_| {
            let mut hist = LatencyHistogram::new();
            for r in trace {
                let t = r.arrival.as_nanos();
                hist.record(SimNanos::from_nanos(t % 1_000_000));
                hist.record(SimNanos::from_nanos(t % 100_000_000));
            }
            black_box(hist.count())
        });
        let ok = if count == 2 * trace.len() as u64 {
            Ok(())
        } else {
            Err(format!("{count} of {} samples", 2 * trace.len()))
        };
        run.ledger.op(ok, "histogram replay");
    }
}
