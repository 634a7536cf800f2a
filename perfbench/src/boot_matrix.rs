//! `boot-matrix`: the full-fidelity boot path.
//!
//! Three `Gateway`s share one `Catalyzer` through its `Cold`, `Warm` and
//! `Fork` engines, each with the fourteen Figure 1 functions registered.
//! Set-up is the first `Gateway::call` per (mode, function) pair, in
//! catalogue order: it compiles the func-image, fills the zygote or
//! generates the template. The timed phase repeats steady rounds of one
//! call per pair, each round in its own order drawn from the seed.
//! Runtimes, guest kernel, memsim, imagefmt and core do nearly all the
//! work here; the event loops do none.

use std::cell::RefCell;
use std::rc::Rc;

use catalyzer::{BootMode, Catalyzer, CatalyzerEngine};
use platform::{Gateway, InvokeRequest};
use runtimes::AppProfile;

use crate::check::Digest;
use crate::trace::{median, nearest_rank, P50, P99};
use crate::Run;

/// The three boot modes, in gateway order.
pub const MODES: [BootMode; 3] = [BootMode::Cold, BootMode::Warm, BootMode::Fork];

/// Short mode names used in metric and span names.
pub const MODE_NAMES: [&str; 3] = ["cold", "warm", "fork"];

/// Span names of the first (set-up) call per pair, per mode.
const FIRST_CALL: [&str; 3] = [
    "platform.gateway.first_call.cold",
    "platform.gateway.first_call.warm",
    "platform.gateway.first_call.fork",
];

/// Span names of steady calls, per mode.
pub const CALL: [&str; 3] = [
    "platform.gateway.call.cold",
    "platform.gateway.call.warm",
    "platform.gateway.call.fork",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Steady rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// Virtual (boot, exec) nanoseconds of one call.
type Virtual = (u64, u64);

/// One (mode index, function index) pair.
type Pair = (usize, usize);

/// Every (mode, function) pair, mode-major: the set-up order.
fn pairs(functions: usize) -> Vec<Pair> {
    (0..MODES.len())
        .flat_map(|m| (0..functions).map(move |f| (m, f)))
        .collect()
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order of steady round `round` over every (mode, function) pair: a
/// seeded shuffle, different in every round, so a run's median covers many
/// orders.
pub fn round_order(seed: u64, round: u64, functions: usize) -> Vec<Pair> {
    let mut pairs = pairs(functions);
    let mut state = mix(seed ^ mix(round));
    for i in (1..pairs.len()).rev() {
        state = mix(state);
        let j = usize::try_from(state % (i as u64 + 1)).unwrap_or(0);
        pairs.swap(i, j);
    }
    pairs
}

/// Three gateways over one shared Catalyzer, functions registered.
fn gateways(run: &Run, functions: &[AppProfile]) -> Vec<Gateway<CatalyzerEngine>> {
    let system = Rc::new(RefCell::new(Catalyzer::new()));
    MODES
        .iter()
        .map(|&mode| {
            let mut gw = Gateway::new(
                CatalyzerEngine::new(Rc::clone(&system), mode),
                run.model.clone(),
            );
            for f in functions {
                gw.register(f.clone());
            }
            gw
        })
        .collect()
}

/// One call per pair in `order`; the virtual latencies of the successful
/// calls, indexed by pair (`mode * functions + function`). Span ops are
/// `round << 16 | pair`.
fn round(
    run: &mut Run,
    gws: &mut [Gateway<CatalyzerEngine>],
    functions: &[AppProfile],
    order: &[Pair],
    names: &[&'static str; 3],
    round: u64,
) -> Vec<Option<Virtual>> {
    let mut out = vec![None; order.len()];
    for &(m, f) in order {
        let name = &functions[f].name;
        let pair = m * functions.len() + f;
        // The invocation (and the sandbox it holds) is dropped inside the
        // span: tearing the call down is part of its cost.
        let result = run.spans.span(names[m], round << 16 | pair as u64, |_| {
            gws[m]
                .call(InvokeRequest::new(name))
                .map(|inv| (inv.report.boot.as_nanos(), inv.report.exec.as_nanos()))
        });
        let what = format!("boot-matrix {} {name}", MODE_NAMES[m]);
        out[pair] = run.ledger.op(result, &what);
    }
    out
}

/// Fails every call whose virtual latencies differ from those of the same
/// pair in `reference`.
fn expect_same(run: &mut Run, what: &str, got: &[Option<Virtual>], reference: &[Option<Virtual>]) {
    for (pair, (g, r)) in got.iter().zip(reference).enumerate() {
        if g.is_some() && g != r {
            run.ledger.fail(
                1,
                format!("boot-matrix {what}: pair {pair} got {g:?}, expected {r:?}"),
            );
        }
    }
}

/// Digest of the (mode, function, boot, exec) sequence of each round, in
/// call order.
fn digest(functions: &[AppProfile], rounds: &[(&[Pair], &[Option<Virtual>])]) -> u64 {
    let mut d = Digest::default();
    for &(order, seq) in rounds {
        for &(m, f) in order {
            let v = seq.get(m * functions.len() + f).copied().flatten();
            let (boot, exec) = v.unwrap_or((u64::MAX, u64::MAX));
            d.str(MODE_NAMES[m])
                .str(&functions[f].name)
                .u64(boot)
                .u64(exec);
        }
    }
    d.finish()
}

/// Runs the workload: `SETUP_REPS` set-ups (one when traced), then steady
/// rounds for `run.seconds`.
pub fn run(run: &mut Run, traced: bool) {
    let functions = workloads::catalogue::fig1_functions();
    let setup_order = pairs(functions.len());
    let seed = run.seed;
    let calls_per_round = setup_order.len();

    // Set-up: fresh gateways each time; every set-up must match the first.
    run.spans.set_on(traced);
    let mut setup_seq: Option<Vec<Option<Virtual>>> = None;
    let reps = if traced { 1 } else { SETUP_REPS };
    let (mut gws, setup_s) = run.setup(reps, |run| {
        let mut gws = gateways(run, &functions);
        let seq = round(run, &mut gws, &functions, &setup_order, &FIRST_CALL, 0);
        match &setup_seq {
            Some(reference) => expect_same(run, "set-up", &seq, reference),
            None => setup_seq = Some(seq),
        }
        gws
    });
    let setup_seq = setup_seq.unwrap_or_default();

    // Steady rounds; every round must match the first.
    let mut first_round: Option<Vec<Option<Virtual>>> = None;
    let mut boots: Vec<u64> = Vec::new();
    let times = run.timed(
        traced,
        MIN_ROUNDS,
        |run, i| {
            let order = round_order(seed, i as u64, functions.len());
            round(run, &mut gws, &functions, &order, &CALL, i as u64 + 1)
        },
        |run, i, seq| {
            boots.extend(seq.iter().flatten().map(|v| v.0));
            match &first_round {
                Some(reference) => expect_same(run, &format!("steady round {i}"), &seq, reference),
                None => first_round = Some(seq),
            }
        },
    );
    drop(gws);

    // Output check: pinned digest over the set-up and the first steady round.
    let first_round = first_round.unwrap_or_default();
    run.spans.set_on(traced);
    let got = run.traced(|run| {
        run.spans.span("bench.check", 0, |_| {
            digest(
                &functions,
                &[
                    (&setup_order, &setup_seq),
                    (&round_order(seed, 0, functions.len()), &first_round),
                ],
            )
        })
    });
    let expect = run.expect;
    run.ledger.expect_digest(
        "boot-matrix (set-up + first steady round)",
        got,
        expect,
        2 * calls_per_round as u64,
    );
    println!("digest boot-matrix {got:016x}");

    boots.sort_unstable();
    let steady_calls = boots.len();
    run.e2e(
        "setup_s",
        median(&setup_s),
        "s",
        format!(
            "median of {} set-ups, {calls_per_round} first calls each",
            setup_s.len()
        ),
    );
    let rates: Vec<f64> = times.iter().map(|t| calls_per_round as f64 / t).collect();
    let note = format!(
        "median of {} rounds of {calls_per_round} calls",
        rates.len()
    );
    run.e2e("calls_per_s", median(&rates), "1/s", note.clone());
    run.e2e(
        "req_per_s",
        median(&rates),
        "1/s",
        format!("{note}, one simulated request per call"),
    );
    let note = format!("virtual, exact over {steady_calls} steady calls");
    run.e2e(
        "sim_startup_p50_us",
        nearest_rank(&boots, P50) as f64 / 1e3,
        "us",
        note.clone(),
    );
    run.e2e(
        "sim_startup_p99_us",
        nearest_rank(&boots, P99) as f64 / 1e3,
        "us",
        note,
    );
}
