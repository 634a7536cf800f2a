//! Contract tests for the discrete-event simulation core.
//!
//! Three claims the PR's API redesign rests on:
//!
//! 1. **Determinism** — the same catalogue, knobs, and trace produce a
//!    byte-identical report, closed-loop and fleet alike (property tests
//!    over random traces and fault seeds).
//! 2. **Insertion-order independence** — the event queue's tie-break is a
//!    total order over distinct events, so the drain sequence never
//!    depends on scheduling order (property test over random event sets).
//! 3. **Wrapper fidelity** — the thin `run` / `run_with_faults` /
//!    `run_admitted` wrappers over the event engine reproduce the
//!    pre-refactor closed-loop simulator *exactly*, pinned against four
//!    fixtures captured before the engine swap (down to the byte for the
//!    admission decision logs).

use catalyzer::{BootMode, CatalyzerEngine};
use faultsim::FaultPlan;
use platform::simulate::arena::{Arena, FnId, InstanceId};
use platform::simulate::events::{Event, EventQueue};
use platform::simulate::{self, TraceRequest};
use platform::{AdmissionPolicy, ResiliencePolicy, Simulation};
use proptest::prelude::*;
use runtimes::AppProfile;
use sandbox::GvisorRestoreEngine;
use simtime::stats::Summary;
use simtime::{CostModel, SimNanos};

fn fixture_functions() -> Vec<AppProfile> {
    vec![AppProfile::c_hello(), AppProfile::c_nginx()]
}

/// The pinned closed-loop trace: 12 requests, 7 ms apart, alternating
/// between the two functions.
fn fixture_trace() -> Vec<TraceRequest> {
    (0..12)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_millis(7).saturating_mul(i),
            function: usize::try_from(i % 2).unwrap_or(0),
        })
        .collect()
}

fn summary(count: usize, stats: [u64; 6]) -> Summary {
    Summary {
        count,
        mean: SimNanos::from_nanos(stats[0]),
        min: SimNanos::from_nanos(stats[1]),
        max: SimNanos::from_nanos(stats[2]),
        p50: SimNanos::from_nanos(stats[3]),
        p95: SimNanos::from_nanos(stats[4]),
        p99: SimNanos::from_nanos(stats[5]),
    }
}

#[test]
fn run_matches_the_pre_refactor_fixture() {
    let model = CostModel::experimental_machine();
    let out = simulate::run(
        &fixture_functions(),
        &fixture_trace(),
        SimNanos::from_secs(5),
        2,
        |_| GvisorRestoreEngine::new(),
        &model,
    )
    .unwrap();
    assert_eq!(
        out.startup,
        summary(
            12,
            [
                19_229_537,
                150_000,
                117_437_956,
                150_000,
                117_437_956,
                117_437_956
            ]
        )
    );
    assert_eq!(
        out.end_to_end,
        summary(
            12,
            [
                20_260_087,
                665_850,
                118_983_206,
                1_695_250,
                118_983_206,
                118_983_206
            ]
        )
    );
    assert!((out.reuse_rate - 10.0 / 12.0).abs() < 1e-12);
    assert_eq!(
        (out.pools.reuses, out.pools.boots, out.pools.expirations),
        (10, 2, 0)
    );
    assert_eq!(out.peak_concurrency, 4);
    assert_eq!((out.faults, out.degraded), (0, 0));
}

#[test]
fn run_with_faults_matches_the_pre_refactor_fixture() {
    let model = CostModel::experimental_machine();
    let out = simulate::run_with_faults(
        &fixture_functions(),
        &fixture_trace(),
        SimNanos::from_secs(5),
        2,
        |_| CatalyzerEngine::standalone(BootMode::Fork),
        &model,
        Some(FaultPlan::uniform(0xF1D0, 0.2)),
        ResiliencePolicy::full(),
    )
    .unwrap();
    assert_eq!(
        out.startup,
        summary(
            12,
            [
                12_113_407,
                150_000,
                143_230_038,
                150_000,
                143_230_038,
                143_230_038
            ]
        )
    );
    assert_eq!(
        out.end_to_end,
        summary(
            12,
            [
                13_147_872,
                665_850,
                143_766_768,
                1_695_250,
                143_766_768,
                143_766_768
            ]
        )
    );
    assert!((out.reuse_rate - 10.0 / 12.0).abs() < 1e-12);
    assert_eq!(
        (out.pools.reuses, out.pools.boots, out.pools.expirations),
        (10, 2, 0)
    );
    assert_eq!(out.peak_concurrency, 3);
    assert_eq!((out.faults, out.degraded), (1, 1));
}

#[test]
fn run_admitted_matches_the_pre_refactor_fixture() {
    let model = CostModel::experimental_machine();
    let out = simulate::run_admitted(
        &fixture_functions(),
        &fixture_trace(),
        SimNanos::from_secs(5),
        2,
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
        AdmissionPolicy::standard(2, SimNanos::from_millis(50)),
    )
    .unwrap();
    assert_eq!(
        (out.requests, out.admitted, out.completed, out.failed),
        (12, 12, 12, 0)
    );
    assert_eq!(
        (
            out.shed_overload,
            out.shed_deadline,
            out.shed_breaker,
            out.goodput
        ),
        (0, 0, 0, 12)
    );
    assert_eq!((out.faults, out.degraded, out.breaker_opens), (0, 0, 0));
    assert_eq!(
        (
            out.repairs.repairs,
            out.repairs.evicted,
            out.repairs.replenished
        ),
        (0, 0, 2)
    );
    assert_eq!(out.repairs.repair_time, SimNanos::ZERO);
    assert_eq!(
        out.e2e,
        Some(summary(
            12,
            [1_184_465, 665_850, 1_721_350, 686_730, 1_721_350, 1_721_350]
        ))
    );
    assert_eq!(
        out.startup,
        Some(summary(
            12,
            [150_000, 150_000, 150_000, 150_000, 150_000, 150_000]
        ))
    );
    // The full decision log, down to the byte.
    assert_eq!(
        serde_json::to_string(&out.admission_log).unwrap(),
        r#"[{"at":0,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":7000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":14000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":21000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":28000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":35000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":42000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":49000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":56000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":63000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":70000000,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":77000000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}}]"#
    );
}

#[test]
fn run_admitted_under_a_hot_burst_matches_the_pre_refactor_fixture() {
    let model = CostModel::experimental_machine();
    let burst: Vec<TraceRequest> = (0..20)
        .map(|i| TraceRequest {
            arrival: SimNanos::from_micros(40).saturating_mul(i),
            function: usize::try_from(i % 2).unwrap_or(0),
        })
        .collect();
    let out = simulate::run_admitted(
        &fixture_functions(),
        &burst,
        SimNanos::from_secs(5),
        2,
        1,
        |_| CatalyzerEngine::standalone(BootMode::Fork),
        &model,
        Some(FaultPlan::uniform(0xBEEF, 0.3)),
        ResiliencePolicy::full(),
        AdmissionPolicy::standard(1, SimNanos::from_millis(2)),
    )
    .unwrap();
    assert_eq!((out.admitted, out.completed, out.failed), (6, 6, 0));
    assert_eq!(
        (
            out.shed_overload,
            out.shed_deadline,
            out.shed_breaker,
            out.goodput
        ),
        (6, 8, 0, 5)
    );
    assert_eq!(out.breaker_opens, 0);
    assert_eq!(
        (
            out.repairs.repairs,
            out.repairs.evicted,
            out.repairs.replenished
        ),
        (0, 0, 2)
    );
    assert_eq!(
        out.e2e.as_ref().map(|s| s.p99),
        Some(SimNanos::from_nanos(3_336_600))
    );
    assert_eq!(
        out.startup.as_ref().map(|s| s.p99),
        Some(SimNanos::from_micros(150))
    );
    assert_eq!(
        serde_json::to_string(&out.admission_log).unwrap(),
        r#"[{"at":0,"function":"C-hello","decision":{"kind":"admitted","queued":0}},{"at":40000,"function":"C-Nginx","decision":{"kind":"admitted","queued":0}},{"at":80000,"function":"C-hello","decision":{"kind":"admitted","queued":606730}},{"at":120000,"function":"C-Nginx","decision":{"kind":"admitted","queued":1641350}},{"at":160000,"function":"C-hello","decision":{"kind":"admitted","queued":1192580}},{"at":200000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":240000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":280000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":320000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":360000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":400000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":440000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":480000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":520000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":560000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":600000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":640000,"function":"C-hello","decision":{"kind":"shed-overload","in_flight":3}},{"at":680000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}},{"at":720000,"function":"C-hello","decision":{"kind":"admitted","queued":1298430}},{"at":760000,"function":"C-Nginx","decision":{"kind":"shed-deadline","would_start":3456600}}]"#
    );
}

/// Local mirror of the queue's tie-break fingerprint, used only to drop
/// exact duplicates (the one case where the sequence number decides).
fn fingerprint(at: SimNanos, event: &Event) -> (u64, u8, u64) {
    let (class, key) = match event {
        Event::ExecComplete { request, .. } => (0, *request),
        Event::KeepAliveExpiry { instance } => (1, instance.key()),
        Event::TransferComplete {
            node,
            function,
            gen,
        } => (
            2,
            (u64::from(*gen) << 48)
                ^ ((u64::from(*node) << 32) | u64::try_from(function.index()).unwrap_or(u64::MAX)),
        ),
        Event::BootComplete { instance } => (3, instance.key()),
        Event::PoolTick { function } => (4, u64::try_from(function.index()).unwrap_or(u64::MAX)),
        Event::NodeRepair { node } => (5, u64::from(*node)),
        Event::NodeCrash { node } => (6, u64::from(*node)),
        Event::PartitionHeal { epoch } => (7, u64::from(*epoch)),
        Event::HedgeFire {
            node,
            function,
            gen,
        } => (
            8,
            (u64::from(*gen) << 48)
                ^ ((u64::from(*node) << 32) | u64::try_from(function.index()).unwrap_or(u64::MAX)),
        ),
        Event::HeartbeatTick { round } => (9, u64::from(*round)),
        Event::Arrival { request } => (10, *request),
    };
    (at.as_nanos(), class, key)
}

/// One event of class rank `class` (`0..=9` non-arrival kinds, anything
/// else an arrival) built from `key`, with instance events drawn from
/// `ids` (`key < ids.len()`).
fn event_of(class: u8, key: u64, ids: &[InstanceId]) -> Event {
    let slot = usize::try_from(key).unwrap_or(0);
    match class {
        0 => Event::ExecComplete {
            request: key,
            instance: None,
        },
        1 => Event::KeepAliveExpiry {
            instance: ids[slot],
        },
        2 => Event::BootComplete {
            instance: ids[slot],
        },
        3 => Event::PoolTick {
            function: FnId::from_index(slot),
        },
        4 => Event::TransferComplete {
            node: u32::try_from(key % 4).unwrap_or(0),
            function: FnId::from_index(slot),
            gen: u32::try_from(key % 3).unwrap_or(0),
        },
        5 => Event::NodeRepair {
            node: u32::try_from(key).unwrap_or(0),
        },
        6 => Event::NodeCrash {
            node: u32::try_from(key).unwrap_or(0),
        },
        7 => Event::PartitionHeal {
            epoch: u32::try_from(key).unwrap_or(0),
        },
        8 => Event::HedgeFire {
            node: u32::try_from(key % 4).unwrap_or(0),
            function: FnId::from_index(slot),
            gen: u32::try_from(key % 3).unwrap_or(0),
        },
        9 => Event::HeartbeatTick {
            round: u32::try_from(key).unwrap_or(0),
        },
        _ => Event::Arrival { request: key },
    }
}

fn trace_from(gaps_us: &[u32]) -> Vec<TraceRequest> {
    let mut now = SimNanos::ZERO;
    gaps_us
        .iter()
        .enumerate()
        .map(|(i, &gap)| {
            now = now.saturating_add(SimNanos::from_micros(u64::from(gap)));
            TraceRequest {
                arrival: now,
                function: i % 2,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Distinct events drain in the same order no matter how they were
    /// scheduled: forward and reverse insertion produce identical pops.
    #[test]
    fn drain_order_is_insertion_order_independent(
        raw in prop::collection::vec((0u64..400, 0u8..11, 0u64..24), 1..80),
    ) {
        let mut arena: Arena<u8> = Arena::new();
        let ids: Vec<InstanceId> = (0..24).map(|_| arena.insert(0)).collect();
        let mut events: Vec<(SimNanos, Event)> = raw
            .iter()
            .map(|&(t, class, key)| (SimNanos::from_nanos(t), event_of(class, key, &ids)))
            .collect();
        events.sort_by_key(|(at, e)| fingerprint(*at, e));
        events.dedup_by_key(|(at, e)| fingerprint(*at, e));

        let mut forward = EventQueue::new();
        for &(at, event) in &events {
            forward.schedule(at, event);
        }
        let mut backward = EventQueue::new();
        for &(at, event) in events.iter().rev() {
            backward.schedule(at, event);
        }
        let drained: Vec<(SimNanos, Event)> =
            std::iter::from_fn(|| forward.pop()).collect();
        let reversed: Vec<(SimNanos, Event)> =
            std::iter::from_fn(|| backward.pop()).collect();
        prop_assert_eq!(drained, reversed);

        // And the drain respects the (time, class, key) total order.
        let mut keys: Vec<(u64, u8, u64)> = events
            .iter()
            .map(|(at, e)| fingerprint(*at, e))
            .collect();
        keys.sort_unstable();
        let forward_again: Vec<(u64, u8, u64)> = {
            let mut q = EventQueue::new();
            for &(at, event) in &events {
                q.schedule(at, event);
            }
            std::iter::from_fn(|| q.pop())
                .map(|(at, e)| fingerprint(at, &e))
                .collect()
        };
        prop_assert_eq!(keys, forward_again);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trace-fed queue pops exactly what the all-in-heap queue pops
    /// when every arrival is scheduled up front. Both are driven the way
    /// the run loops drive them: after each pop, events are scheduled at
    /// or after the popped time, some of them failover-style re-arrivals
    /// of requests that have already arrived.
    #[test]
    fn trace_fed_queue_matches_the_all_in_heap_queue(
        gaps in prop::collection::vec(0u64..4, 1..60),
        script in prop::collection::vec(
            prop::collection::vec((0u8..12, 0u64..6, 0u64..24), 0..3),
            0..200,
        ),
    ) {
        let mut arena: Arena<u8> = Arena::new();
        let ids: Vec<InstanceId> = (0..24).map(|_| arena.insert(0)).collect();
        let mut at = 0u64;
        let trace: Vec<TraceRequest> = gaps
            .iter()
            .enumerate()
            .map(|(i, gap)| {
                at += gap;
                TraceRequest { arrival: SimNanos::from_nanos(at), function: i % 3 }
            })
            .collect();

        let mut fed = EventQueue::for_trace(&trace);
        let mut heap = EventQueue::with_capacity(trace.len());
        for (i, r) in trace.iter().enumerate() {
            heap.schedule(r.arrival, Event::Arrival { request: i as u64 });
        }
        prop_assert_eq!(fed.scheduled(), heap.scheduled());

        let mut arrived: Vec<u64> = Vec::new();
        let mut steps = script.iter();
        loop {
            prop_assert_eq!(fed.len(), heap.len());
            let popped = fed.pop();
            prop_assert_eq!(popped, heap.pop());
            let Some((now, event)) = popped else { break };
            // The heap starts with arrivals only, so the first pop is one
            // and `arrived` is never empty below.
            if let Event::Arrival { request } = event {
                arrived.push(request);
            }
            for &(class, delta, key) in steps.next().into_iter().flatten() {
                let event = if class < 10 {
                    event_of(class, key, &ids)
                } else {
                    let nth = usize::try_from(key).unwrap_or(0) % arrived.len();
                    Event::Arrival { request: arrived[nth] }
                };
                let at = now.saturating_add(SimNanos::from_nanos(delta));
                fed.schedule(at, event);
                heap.schedule(at, event);
            }
        }
        prop_assert!(fed.is_empty());
        prop_assert_eq!(fed.scheduled(), heap.scheduled());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same trace, same knobs, same fault seed — byte-identical closed-loop
    /// report (Debug covers every field, metrics rollup included).
    #[test]
    fn closed_loop_is_deterministic(
        gaps in prop::collection::vec(1u32..4_000, 1..20),
        seed in 0u64..1 << 48,
        rate_pct in 0u32..40,
    ) {
        let trace = trace_from(&gaps);
        let run = || {
            Simulation::new(fixture_functions())
                .with_faults(FaultPlan::uniform(seed, f64::from(rate_pct) / 100.0))
                .with_request_local_clocks()
                .run(&trace)
                .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Same trace, same knobs, same fault seed — byte-identical fleet
    /// outcome (serialized JSON covers every exported field).
    #[test]
    fn fleet_is_deterministic_across_runs(
        gaps in prop::collection::vec(0u32..2_000, 1..60),
        seed in 0u64..1 << 48,
    ) {
        let trace = trace_from(&gaps);
        let run = || {
            Simulation::new(fixture_functions())
                .with_faults(FaultPlan::uniform(seed, 0.2).with_poison_ratio(0.5))
                .with_prewarm(1)
                .run_fleet(&trace)
                .unwrap()
        };
        let a = serde_json::to_string(&run()).unwrap();
        let b = serde_json::to_string(&run()).unwrap();
        prop_assert_eq!(a, b);
    }
}
