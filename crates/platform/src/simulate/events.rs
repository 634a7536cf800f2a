//! The central event queue of the discrete-event engine.
//!
//! Two sources feed it: a `BinaryHeap` keyed on [`SimNanos`] for every
//! event the engine schedules while it runs, and a cursor over the
//! validated, already-sorted request trace for the arrivals. Each pop
//! takes the smaller of the heap's top and the cursor's next arrival, so
//! the trace never has to be copied into the heap and the heap stays as
//! deep as the work in flight, not as long as the trace. Every state
//! change is an [`Event`] popped in deterministic order. The tie-break at
//! equal timestamps is total and *insertion-order independent*: `(time,
//! event class, payload key, payload subkey)` — the sequence number is
//! consulted only for exact duplicates, which the engine never schedules.
//! Together the key and subkey bind every payload field (catalint's
//! `eventproto` pass checks this mechanically), so two distinct events can
//! never compare equal, and which source an event came from cannot change
//! where it pops. Class order encodes the platform's causality at an
//! instant: completions free capacity, expiries reclaim it, background
//! work runs, and only then does a new arrival see the world.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use simtime::SimNanos;

use super::arena::{FnId, InstanceId};
use super::TraceRequest;

/// One scheduled state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Request `request` (its index in the trace) arrives at the platform.
    Arrival {
        /// Trace position of the arriving request.
        request: u64,
    },
    /// A cold boot finished: the instance is ready to run its request.
    BootComplete {
        /// The instance that finished booting.
        instance: InstanceId,
    },
    /// Request `request` finished executing.
    ExecComplete {
        /// Trace position of the completing request.
        request: u64,
        /// The instance it ran on (`None` in the closed-loop engine, where
        /// pools own their instances).
        instance: Option<InstanceId>,
    },
    /// An idle instance's keep-alive window lapsed. The generational id
    /// makes stale expiries (instance reused or reclaimed since) miss.
    KeepAliveExpiry {
        /// The instance whose window lapsed.
        instance: InstanceId,
    },
    /// A self-healing sweep is due for `function`: repair suspect prepared
    /// state and replenish the warm floor, off the request path.
    PoolTick {
        /// The function owed the sweep.
        function: FnId,
    },
    /// A cross-node template transfer landed: node `node` now holds a local
    /// replica of `function`'s template and can sfork without the network.
    /// The generation makes superseded transfers (hedge losers, aborts
    /// after a source crash) lazy-miss, exactly like stale instance ids.
    TransferComplete {
        /// The receiving node's index in the cluster.
        node: u32,
        /// The function whose template was transferred.
        function: FnId,
        /// The transfer generation this completion belongs to.
        gen: u32,
    },
    /// A failed node's background repair finished: its poisoned template
    /// replicas are rebuilt and the node rejoins the routable set.
    NodeRepair {
        /// The repaired node's index in the cluster.
        node: u32,
    },
    /// A scheduled node crash fires: the node drops its in-flight work and
    /// template replicas and leaves the cluster for the rest of the run.
    NodeCrash {
        /// The crashing node's index in the cluster.
        node: u32,
    },
    /// A scheduled partition heals: the islanded nodes rejoin the
    /// scheduler's side of the network. The epoch makes heals of
    /// superseded partitions lazy-miss.
    PartitionHeal {
        /// The partition epoch this heal belongs to.
        epoch: u32,
    },
    /// The hedge delay on an in-flight transfer elapsed: if the transfer
    /// is still pending, fire a second transfer from another holder and
    /// let the first completion win.
    HedgeFire {
        /// The transfer's destination node.
        node: u32,
        /// The function being transferred.
        function: FnId,
        /// The transfer generation the hedge belongs to.
        gen: u32,
    },
    /// A virtual-time heartbeat round: every node's health belief is
    /// refreshed from its (possibly gray-stretched) ack latency.
    HeartbeatTick {
        /// Monotone round counter, keying the tie-break.
        round: u32,
    },
}

impl Event {
    /// Dispatch rank at equal timestamps: completions before expiries
    /// before transfers/boot/background work before arrivals — the order in
    /// which a real platform's state settles within one instant. The
    /// cluster and chaos classes slot *between* the legacy ones without
    /// disturbing their relative order, so single-node and chaos-free runs
    /// are bit-for-bit unchanged: a transfer landing at `t` must be
    /// visible to a boot completing at `t` (the boot forked from it);
    /// work completing at `t` finishes before a crash at `t` drops the
    /// node; a primary transfer tying with its own hedge fire wins; and
    /// all fault/heal/health background work settles before the next
    /// arrival routes.
    fn class(&self) -> u8 {
        match self {
            Event::ExecComplete { .. } => 0,
            Event::KeepAliveExpiry { .. } => 1,
            Event::TransferComplete { .. } => 2,
            Event::BootComplete { .. } => 3,
            Event::PoolTick { .. } => 4,
            Event::NodeRepair { .. } => 5,
            Event::NodeCrash { .. } => 6,
            Event::PartitionHeal { .. } => 7,
            Event::HedgeFire { .. } => 8,
            Event::HeartbeatTick { .. } => 9,
            Event::Arrival { .. } => 10,
        }
    }

    /// Payload key making the tie-break total across distinct events of
    /// one class (trace order for arrivals/completions, slot identity for
    /// instance events, `(node, function)` for cluster events).
    fn key(&self) -> u64 {
        match self {
            Event::Arrival { request } | Event::ExecComplete { request, .. } => *request,
            Event::BootComplete { instance } | Event::KeepAliveExpiry { instance } => {
                instance.key()
            }
            Event::PoolTick { function } => function.index() as u64,
            Event::TransferComplete {
                node,
                function,
                gen,
            }
            | Event::HedgeFire {
                node,
                function,
                gen,
            } => (u64::from(*gen) << 48) ^ (((*node as u64) << 32) | function.index() as u64),
            Event::NodeRepair { node } | Event::NodeCrash { node } => *node as u64,
            Event::PartitionHeal { epoch } => u64::from(*epoch),
            Event::HeartbeatTick { round } => u64::from(*round),
        }
    }

    /// Secondary payload key, covering the fields `key` leaves free so the
    /// tie-break binds the *whole* payload. Today that is only
    /// `ExecComplete`'s instance: its `key` is the trace position, so two
    /// completions of one request (which the engine never schedules, but
    /// the total order must not rely on that) would otherwise fall through
    /// to insertion order. Instance keys `(index << 32) | generation` are
    /// injective over handles, so shifting them all by one keeps them
    /// distinct from each other and from the `None` encoding of 0.
    fn subkey(&self) -> u64 {
        match self {
            Event::ExecComplete { instance, .. } => instance.map_or(0, |i| i.key().wrapping_add(1)),
            _ => 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: SimNanos,
    class: u8,
    key: u64,
    subkey: u64,
    seq: u64,
    event: Event,
}

impl Scheduled {
    fn new(at: SimNanos, event: Event, seq: u64) -> Scheduled {
        Scheduled {
            at,
            class: event.class(),
            key: event.key(),
            subkey: event.subkey(),
            seq,
            event,
        }
    }
}

// Reverse ordering: `BinaryHeap` is a max-heap, we pop earliest first.
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.class, other.key, other.subkey, other.seq).cmp(&(
            self.at,
            self.class,
            self.key,
            self.subkey,
            self.seq,
        ))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The engine's priority queue: min-ordered on `(time, class, key, subkey)`
/// over the scheduled events and the trace's pending arrivals together.
#[derive(Debug, Default)]
pub struct EventQueue<'t> {
    heap: BinaryHeap<Scheduled>,
    /// The sorted trace whose arrivals are fed in without being scheduled.
    arrivals: &'t [TraceRequest],
    /// Index of the next arrival the cursor hands out.
    next: usize,
    seq: u64,
    /// Fire time of the last pop, for the no-scheduling-into-the-past check.
    #[cfg(debug_assertions)]
    now: SimNanos,
}

impl<'t> EventQueue<'t> {
    /// An empty queue.
    pub fn new() -> EventQueue<'t> {
        EventQueue::default()
    }

    /// An empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> EventQueue<'t> {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ..EventQueue::default()
        }
    }

    /// A queue holding `Arrival { request: i }` at `trace[i].arrival` for
    /// every request of `trace`, which must be sorted by arrival (as
    /// `validate_trace` guarantees). The arrivals count as scheduled from
    /// the start, ahead of anything scheduled later.
    pub fn for_trace(trace: &'t [TraceRequest]) -> EventQueue<'t> {
        debug_assert!(
            trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "EventQueue::for_trace needs a trace sorted by arrival"
        );
        EventQueue {
            arrivals: trace,
            seq: trace.len() as u64,
            ..EventQueue::default()
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimNanos, event: Event) {
        #[cfg(debug_assertions)]
        debug_assert!(
            at >= self.now,
            "{event:?} scheduled at {at:?}, before now ({:?})",
            self.now
        );
        self.heap.push(Scheduled::new(at, event, self.seq));
        self.seq += 1;
    }

    /// Pops the earliest event, with its fire time. The next trace arrival
    /// competes with the heap's top as the very entry scheduling it up
    /// front would have pushed (its sequence number is its trace index),
    /// so the pop order is the all-in-heap order.
    pub fn pop(&mut self) -> Option<(SimNanos, Event)> {
        let arrival = self.arrivals.get(self.next).map(|r| {
            let request = self.next as u64;
            Scheduled::new(r.arrival, Event::Arrival { request }, request)
        });
        let popped = match (arrival, self.heap.peek()) {
            // Reverse ordering: the greater entry is the earlier one.
            (Some(arrival), Some(top)) if *top > arrival => self.heap.pop(),
            (Some(arrival), _) => {
                self.next += 1;
                Some(arrival)
            }
            (None, _) => self.heap.pop(),
        }
        .map(|s| (s.at, s.event));
        #[cfg(debug_assertions)]
        if let Some((at, _)) = popped {
            self.now = at;
        }
        popped
    }

    /// Pending events, trace arrivals not yet popped included.
    pub fn len(&self) -> usize {
        self.heap.len() + (self.arrivals.len() - self.next)
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever scheduled, every trace arrival included (the engine's
    /// `events` accounting).
    pub fn scheduled(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanos(n: u64) -> SimNanos {
        SimNanos::from_nanos(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(nanos(30), Event::Arrival { request: 2 });
        q.schedule(nanos(10), Event::Arrival { request: 0 });
        q.schedule(nanos(20), Event::Arrival { request: 1 });
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![nanos(10), nanos(20), nanos(30)]);
    }

    #[test]
    fn completion_beats_arrival_at_the_same_instant() {
        let mut q = EventQueue::new();
        q.schedule(nanos(5), Event::Arrival { request: 7 });
        q.schedule(
            nanos(5),
            Event::ExecComplete {
                request: 3,
                instance: None,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Event::ExecComplete { request: 3, .. }));
    }

    #[test]
    fn equal_time_arrivals_pop_in_trace_order() {
        let mut q = EventQueue::new();
        for request in [4u64, 1, 3, 0, 2] {
            q.schedule(nanos(9), Event::Arrival { request });
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival { request } => request,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn transfer_lands_before_the_boot_that_forks_from_it() {
        let mut arena: super::super::arena::Arena<()> = super::super::arena::Arena::new();
        let instance = arena.insert(());
        let mut q = EventQueue::new();
        q.schedule(nanos(8), Event::BootComplete { instance });
        q.schedule(
            nanos(8),
            Event::TransferComplete {
                node: 1,
                function: FnId::from_index(0),
                gen: 0,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Event::TransferComplete { node: 1, .. }));
    }

    #[test]
    fn completions_land_before_a_crash_at_the_same_instant() {
        let mut q = EventQueue::new();
        q.schedule(nanos(6), Event::NodeCrash { node: 0 });
        q.schedule(
            nanos(6),
            Event::ExecComplete {
                request: 1,
                instance: None,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(
            matches!(first, Event::ExecComplete { .. }),
            "work finishing at t completes before the crash at t drops the node"
        );
    }

    #[test]
    fn primary_transfer_beats_its_own_hedge_fire() {
        let mut q = EventQueue::new();
        q.schedule(
            nanos(7),
            Event::HedgeFire {
                node: 2,
                function: FnId::from_index(0),
                gen: 0,
            },
        );
        q.schedule(
            nanos(7),
            Event::TransferComplete {
                node: 2,
                function: FnId::from_index(0),
                gen: 0,
            },
        );
        let (_, first) = q.pop().unwrap();
        assert!(
            matches!(first, Event::TransferComplete { .. }),
            "a transfer landing exactly at the hedge delay wins; the hedge lazy-misses"
        );
    }

    #[test]
    fn chaos_background_work_settles_before_the_next_arrival() {
        let mut q = EventQueue::new();
        q.schedule(nanos(4), Event::Arrival { request: 0 });
        q.schedule(nanos(4), Event::HeartbeatTick { round: 3 });
        q.schedule(nanos(4), Event::PartitionHeal { epoch: 1 });
        q.schedule(nanos(4), Event::NodeCrash { node: 1 });
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert!(matches!(order[0], Event::NodeCrash { node: 1 }));
        assert!(matches!(order[1], Event::PartitionHeal { epoch: 1 }));
        assert!(matches!(order[2], Event::HeartbeatTick { round: 3 }));
        assert!(
            matches!(order[3], Event::Arrival { request: 0 }),
            "the arrival routes against fully-settled fault state"
        );
    }

    #[test]
    fn node_repair_settles_before_the_next_arrival() {
        let mut q = EventQueue::new();
        q.schedule(nanos(3), Event::Arrival { request: 0 });
        q.schedule(nanos(3), Event::NodeRepair { node: 2 });
        let (_, first) = q.pop().unwrap();
        assert!(matches!(first, Event::NodeRepair { node: 2 }));
    }

    #[test]
    fn exec_complete_tie_break_binds_the_instance() {
        // Two completions at one instant sharing a trace position but
        // differing in `instance` must pop in a fixed order regardless of
        // insertion order: the subkey (None < any instance) decides, not
        // the sequence number.
        let mut arena: super::super::arena::Arena<()> = super::super::arena::Arena::new();
        let instance = arena.insert(());
        let with_instance = Event::ExecComplete {
            request: 5,
            instance: Some(instance),
        };
        let without = Event::ExecComplete {
            request: 5,
            instance: None,
        };
        let mut forward = EventQueue::new();
        forward.schedule(nanos(2), with_instance);
        forward.schedule(nanos(2), without);
        let mut backward = EventQueue::new();
        backward.schedule(nanos(2), without);
        backward.schedule(nanos(2), with_instance);
        let a: Vec<_> = std::iter::from_fn(|| forward.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| backward.pop()).collect();
        assert_eq!(a, b);
        assert!(matches!(a[0].1, Event::ExecComplete { instance: None, .. }));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before now")]
    fn scheduling_into_the_past_is_a_bug() {
        let trace = [TraceRequest {
            arrival: nanos(10),
            function: 0,
        }];
        let mut q = EventQueue::for_trace(&trace);
        q.pop();
        q.schedule(nanos(9), Event::NodeCrash { node: 0 });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted by arrival")]
    fn an_unsorted_trace_is_a_bug() {
        let trace = [2u64, 1].map(|t| TraceRequest {
            arrival: nanos(t),
            function: 0,
        });
        let _ = EventQueue::for_trace(&trace);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let events = [
            (nanos(10), Event::Arrival { request: 0 }),
            (
                nanos(10),
                Event::ExecComplete {
                    request: 9,
                    instance: None,
                },
            ),
            (
                nanos(10),
                Event::PoolTick {
                    function: crate::simulate::FnId::from_index(2),
                },
            ),
            (nanos(4), Event::Arrival { request: 1 }),
        ];
        let mut forward = EventQueue::new();
        let mut backward = EventQueue::new();
        for (at, e) in events {
            forward.schedule(at, e);
        }
        for (at, e) in events.iter().rev() {
            backward.schedule(*at, *e);
        }
        let a: Vec<_> = std::iter::from_fn(|| forward.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| backward.pop()).collect();
        assert_eq!(a, b);
        assert_eq!(forward.scheduled(), 4);
    }
}
