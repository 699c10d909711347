//! The runtime abstraction: protocol code as reactive state machines.
//!
//! The paper models replicas as state automata that execute atomic steps in
//! reaction to *input events* (client invocations, message deliveries,
//! timer fires) and *internal events* (in Bayou: `rollback` and `execute`).
//! The [`Process`] trait captures exactly that shape, and the [`Context`]
//! trait is the window through which a step may observe time, send
//! messages, arm timers and query the Ω failure detector.
//!
//! Both the deterministic simulator (`bayou-sim`) and the live threaded
//! runtime (`bayou-net`) drive the same `Process` implementations, so a
//! protocol is written once and runs everywhere.

use crate::{ReplicaId, Timestamp, VirtualTime};
use std::fmt;

/// The most handler steps one unit of work runs before the runtime ends
/// it: a live wake handles at most this many mailbox events, and a
/// simulated busy period at most this many handlers. Ending a unit is
/// when the process's coalesced frames leave
/// ([`Process::release_frames`]), so the bound caps how long a frame
/// (live: and a reply) waits behind the steps queued after its own.
pub const WAKE_DRAIN: usize = 64;

/// Identifier of an armed timer, unique per replica.
///
/// # Examples
///
/// ```
/// use bayou_types::TimerId;
/// let t = TimerId::new(3);
/// assert_eq!(t.value(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

impl TimerId {
    /// Creates a timer identifier from a raw counter value.
    pub const fn new(v: u64) -> Self {
        TimerId(v)
    }

    /// Returns the raw counter value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// The capabilities a runtime offers to a protocol step.
///
/// A `Context` is handed to every [`Process`] handler. All interaction with
/// the outside world goes through it, which is what makes runs of the
/// simulator deterministic and reproducible.
pub trait Context<M> {
    /// The identifier of the replica executing the current step.
    fn id(&self) -> ReplicaId;

    /// The number of replicas in the cluster.
    fn cluster_size(&self) -> usize;

    /// Global (virtual or wall-clock) time. Protocols should use this only
    /// for diagnostics; ordering decisions must use [`Context::clock`].
    fn now(&self) -> VirtualTime;

    /// Reads the replica's *local* clock, which may be skewed relative to
    /// other replicas. Strictly monotonic across reads on one replica.
    fn clock(&mut self) -> Timestamp;

    /// Sends a point-to-point message. Delivery is asynchronous, may be
    /// delayed arbitrarily, and is *dropped* while a partition separates
    /// the two replicas (lower layers provide retransmission).
    fn send(&mut self, to: ReplicaId, msg: M);

    /// Arms a one-shot timer that fires after `delay`.
    fn set_timer(&mut self, delay: VirtualTime) -> TimerId;

    /// Returns a pseudo-random 64-bit value from the run's seeded stream.
    fn random(&mut self) -> u64;

    /// Queries the Ω failure detector: the replica currently trusted to be
    /// the leader. In *stable* runs the output eventually stabilises on a
    /// single correct replica; in *asynchronous* runs it may change
    /// forever.
    fn omega(&mut self) -> ReplicaId;

    /// Queries the Ω failure detector for one *lane*: the replica
    /// currently trusted to lead independent protocol instance `lane`
    /// (a replication group in a sharded host). Lane 0 is exactly
    /// [`Context::omega`]; runtimes that know the live set spread the
    /// other lanes' eventual leaders across it, so co-hosted groups do
    /// not all funnel their leader work through one replica. The Ω
    /// contract is per lane: in a stable run each lane's output
    /// eventually stabilises on a single correct replica (not
    /// necessarily the same one per lane). The default delegates every
    /// lane to [`Context::omega`] — correct for any runtime, just
    /// without leadership spreading.
    fn omega_for(&mut self, lane: u32) -> ReplicaId {
        let _ = lane;
        self.omega()
    }
}

/// A replica-side protocol: a reactive state machine.
///
/// Handlers are invoked by the runtime one at a time (steps are atomic).
/// After any sequence of input events, the runtime repeatedly calls
/// [`Process::on_internal`] until the process reports it is passive —
/// this is the paper's *input-driven processing* assumption, and counting
/// those calls is how the §2.3 bounded-wait-freedom experiment measures
/// protocol steps.
pub trait Process {
    /// Message type exchanged between replicas running this protocol.
    type Msg: Clone + fmt::Debug;
    /// Client-facing input (e.g. an operation invocation).
    type Input;
    /// Client-facing output (e.g. a response to a prior invocation).
    type Output;

    /// Called once when the replica starts, before any other event.
    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        let _ = ctx;
    }

    /// Handles a message delivered from another replica.
    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>);

    /// Handles a timer fire.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Self::Msg>) {
        let _ = (timer, ctx);
    }

    /// Handles a client input event (an invocation).
    fn on_input(&mut self, input: Self::Input, ctx: &mut dyn Context<Self::Msg>);

    /// Executes *one* enabled internal event (e.g. one `rollback` or one
    /// `execute` step in Bayou) and returns `true`, or returns `false` if
    /// the process is passive (no internal event enabled).
    fn on_internal(&mut self, ctx: &mut dyn Context<Self::Msg>) -> bool {
        let _ = ctx;
        false
    }

    /// Drains client outputs produced since the last call.
    fn drain_outputs(&mut self) -> Vec<Self::Output>;

    /// Hands the runtime, through `ctx`, every frame the process
    /// coalesced since the previous call. The runtime calls it once per
    /// unit of work — the live runtime at the end of each wake, just
    /// before its [`Process::barrier`]; the simulator when a replica's
    /// busy period ends (its CPU frees with no parked events) or after
    /// [`WAKE_DRAIN`] handlers — and never on a crashed or crash-stopped
    /// process, whose held frames die with it. Frames sent here leave
    /// under the same write-ahead rule as a handler's: not before the
    /// barrier covering the handlers that produced them. Processes that
    /// send from their handlers directly keep the no-op.
    fn release_frames(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        let _ = ctx;
    }

    /// The write-ahead barrier: makes durable whatever the handlers
    /// logged since the previous call. Handlers only log; the runtime
    /// owns the barrier and calls it before any message or output those
    /// handlers produced leaves the process — the simulator after every
    /// executed handler, the live runtime once per wake, after the
    /// wake's handlers and before its replies and frames. A barrier
    /// that fails crash-stops the process ([`Process::has_failed`]),
    /// and the runtime then releases nothing the covered handlers
    /// produced. Processes without durable state keep the no-op.
    fn barrier(&mut self) {}

    /// Drains the *simulated* time the process spent blocked on durable
    /// storage (fsync) since the previous call. The simulator invokes
    /// this after every handler and adds the stall to the replica's CPU
    /// busy time, making crash/recovery schedules disk-latency-faithful;
    /// processes without simulated storage return zero.
    fn take_storage_stall(&mut self) -> VirtualTime {
        VirtualTime::ZERO
    }

    /// Drains the number of physical fsync barriers the process issued
    /// since the previous call. The simulator accumulates this into
    /// `Metrics::fsyncs`, giving workloads an fsyncs/op measure;
    /// processes without durable storage return zero.
    fn take_fsyncs(&mut self) -> u64 {
        0
    }

    /// Drains the number of *encoded wire bytes* the process sent since
    /// the previous call — the frames' serialized sizes under the
    /// process's codec, whether or not the runtime actually serialized
    /// them (the in-process runtimes pass messages by value). The
    /// simulator accumulates this into `Metrics::wire_bytes`, the
    /// network analogue of the WAL's bytes accounting; processes without
    /// a wire codec (or with metering off) return zero.
    fn take_wire_bytes(&mut self) -> u64 {
        0
    }

    /// Whether the process has permanently failed (crash-stopped), e.g.
    /// because it could no longer persist its write-ahead state. A
    /// failed process executes no further steps; runtimes treat it
    /// exactly like a crashed replica (its messages and timers are
    /// dropped) until an explicit restart rebuilds it.
    fn has_failed(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;

    #[test]
    fn timer_id_basics() {
        let a = TimerId::new(1);
        let b = TimerId::new(2);
        assert!(a < b);
        assert_eq!(a.value(), 1);
        assert_eq!(b.to_string(), "timer#2");
    }

    /// A minimal context stub proving the trait is object-safe and usable.
    struct StubCtx {
        sent: Vec<(ReplicaId, u32)>,
        clock: i64,
    }

    impl Context<u32> for StubCtx {
        fn id(&self) -> ReplicaId {
            ReplicaId::new(0)
        }
        fn cluster_size(&self) -> usize {
            1
        }
        fn now(&self) -> VirtualTime {
            VirtualTime::ZERO
        }
        fn clock(&mut self) -> Timestamp {
            self.clock += 1;
            Timestamp::new(self.clock)
        }
        fn send(&mut self, to: ReplicaId, msg: u32) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: VirtualTime) -> TimerId {
            TimerId::new(0)
        }
        fn random(&mut self) -> u64 {
            4 // chosen by fair dice roll
        }
        fn omega(&mut self) -> ReplicaId {
            ReplicaId::new(0)
        }
    }

    struct Echo {
        out: Vec<u32>,
    }

    impl Process for Echo {
        type Msg = u32;
        type Input = u32;
        type Output = u32;

        fn on_message(&mut self, _from: ReplicaId, msg: u32, _ctx: &mut dyn Context<u32>) {
            self.out.push(msg);
        }

        fn on_input(&mut self, input: u32, ctx: &mut dyn Context<u32>) {
            ctx.send(ReplicaId::new(0), input);
        }

        fn drain_outputs(&mut self) -> Vec<u32> {
            std::mem::take(&mut self.out)
        }
    }

    #[test]
    fn process_round_trip_through_dyn_context() {
        let mut ctx = StubCtx {
            sent: vec![],
            clock: 0,
        };
        let mut p = Echo { out: vec![] };
        p.on_start(&mut ctx);
        p.on_input(7, &mut ctx);
        assert_eq!(ctx.sent, vec![(ReplicaId::new(0), 7)]);
        p.on_message(ReplicaId::new(0), 7, &mut ctx);
        assert_eq!(p.drain_outputs(), vec![7]);
        assert_eq!(p.drain_outputs(), Vec::<u32>::new());
        assert!(!p.on_internal(&mut ctx));
    }

    #[test]
    fn stub_clock_is_strictly_monotonic() {
        let mut ctx = StubCtx {
            sent: vec![],
            clock: 0,
        };
        let a = ctx.clock();
        let b = ctx.clock();
        assert!(a < b);
    }
}
