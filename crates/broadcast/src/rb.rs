//! Eager reliable broadcast.

use crate::link::{LinkMsg, PerfectLink};
use bayou_types::{Context, ReplicaId, TimerId, VirtualTime};
use std::collections::HashSet;

/// System-wide unique identifier of a reliably-broadcast message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RbId {
    /// The broadcasting replica.
    pub origin: ReplicaId,
    /// Per-origin broadcast counter.
    pub seq: u64,
}

/// Wire payload of [`ReliableBroadcast`] (carried inside link frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RbMsg<M> {
    /// Unique id of the broadcast.
    pub id: RbId,
    /// The broadcast payload.
    pub payload: M,
}

/// Eager reliable broadcast over [`PerfectLink`]s.
///
/// On the first delivery of a message, a replica *relays* it to everyone
/// before delivering — the classic mechanism that upgrades best-effort
/// broadcast to reliable broadcast tolerating origin crashes: if any
/// correct replica delivers `m`, every correct replica eventually
/// delivers `m` (RB agreement), messages are delivered at most once (no
/// duplication) and only if broadcast (no creation).
///
/// Local delivery is immediate: `broadcast` returns the message for the
/// caller to deliver to itself, matching Algorithm 1's "simulate
/// immediate local RB-delivery" (line 14) — Bayou then ignores its own
/// RB deliveries arriving over the network (lines 23–24), and the
/// duplicate-suppression here means those never even occur.
///
/// Relays are *batched*: each entry point flushes the link exactly once
/// at its end, so every broadcast first delivered by one incoming frame
/// — however many it coalesced — is relayed onward as a single framed
/// [`LinkMsg`] per peer with one ack and one retransmit slot.
#[derive(Debug)]
pub struct ReliableBroadcast<M> {
    link: PerfectLink<RbMsg<M>>,
    next_seq: u64,
    seen: HashSet<RbId>,
}

impl<M: Clone> ReliableBroadcast<M> {
    /// Creates an RB endpoint for a cluster of `n` replicas.
    pub fn new(n: usize, retransmit_period: VirtualTime) -> Self {
        ReliableBroadcast {
            link: PerfectLink::new(n, retransmit_period),
            next_seq: 0,
            seen: HashSet::new(),
        }
    }

    /// RB-casts `payload`; returns its [`RbId`]. The caller should treat
    /// the message as locally RB-delivered at this point.
    pub fn broadcast(&mut self, payload: M, ctx: &mut dyn Context<LinkMsg<RbMsg<M>>>) -> RbId {
        let id = RbId {
            origin: ctx.id(),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.seen.insert(id);
        self.link.send_all(RbMsg { id, payload }, ctx);
        self.link.flush(ctx);
        id
    }

    /// Handles an incoming link frame; returns newly RB-delivered
    /// messages (with their origins). All relays triggered by the frame
    /// leave as one coalesced frame per peer.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: LinkMsg<RbMsg<M>>,
        ctx: &mut dyn Context<LinkMsg<RbMsg<M>>>,
    ) -> Vec<(RbId, M)> {
        let mut out = Vec::new();
        let me = ctx.id();
        let n = ctx.cluster_size();
        for rb in self.link.on_message(from, msg, ctx) {
            if self.seen.insert(rb.id) {
                // eager relay before delivery (buffered; flushed below)
                // — but not to the two replicas that provably hold the
                // message already: its origin (it broadcast it, and a
                // message only reaches us with the origin's id on it)
                // and the peer that just sent it to us. RB agreement is
                // untouched: every *other* correct replica still
                // receives the message from us over a stubborn link
                // even if origin and `from` both crash now.
                let origin = rb.id.origin;
                for to in ReplicaId::all(n) {
                    if to != me && to != origin && to != from {
                        self.link.send(to, rb.clone(), ctx);
                    }
                }
                out.push((rb.id, rb.payload));
            }
        }
        self.link.flush(ctx);
        out
    }

    /// Handles a timer fire; returns `true` if it belonged to this layer.
    pub fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<LinkMsg<RbMsg<M>>>) -> bool {
        self.link.on_timer(timer, ctx)
    }

    /// Number of distinct broadcasts seen so far.
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_sim::{NetworkConfig, Partition, PartitionSchedule, Sim, SimConfig};
    use bayou_types::Process;

    type Wire = LinkMsg<RbMsg<u64>>;

    #[derive(Debug)]
    struct RbProc {
        rb: ReliableBroadcast<u64>,
        delivered: Vec<(RbId, u64)>,
        out: Vec<u64>,
    }

    impl RbProc {
        fn new(n: usize) -> Self {
            RbProc {
                rb: ReliableBroadcast::new(n, VirtualTime::from_millis(50)),
                delivered: Vec::new(),
                out: Vec::new(),
            }
        }
    }

    impl Process for RbProc {
        type Msg = Wire;
        type Input = u64;
        type Output = u64;

        fn on_message(&mut self, from: ReplicaId, msg: Wire, ctx: &mut dyn Context<Wire>) {
            for (id, v) in self.rb.on_message(from, msg, ctx) {
                self.delivered.push((id, v));
                self.out.push(v);
            }
        }

        fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Wire>) {
            self.rb.on_timer(timer, ctx);
        }

        fn on_input(&mut self, v: u64, ctx: &mut dyn Context<Wire>) {
            let id = self.rb.broadcast(v, ctx);
            self.delivered.push((id, v)); // local delivery
            self.out.push(v);
        }

        fn drain_outputs(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.out)
        }
    }

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    #[test]
    fn every_replica_delivers_every_broadcast_once() {
        let n = 4;
        let mut sim = Sim::new(SimConfig::new(n, 5), move |_| RbProc::new(n));
        for k in 0..8u64 {
            sim.schedule_input(
                ms(1 + k * 3),
                ReplicaId::new((k % n as u64) as u32),
                100 + k,
            );
        }
        sim.run();
        for r in ReplicaId::all(n) {
            let d = &sim.process(r).delivered;
            assert_eq!(d.len(), 8, "replica {r} delivered {}", d.len());
            let ids: HashSet<RbId> = d.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids.len(), 8, "no duplication at {r}");
        }
    }

    #[test]
    fn delivery_resumes_after_partition_heals() {
        let n = 3;
        let net = NetworkConfig {
            partitions: PartitionSchedule::new(vec![Partition::isolate(
                ms(0),
                ms(800),
                ReplicaId::new(2),
                n,
            )]),
            ..Default::default()
        };
        let cfg = SimConfig::new(n, 5).with_net(net).with_max_time(ms(3_000));
        let mut sim = Sim::new(cfg, move |_| RbProc::new(n));
        sim.schedule_input(ms(5), ReplicaId::new(0), 1);
        sim.schedule_input(ms(6), ReplicaId::new(1), 2);
        sim.run();
        let d2 = &sim.process(ReplicaId::new(2)).delivered;
        let vals: HashSet<u64> = d2.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, HashSet::from([1, 2]), "isolated replica catches up");
    }

    #[test]
    fn relay_covers_origin_crash() {
        // Origin broadcasts then crashes immediately; because at least one
        // correct replica received the frame before the crash, everyone
        // must deliver (RB agreement).
        let n = 3;
        // Crash the origin shortly after it sends; frames are in flight.
        let cfg = SimConfig::new(n, 6)
            .with_net(NetworkConfig::fixed(ms(2)))
            .with_crash(ms(11), ReplicaId::new(0))
            .with_max_time(ms(4_000));
        let mut sim = Sim::new(cfg, move |_| RbProc::new(n));
        sim.schedule_input(ms(10), ReplicaId::new(0), 42);
        sim.run();
        for r in [ReplicaId::new(1), ReplicaId::new(2)] {
            let vals: Vec<u64> = sim.process(r).delivered.iter().map(|(_, v)| *v).collect();
            assert_eq!(
                vals,
                vec![42],
                "replica {r} must deliver despite origin crash"
            );
        }
    }

    #[test]
    fn relay_skips_origin_and_sender() {
        use crate::link::LinkMsg;

        #[derive(Debug, Default)]
        struct Collect {
            sent: Vec<(ReplicaId, Wire)>,
            timers: u64,
        }
        impl Context<Wire> for Collect {
            fn id(&self) -> ReplicaId {
                ReplicaId::new(1)
            }
            fn cluster_size(&self) -> usize {
                4
            }
            fn now(&self) -> VirtualTime {
                VirtualTime::ZERO
            }
            fn clock(&mut self) -> bayou_types::Timestamp {
                bayou_types::Timestamp::new(0)
            }
            fn send(&mut self, to: ReplicaId, m: Wire) {
                self.sent.push((to, m));
            }
            fn set_timer(&mut self, _d: VirtualTime) -> TimerId {
                self.timers += 1;
                TimerId::new(self.timers)
            }
            fn random(&mut self) -> u64 {
                0
            }
            fn omega(&mut self) -> ReplicaId {
                ReplicaId::new(0)
            }
        }

        let mut rb: ReliableBroadcast<u64> =
            ReliableBroadcast::new(4, VirtualTime::from_millis(50));
        let mut ctx = Collect::default();
        let origin = ReplicaId::new(0);
        let frame = LinkMsg::Data {
            seq: 0,
            payloads: vec![RbMsg {
                id: RbId { origin, seq: 0 },
                payload: 9,
            }],
        };
        let delivered = rb.on_message(origin, frame, &mut ctx);
        assert_eq!(delivered.len(), 1);
        // the relay goes to replicas 2 and 3 only: the origin broadcast
        // the message and the sender (here also the origin) sent it —
        // both provably hold it already (the ack follows on the ack tick)
        let data_targets: Vec<ReplicaId> = ctx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, LinkMsg::Data { .. }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(data_targets, vec![ReplicaId::new(2), ReplicaId::new(3)]);
        assert!(
            !ctx.sent.iter().any(|(to, _)| *to == origin),
            "nothing goes back to the origin in the delivery step"
        );
    }

    #[test]
    fn seen_count_tracks_distinct_messages() {
        let n = 2;
        let mut sim = Sim::new(SimConfig::new(n, 5), move |_| RbProc::new(n));
        sim.schedule_input(ms(1), ReplicaId::new(0), 7);
        sim.schedule_input(ms(2), ReplicaId::new(1), 8);
        sim.run();
        assert_eq!(sim.process(ReplicaId::new(0)).rb.seen_count(), 2);
        assert_eq!(sim.process(ReplicaId::new(1)).rb.seen_count(), 2);
    }
}
