//! Eager reliable broadcast.

use crate::link::{LinkMsg, PerfectLink, SeqWindow};
use bayou_types::{Context, ReplicaId, TimerId, VirtualTime};
use std::collections::VecDeque;

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
    /// The origin's acknowledged floor when it broadcast this: every
    /// peer's link acknowledged all of the origin's broadcasts below
    /// this seq, so a receiver counts them as seen.
    pub floor: u64,
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
///
/// # Deduplication keeps watermarks
///
/// What an endpoint has seen is, per origin, a prefix of broadcast
/// seqs plus the ones that arrived above it out of order — the link's
/// receive window again — never a set of every broadcast. A replica
/// rebuilt after a crash has forgotten what it saw, and the broadcasts
/// it missed are not resent; so every message carries its origin's
/// *floor* (all of the origin's broadcasts below it were acknowledged
/// by every peer's link), and the receiver lifts the origin's prefix
/// to it. A replica that never restarted has seen all of those
/// already, so for it the lift changes nothing.
#[derive(Debug)]
pub struct ReliableBroadcast<M> {
    link: PerfectLink<RbMsg<M>>,
    next_seq: u64,
    /// Per origin: the broadcast seqs seen.
    seen: Vec<SeqWindow>,
    /// Our broadcasts below this are acknowledged by every peer.
    floor: u64,
    /// Our broadcasts from `floor` on, oldest first: for each, the
    /// number of frames the link had sent each replica once it left
    /// (`n` entries per broadcast, ours unused).
    awaiting: VecDeque<u64>,
}

impl<M: Clone> ReliableBroadcast<M> {
    /// Creates an RB endpoint for a cluster of `n` replicas.
    pub fn new(n: usize, retransmit_period: VirtualTime) -> Self {
        ReliableBroadcast {
            link: PerfectLink::new(n, retransmit_period),
            next_seq: 0,
            seen: vec![SeqWindow::default(); n],
            floor: 0,
            awaiting: VecDeque::new(),
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
        self.seen[id.origin.index()].insert(id.seq);
        let floor = self.floor;
        self.link.send_all(RbMsg { id, floor, payload }, ctx);
        self.link.flush(ctx);
        let n = self.seen.len();
        self.awaiting.extend((0..n).map(|p| self.link.sent_to(p)));
        self.advance_floor();
        id
    }

    /// Moves our floor past every broadcast whose frames all peers
    /// acknowledged.
    fn advance_floor(&mut self) {
        let n = self.seen.len();
        while self.awaiting.len() >= n
            && (0..n).all(|p| self.link.acked_below(p) >= self.awaiting[p])
        {
            self.awaiting.drain(..n);
            self.floor += 1;
        }
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
            let seen = &mut self.seen[rb.id.origin.index()];
            seen.lift(rb.floor);
            if seen.insert(rb.id.seq) {
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
        self.advance_floor();
        self.link.flush(ctx);
        out
    }

    /// Handles a timer fire; returns `true` if it belonged to this layer.
    pub fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<LinkMsg<RbMsg<M>>>) -> bool {
        self.link.on_timer(timer, ctx)
    }

    /// Number of distinct broadcasts seen so far (those a restart made
    /// us skip included).
    pub fn seen_count(&self) -> usize {
        self.seen
            .iter()
            .map(|w| w.prefix() as usize + w.sparse().len())
            .sum()
    }

    /// Broadcast seqs held above the per-origin seen prefixes: what
    /// arrived out of order and has not been filled in below.
    pub fn retained_seen(&self) -> usize {
        self.seen.iter().map(|w| w.sparse().len()).sum()
    }

    /// Our broadcasts some peer's link has not acknowledged yet (the
    /// ones above our floor).
    pub fn unacked_broadcasts(&self) -> usize {
        self.awaiting.len() / self.seen.len()
    }

    /// The underlying link (read-only, for its gauges).
    pub fn link(&self) -> &PerfectLink<RbMsg<M>> {
        &self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_sim::{NetworkConfig, Partition, PartitionSchedule, Sim, SimConfig};
    use bayou_types::Process;
    use std::collections::HashSet;

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
            incarnation: 0,
            floor: 0,
            seq: 0,
            payloads: vec![RbMsg {
                id: RbId { origin, seq: 0 },
                floor: 0,
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

    /// A replica rebuilt mid-run has forgotten every broadcast it saw
    /// and will never see the ones it missed. The origins' floors lift
    /// its watermarks past them: it delivers what is broadcast after its
    /// restart and holds nothing above its prefixes.
    #[test]
    fn a_rebuilt_replica_keeps_no_holes_below_the_origins_floors() {
        let n = 3;
        let cfg = SimConfig::new(n, 7).with_restart(ms(500), ReplicaId::new(2));
        let mut sim = Sim::new(cfg, move |_| RbProc::new(n));
        for k in 0..40u64 {
            // two origins, before and after the restart
            sim.schedule_input(ms(10 + 25 * k), ReplicaId::new((k % 2) as u32), k);
        }
        sim.run();
        let rebuilt = sim.process(ReplicaId::new(2));
        let after: Vec<u64> = rebuilt.delivered.iter().map(|(_, v)| *v).collect();
        assert_eq!(after, (20..40).collect::<Vec<_>>());
        for r in ReplicaId::all(n) {
            assert_eq!(sim.process(r).rb.retained_seen(), 0, "holes at {r}");
            assert_eq!(sim.process(r).rb.link().retained_sparse(), 0);
        }
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
