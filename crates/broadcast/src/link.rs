//! Stubborn point-to-point links with acknowledgements and per-peer
//! frame coalescing.

use bayou_types::{Context, ReplicaId, TimerId, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};

/// Wire message of a [`PerfectLink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkMsg<M> {
    /// A *frame*: every payload buffered for one peer during one handler
    /// step, under a single per-(sender, receiver) sequence number. The
    /// frame is acknowledged, deduplicated and retransmitted as a unit,
    /// so coalescing `k` payloads costs one ack and one retransmit slot
    /// instead of `k` of each.
    Data {
        /// Link-level frame sequence number.
        seq: u64,
        /// The coalesced payloads, in send order.
        payloads: Vec<M>,
    },
    /// Cumulative acknowledgement of received `Data` frames: everything
    /// below `upto` plus the (reorder-induced) sparse set above it — the
    /// receiver's complete delivered state, so one ack frame retires an
    /// arbitrary backlog and a lost ack is fully covered by the next.
    /// Acks are *delayed*: batched per peer on a short ack tick (or
    /// riding a same-step data frame) instead of one ack per received
    /// frame.
    Ack {
        /// Frame sequence numbers `< upto` are all delivered.
        upto: u64,
        /// Delivered frame sequence numbers `>= upto`.
        sparse: Vec<u64>,
    },
}

#[derive(Debug, Clone)]
struct PeerOut<M> {
    next_seq: u64,
    /// Sent frames awaiting acknowledgement, by frame sequence number.
    unacked: BTreeMap<u64, Vec<M>>,
    /// Payloads buffered since the last flush (the next frame).
    outbox: Vec<M>,
}

impl<M> Default for PeerOut<M> {
    fn default() -> Self {
        PeerOut {
            next_seq: 0,
            unacked: BTreeMap::new(),
            outbox: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct PeerIn {
    /// All sequence numbers `< prefix` have been delivered.
    prefix: u64,
    /// Delivered sequence numbers `>= prefix` (sparse).
    sparse: BTreeSet<u64>,
    /// Whether frames arrived since the last ack we sent this peer.
    ack_owed: bool,
}

impl PeerIn {
    fn is_new(&mut self, seq: u64) -> bool {
        if seq < self.prefix || self.sparse.contains(&seq) {
            return false;
        }
        self.sparse.insert(seq);
        while self.sparse.remove(&self.prefix) {
            self.prefix += 1;
        }
        true
    }
}

/// A *perfect* (reliable) point-to-point link built from the fair-lossy
/// partitioned network: every sent frame is retransmitted until
/// acknowledged, and duplicates are suppressed at the receiver.
///
/// Guarantees (between correct replicas that are eventually connected):
/// *reliable delivery* (retransmission), *no duplication* (per-link
/// sequence numbers), *no creation*. Delivery order is unconstrained;
/// layers that need FIFO impose it above.
///
/// This is the substitution that makes the paper's temporary-partition
/// model work: the simulator drops messages crossing a partition, and the
/// link layer re-sends them after the partition heals.
///
/// # Frame coalescing
///
/// [`PerfectLink::send`] *buffers*: payloads accumulate in a per-peer
/// outbox and leave as one [`LinkMsg::Data`] frame when the owner calls
/// [`PerfectLink::flush`] at the end of its handler step. Everything a
/// step produces for one peer — an eager-relay fan-out of a multi-payload
/// frame, a retransmission backlog draining after a partition heal —
/// travels as a single frame with a single ack and a single retransmit
/// slot, cutting the cluster's messages/op and ack chatter. Holding
/// frames back across steps is not this layer's business: the process
/// hosting the link parks whole step-end frames itself.
#[derive(Debug)]
pub struct PerfectLink<M> {
    out: Vec<PeerOut<M>>,
    inc: Vec<PeerIn>,
    armed: Option<TimerId>,
    period: VirtualTime,
    burst: usize,
    /// The delayed-ack tick (armed only while acks are owed).
    ack_armed: Option<TimerId>,
}

impl<M: Clone> PerfectLink<M> {
    /// Per-peer cap on frame retransmissions per timer tick.
    ///
    /// Without a cap, a peer that stops acknowledging (crashed,
    /// partitioned away, or simply CPU-saturated — the §2.3 starvation
    /// experiment) makes every tick re-send its **entire** unacked
    /// backlog: O(backlog) frames per tick, a quadratic message storm
    /// that buries the network and the laggard. Capping the burst keeps
    /// ticks O(1) while preserving reliable delivery: retransmission
    /// proceeds from the *oldest* unacked sequence number, so once the
    /// peer acks again the window slides forward and the backlog drains
    /// in FIFO order.
    pub const RETRANSMIT_BURST: usize = 64;

    /// Creates a link endpoint for a cluster of `n` replicas with the
    /// given retransmission period.
    pub fn new(n: usize, period: VirtualTime) -> Self {
        PerfectLink {
            out: (0..n).map(|_| PeerOut::default()).collect(),
            inc: (0..n).map(|_| PeerIn::default()).collect(),
            armed: None,
            period,
            burst: Self::RETRANSMIT_BURST,
            ack_armed: None,
        }
    }

    /// A link with the default 100 ms retransmission period.
    pub fn with_default_period(n: usize) -> Self {
        Self::new(n, VirtualTime::from_millis(100))
    }

    /// Buffers `payload` for `to`; it leaves in the next flushed frame
    /// and is retransmitted until that frame is acknowledged. Owners
    /// must call [`PerfectLink::flush`] before their handler step ends.
    ///
    /// # Panics
    ///
    /// Panics if asked to send to self — deliver locally instead, links
    /// are for remote communication.
    pub fn send(&mut self, to: ReplicaId, payload: M, ctx: &mut dyn Context<LinkMsg<M>>) {
        assert_ne!(to, ctx.id(), "perfect links do not loop back to self");
        self.out[to.index()].outbox.push(payload);
        // arm the retransmit timer now: even if the owner forgot to
        // flush, the timer's safety-net flush drains the outbox one
        // period late instead of stranding the payload forever
        self.ensure_timer(ctx);
    }

    /// Buffers `payload` for every replica except self.
    pub fn send_all(&mut self, payload: M, ctx: &mut dyn Context<LinkMsg<M>>) {
        let me = ctx.id();
        for to in ReplicaId::all(ctx.cluster_size()) {
            if to != me {
                self.send(to, payload.clone(), ctx);
            }
        }
    }

    /// Flushes every non-empty per-peer outbox as one framed
    /// [`LinkMsg::Data`] each. Owners call this exactly once at the end
    /// of any handler step that may have buffered sends.
    pub fn flush(&mut self, ctx: &mut dyn Context<LinkMsg<M>>) {
        for idx in 0..self.out.len() {
            let peer = &mut self.out[idx];
            if peer.outbox.is_empty() {
                continue;
            }
            let to = ReplicaId::new(idx as u32);
            let seq = peer.next_seq;
            peer.next_seq += 1;
            let payloads = std::mem::take(&mut peer.outbox);
            peer.unacked.insert(seq, payloads.clone());
            ctx.send(to, LinkMsg::Data { seq, payloads });
            if self.inc[idx].ack_owed {
                // an owed ack rides along with the data frame (the two
                // coalesce into one wire message at the step frame)
                self.send_ack(to, ctx);
            }
            self.ensure_timer(ctx);
        }
    }

    /// Handles a link-layer message, returning newly delivered payloads.
    pub fn on_message(
        &mut self,
        from: ReplicaId,
        msg: LinkMsg<M>,
        ctx: &mut dyn Context<LinkMsg<M>>,
    ) -> Vec<M> {
        match msg {
            LinkMsg::Data { seq, payloads } => {
                let delivered = self.inc[from.index()].is_new(seq);
                // delayed cumulative ack: batched on the ack tick (or
                // riding a same-step data frame at the flush)
                self.inc[from.index()].ack_owed = true;
                self.ensure_ack_timer(ctx);
                if delivered {
                    payloads
                } else {
                    Vec::new()
                }
            }
            LinkMsg::Ack { upto, sparse } => {
                let peer = &mut self.out[from.index()];
                peer.unacked = peer.unacked.split_off(&upto);
                for seq in sparse {
                    peer.unacked.remove(&seq);
                }
                Vec::new()
            }
        }
    }

    /// Sends the cumulative delivered-state ack for `to`.
    fn send_ack(&mut self, to: ReplicaId, ctx: &mut dyn Context<LinkMsg<M>>) {
        let inc = &mut self.inc[to.index()];
        inc.ack_owed = false;
        ctx.send(
            to,
            LinkMsg::Ack {
                upto: inc.prefix,
                sparse: inc.sparse.iter().copied().collect(),
            },
        );
    }

    /// Handles a timer fire; returns `true` if the timer belonged to this
    /// link (callers route unrecognised timers to other layers).
    pub fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<LinkMsg<M>>) -> bool {
        if self.ack_armed == Some(timer) {
            self.ack_armed = None;
            for idx in 0..self.inc.len() {
                if self.inc[idx].ack_owed {
                    self.send_ack(ReplicaId::new(idx as u32), ctx);
                }
            }
            return true;
        }
        if self.armed != Some(timer) {
            return false;
        }
        self.armed = None;
        // frames flushed by the safety net below were sent *this tick*
        // and must not be re-sent by the retransmit loop too
        let fresh: Vec<u64> = self.out.iter().map(|p| p.next_seq).collect();
        // safety net: a step that buffered without flushing still drains
        // (one period late); correctly-flushing owners leave this a no-op
        self.flush(ctx);
        let me = ctx.id();
        for (idx, peer) in self.out.iter().enumerate() {
            let to = ReplicaId::new(idx as u32);
            if to == me {
                continue;
            }
            for (seq, payloads) in peer
                .unacked
                .iter()
                .take_while(|(seq, _)| **seq < fresh[idx])
                .take(self.burst)
            {
                ctx.send(
                    to,
                    LinkMsg::Data {
                        seq: *seq,
                        payloads: payloads.clone(),
                    },
                );
            }
        }
        self.ensure_timer(ctx);
        true
    }

    /// Number of frames awaiting acknowledgement across all peers.
    pub fn unacked(&self) -> usize {
        self.out.iter().map(|p| p.unacked.len()).sum()
    }

    fn ensure_timer(&mut self, ctx: &mut dyn Context<LinkMsg<M>>) {
        let pending = self.unacked() > 0 || self.out.iter().any(|p| !p.outbox.is_empty());
        if self.armed.is_none() && pending {
            self.armed = Some(ctx.set_timer(self.period));
        }
    }

    /// Arms the delayed-ack tick: a quarter of the retransmission
    /// period, so batched acks always land well before the sender would
    /// retransmit.
    fn ensure_ack_timer(&mut self, ctx: &mut dyn Context<LinkMsg<M>>) {
        if self.ack_armed.is_none() {
            self.ack_armed = Some(ctx.set_timer(self.period.mul_f64(0.25)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_sim::{NetworkConfig, Partition, PartitionSchedule, Sim, SimConfig};
    use bayou_types::Process;

    /// A process exposing one PerfectLink; inputs are (destination,
    /// value), outputs are delivered values.
    #[derive(Debug)]
    struct LinkProc {
        link: PerfectLink<u64>,
        out: Vec<u64>,
    }

    impl LinkProc {
        fn new(n: usize) -> Self {
            LinkProc {
                link: PerfectLink::new(n, VirtualTime::from_millis(50)),
                out: Vec::new(),
            }
        }
    }

    impl Process for LinkProc {
        type Msg = LinkMsg<u64>;
        type Input = (ReplicaId, u64);
        type Output = u64;

        fn on_message(
            &mut self,
            from: ReplicaId,
            msg: LinkMsg<u64>,
            ctx: &mut dyn Context<LinkMsg<u64>>,
        ) {
            let delivered = self.link.on_message(from, msg, ctx);
            self.out.extend(delivered);
            self.link.flush(ctx);
        }

        fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<LinkMsg<u64>>) {
            self.link.on_timer(timer, ctx);
        }

        fn on_input(&mut self, (to, v): (ReplicaId, u64), ctx: &mut dyn Context<LinkMsg<u64>>) {
            self.link.send(to, v, ctx);
            self.link.flush(ctx);
        }

        fn drain_outputs(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.out)
        }
    }

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    /// A recording context for tests that drive a link directly.
    #[derive(Debug)]
    struct Collect {
        id: ReplicaId,
        n: usize,
        sent: Vec<(ReplicaId, LinkMsg<u64>)>,
    }

    impl Collect {
        fn new(id: u32, n: usize) -> Self {
            Collect {
                id: ReplicaId::new(id),
                n,
                sent: Vec::new(),
            }
        }
    }

    impl Context<LinkMsg<u64>> for Collect {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn cluster_size(&self) -> usize {
            self.n
        }
        fn now(&self) -> VirtualTime {
            VirtualTime::ZERO
        }
        fn clock(&mut self) -> bayou_types::Timestamp {
            bayou_types::Timestamp::new(0)
        }
        fn send(&mut self, to: ReplicaId, m: LinkMsg<u64>) {
            self.sent.push((to, m));
        }
        fn set_timer(&mut self, _d: VirtualTime) -> TimerId {
            TimerId::new(1)
        }
        fn random(&mut self) -> u64 {
            0
        }
        fn omega(&mut self) -> ReplicaId {
            ReplicaId::new(0)
        }
    }

    #[test]
    fn delivers_exactly_once_on_a_clean_network() {
        let mut sim = Sim::new(SimConfig::new(2, 11), |_| LinkProc::new(2));
        for k in 0..20 {
            sim.schedule_input(ms(1 + k), ReplicaId::new(0), (ReplicaId::new(1), k));
        }
        let report = sim.run();
        assert!(report.quiescent, "acks must silence the retransmit timer");
        let mut got: Vec<u64> = report.outputs.iter().map(|o| o.output).collect();
        got.sort();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn retransmits_across_a_partition() {
        let net = NetworkConfig {
            partitions: PartitionSchedule::new(vec![Partition::split_at(ms(0), ms(500), 1, 2)]),
            ..Default::default()
        };
        let cfg = SimConfig::new(2, 11).with_net(net).with_max_time(ms(2_000));
        let mut sim = Sim::new(cfg, move |_| LinkProc::new(2));
        sim.schedule_input(ms(10), ReplicaId::new(0), (ReplicaId::new(1), 77));
        let report = sim.run();
        let got: Vec<u64> = report.outputs.iter().map(|o| o.output).collect();
        assert_eq!(got, vec![77], "message must arrive after the heal");
        assert!(
            report.outputs[0].time >= ms(500),
            "delivery cannot precede the heal"
        );
        assert!(report.metrics.messages_dropped_partition > 0);
    }

    #[test]
    fn duplicates_are_suppressed() {
        // Deliver the same Data frame twice directly.
        let mut link: PerfectLink<u64> = PerfectLink::with_default_period(2);
        let mut ctx = Collect::new(1, 2);
        let d = LinkMsg::Data {
            seq: 0,
            payloads: vec![9],
        };
        assert_eq!(
            link.on_message(ReplicaId::new(0), d.clone(), &mut ctx),
            vec![9]
        );
        assert!(link.on_message(ReplicaId::new(0), d, &mut ctx).is_empty());
        // out-of-order arrival then the gap filling in; a multi-payload
        // frame delivers (or is suppressed) as a unit
        let d2 = LinkMsg::Data {
            seq: 2,
            payloads: vec![11, 12],
        };
        let d1 = LinkMsg::Data {
            seq: 1,
            payloads: vec![10],
        };
        assert_eq!(
            link.on_message(ReplicaId::new(0), d2.clone(), &mut ctx),
            vec![11, 12]
        );
        assert_eq!(link.on_message(ReplicaId::new(0), d1, &mut ctx), vec![10]);
        assert!(link.on_message(ReplicaId::new(0), d2, &mut ctx).is_empty());
    }

    #[test]
    fn coalescing_packs_a_step_into_one_frame() {
        let mut link: PerfectLink<u64> = PerfectLink::with_default_period(2);
        let mut ctx = Collect::new(0, 2);
        let peer = ReplicaId::new(1);
        link.send(peer, 1, &mut ctx);
        link.send(peer, 2, &mut ctx);
        link.send(peer, 3, &mut ctx);
        assert!(ctx.sent.is_empty(), "sends buffer until the flush");
        link.flush(&mut ctx);
        assert_eq!(
            ctx.sent,
            vec![(
                peer,
                LinkMsg::Data {
                    seq: 0,
                    payloads: vec![1, 2, 3],
                }
            )],
            "one frame carries the whole step"
        );
        assert_eq!(link.unacked(), 1, "one retransmit slot for the frame");
        // one cumulative ack retires the whole frame
        link.on_message(
            peer,
            LinkMsg::Ack {
                upto: 1,
                sparse: vec![],
            },
            &mut ctx,
        );
        assert_eq!(link.unacked(), 0);
    }

    #[test]
    #[should_panic(expected = "do not loop back")]
    fn sending_to_self_panics() {
        let mut link: PerfectLink<u64> = PerfectLink::with_default_period(1);
        link.send(ReplicaId::new(0), 1, &mut Collect::new(0, 1));
    }

    #[test]
    fn peer_in_prefix_compaction() {
        let mut p = PeerIn::default();
        assert!(p.is_new(0));
        assert!(p.is_new(1));
        assert_eq!(p.prefix, 2);
        assert!(p.sparse.is_empty());
        assert!(p.is_new(5));
        assert_eq!(p.prefix, 2);
        assert!(p.is_new(2) && p.is_new(3) && p.is_new(4));
        assert_eq!(p.prefix, 6);
        assert!(p.sparse.is_empty());
        assert!(!p.is_new(3));
    }
}
