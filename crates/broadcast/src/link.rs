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
        /// The sending endpoint's incarnation: its clock reading when it
        /// first sent. A restarted sender numbers its frames from 0
        /// again under a newer incarnation, which tells the receiver to
        /// forget the old numbering.
        incarnation: u64,
        /// The sender's lowest unacknowledged frame sequence number for
        /// this receiver: every frame below it was acknowledged, so the
        /// receiver counts it as delivered — which a receiver that
        /// restarted and lost that record needs to hear.
        floor: u64,
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
        /// The incarnation of the data sender whose frames are
        /// acknowledged; a sender ignores acks for another incarnation.
        incarnation: u64,
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

impl<M> PeerOut<M> {
    /// The lowest unacknowledged frame: every frame below it is acked.
    fn floor(&self) -> u64 {
        self.unacked.keys().next().copied().unwrap_or(self.next_seq)
    }
}

/// A set of sequence numbers from one source, held as the contiguous
/// prefix every number below which is in the set, plus the sparse
/// numbers above it. It costs what arrives out of order, never the
/// lifetime: the link deduplicates frames with one per peer, the
/// reliable broadcast its messages with one per origin.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqWindow {
    /// All sequence numbers `< prefix` are in the set.
    prefix: u64,
    /// Members `>= prefix` (sparse).
    sparse: BTreeSet<u64>,
}

impl SeqWindow {
    /// Adds `seq`; returns whether it was new.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq < self.prefix || self.sparse.contains(&seq) {
            return false;
        }
        self.sparse.insert(seq);
        self.collapse();
        true
    }

    /// Counts every number below `floor` as a member.
    pub(crate) fn lift(&mut self, floor: u64) {
        if floor > self.prefix {
            self.prefix = floor;
            self.sparse = self.sparse.split_off(&floor);
            self.collapse();
        }
    }

    fn collapse(&mut self) {
        while self.sparse.remove(&self.prefix) {
            self.prefix += 1;
        }
    }

    /// Every number below this is a member.
    pub(crate) fn prefix(&self) -> u64 {
        self.prefix
    }

    /// The members above the prefix.
    pub(crate) fn sparse(&self) -> &BTreeSet<u64> {
        &self.sparse
    }
}

#[derive(Debug, Clone, Default)]
struct PeerIn {
    /// The peer's incarnation the window numbers frames for.
    incarnation: u64,
    /// Delivered frame sequence numbers.
    window: SeqWindow,
    /// Whether frames arrived since the last ack we sent this peer.
    ack_owed: bool,
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
///
/// # Restarts
///
/// An endpoint rebuilt after a crash numbers its frames from 0 again
/// and has forgotten what it delivered, while its peers carry on. Two
/// header fields keep both directions working, and keep every receive
/// window the size of what is unacknowledged rather than the lifetime:
///
/// * every frame carries the sender's *incarnation* — the clock reading
///   of its first send, which a restarted sender reads later. A
///   receiver that sees a newer incarnation drops its window for that
///   peer and starts over; frames of an older one are stale and dropped
///   unacknowledged, and so are acks naming another incarnation than
///   the sender's own;
/// * every frame carries the sender's *floor*, its lowest unacknowledged
///   sequence number for this receiver. A receiver counts everything
///   below it as delivered: a restarted receiver thereby skips the
///   frames its previous incarnation acknowledged instead of holding a
///   hole below them forever.
#[derive(Debug)]
pub struct PerfectLink<M> {
    out: Vec<PeerOut<M>>,
    inc: Vec<PeerIn>,
    /// Our incarnation, read from the clock at the first flush.
    incarnation: Option<u64>,
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
            incarnation: None,
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
            let incarnation = *self.incarnation.get_or_insert_with(|| ctx.now().as_nanos());
            let seq = peer.next_seq;
            peer.next_seq += 1;
            let payloads = std::mem::take(&mut peer.outbox);
            peer.unacked.insert(seq, payloads.clone());
            ctx.send(
                to,
                LinkMsg::Data {
                    incarnation,
                    floor: peer.floor(),
                    seq,
                    payloads,
                },
            );
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
            LinkMsg::Data {
                incarnation,
                floor,
                seq,
                payloads,
            } => {
                let peer = &mut self.inc[from.index()];
                if incarnation < peer.incarnation {
                    return Vec::new(); // from the peer's previous life
                }
                if incarnation > peer.incarnation {
                    // the peer restarted and numbers from 0 again
                    *peer = PeerIn {
                        incarnation,
                        ..PeerIn::default()
                    };
                }
                peer.window.lift(floor);
                let delivered = peer.window.insert(seq);
                // delayed cumulative ack: batched on the ack tick (or
                // riding a same-step data frame at the flush)
                peer.ack_owed = true;
                self.ensure_ack_timer(ctx);
                if delivered {
                    payloads
                } else {
                    Vec::new()
                }
            }
            LinkMsg::Ack {
                incarnation,
                upto,
                sparse,
            } => {
                if self.incarnation != Some(incarnation) {
                    return Vec::new(); // acks frames of our previous life
                }
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
                incarnation: inc.incarnation,
                upto: inc.window.prefix(),
                sparse: inc.window.sparse().iter().copied().collect(),
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
                        // an unacked frame was flushed, so we have one
                        incarnation: self.incarnation.unwrap_or_default(),
                        floor: peer.floor(),
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

    /// Delivered frame numbers held above the per-peer delivered
    /// prefixes, across all peers: what arrived out of order and has not
    /// been filled in below (a gauge of the receive windows).
    pub fn retained_sparse(&self) -> usize {
        self.inc.iter().map(|p| p.window.sparse().len()).sum()
    }

    /// Frames flushed to `peer` so far (its next frame's number).
    pub(crate) fn sent_to(&self, peer: usize) -> u64 {
        self.out[peer].next_seq
    }

    /// `peer` acknowledged every frame below this.
    pub(crate) fn acked_below(&self, peer: usize) -> u64 {
        self.out[peer].floor()
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
        let data = |seq, payloads| LinkMsg::Data {
            incarnation: 0,
            floor: 0,
            seq,
            payloads,
        };
        let d = data(0, vec![9]);
        assert_eq!(
            link.on_message(ReplicaId::new(0), d.clone(), &mut ctx),
            vec![9]
        );
        assert!(link.on_message(ReplicaId::new(0), d, &mut ctx).is_empty());
        // out-of-order arrival then the gap filling in; a multi-payload
        // frame delivers (or is suppressed) as a unit
        let d2 = data(2, vec![11, 12]);
        let d1 = data(1, vec![10]);
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
                    incarnation: 0,
                    floor: 0,
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
                incarnation: 0,
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
    fn seq_window_keeps_a_prefix_and_what_sits_above_it() {
        let mut w = SeqWindow::default();
        assert!(w.insert(0));
        assert!(w.insert(1));
        assert_eq!(w.prefix(), 2);
        assert!(w.sparse().is_empty());
        assert!(w.insert(5));
        assert_eq!(w.prefix(), 2);
        assert!(w.insert(2) && w.insert(3) && w.insert(4));
        assert_eq!(w.prefix(), 6);
        assert!(w.sparse().is_empty());
        assert!(!w.insert(3));
        // a lifted floor counts everything below it in, and collapses
        // what it reaches
        assert!(w.insert(9) && w.insert(12));
        w.lift(8);
        assert_eq!((w.prefix(), w.sparse().len()), (8, 2));
        assert!(!w.insert(7), "below the floor");
        w.lift(10);
        assert_eq!(w.prefix(), 10);
        assert_eq!(w.sparse().iter().copied().collect::<Vec<_>>(), [12]);
        w.lift(3); // a lower floor changes nothing
        assert_eq!(w.prefix(), 10);
    }

    /// A context with a settable clock that records sends and timers.
    #[derive(Debug)]
    struct Clocked {
        id: ReplicaId,
        now: VirtualTime,
        sent: Vec<(ReplicaId, LinkMsg<u64>)>,
        timers: Vec<TimerId>,
        next_timer: u64,
    }

    impl Context<LinkMsg<u64>> for Clocked {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn cluster_size(&self) -> usize {
            2
        }
        fn now(&self) -> VirtualTime {
            self.now
        }
        fn clock(&mut self) -> bayou_types::Timestamp {
            bayou_types::Timestamp::new(self.now.as_micros() as i64)
        }
        fn send(&mut self, to: ReplicaId, m: LinkMsg<u64>) {
            self.sent.push((to, m));
        }
        fn set_timer(&mut self, _d: VirtualTime) -> TimerId {
            self.next_timer += 1;
            self.timers.push(TimerId::new(self.next_timer));
            TimerId::new(self.next_timer)
        }
        fn random(&mut self) -> u64 {
            0
        }
        fn omega(&mut self) -> ReplicaId {
            ReplicaId::new(0)
        }
    }

    /// Two link endpoints over a lossless wire, driven by hand.
    struct Pair {
        links: Vec<PerfectLink<u64>>,
        ctxs: Vec<Clocked>,
        /// Payloads each endpoint delivered.
        got: Vec<Vec<u64>>,
        /// The last ack endpoint 1 sent endpoint 0: `(upto, sparse)`.
        last_ack_from_1: Option<(u64, usize)>,
    }

    impl Pair {
        fn new(now: VirtualTime) -> Self {
            let mut pair = Pair {
                links: Vec::new(),
                ctxs: Vec::new(),
                got: vec![Vec::new(); 2],
                last_ack_from_1: None,
            };
            for i in 0..2 {
                pair.links.push(PerfectLink::new(2, ms(50)));
                pair.ctxs.push(Clocked {
                    id: ReplicaId::new(i),
                    now,
                    sent: Vec::new(),
                    timers: Vec::new(),
                    next_timer: 0,
                });
            }
            pair
        }

        /// Endpoint `i` loses everything, as a restarted process does.
        fn rebuild(&mut self, i: usize, now: VirtualTime) {
            self.links[i] = PerfectLink::new(2, ms(50));
            self.ctxs[i].sent.clear();
            self.ctxs[i].timers.clear();
            for ctx in &mut self.ctxs {
                ctx.now = now;
            }
        }

        /// Each endpoint sends `k` one-payload frames to the other
        /// (endpoint `i` sends `1000 * i + base + j`); then every frame,
        /// ack and timer runs until the wire is quiet.
        fn exchange(&mut self, base: u64, k: u64) {
            for j in 0..k {
                for i in 0..2 {
                    let to = ReplicaId::new(1 - i as u32);
                    self.links[i].send(to, 1000 * i as u64 + base + j, &mut self.ctxs[i]);
                    self.links[i].flush(&mut self.ctxs[i]);
                }
            }
            for _ in 0..50 {
                let mut quiet = true;
                for i in 0..2 {
                    for (to, m) in std::mem::take(&mut self.ctxs[i].sent) {
                        quiet = false;
                        if let (1, LinkMsg::Ack { upto, sparse, .. }) = (i, &m) {
                            self.last_ack_from_1 = Some((*upto, sparse.len()));
                        }
                        let j = to.index();
                        let from = ReplicaId::new(i as u32);
                        let got = self.links[j].on_message(from, m, &mut self.ctxs[j]);
                        self.got[j].extend(got);
                        self.links[j].flush(&mut self.ctxs[j]);
                    }
                }
                if quiet {
                    for i in 0..2 {
                        for t in std::mem::take(&mut self.ctxs[i].timers) {
                            self.links[i].on_timer(t, &mut self.ctxs[i]);
                        }
                        quiet &= self.ctxs[i].sent.is_empty();
                    }
                }
                if quiet {
                    return;
                }
            }
        }
    }

    /// A rebuilt endpoint numbers its frames from 0 and has forgotten
    /// what it delivered, while its peer carries on. Both directions
    /// keep working: the peer takes the new frames (the incarnation
    /// changed), and the rebuilt side skips what its previous life
    /// acknowledged (the floor), so its receive window stays empty.
    #[test]
    fn a_rebuilt_endpoint_and_its_peer_resume_exchanging_frames() {
        let mut pair = Pair::new(ms(1));
        pair.exchange(0, 100);
        assert_eq!(pair.got[0], (1000..1100).collect::<Vec<_>>());
        assert_eq!(pair.got[1], (0..100).collect::<Vec<_>>());
        assert_eq!(pair.last_ack_from_1, Some((100, 0)));

        pair.rebuild(1, ms(2));
        pair.exchange(100, 100);
        assert_eq!(
            pair.got[0][100..],
            (1100..1200).collect::<Vec<_>>(),
            "the peer must deliver the rebuilt side's frames"
        );
        assert_eq!(pair.got[1][100..], (100..200).collect::<Vec<_>>());
        assert_eq!(
            pair.last_ack_from_1,
            Some((200, 0)),
            "the rebuilt side acks the peer's frames with no holes below them"
        );
    }
}
