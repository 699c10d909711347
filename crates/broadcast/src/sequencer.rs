//! Sequencer-based Total Order Broadcast (ablation baseline).

use crate::fifo::FifoRelease;
use crate::tob::{BaselineMark, CompactionState, Tob, TobDelivery};
use bayou_types::{Context, ReplicaId, TimerId, VirtualTime};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;

/// Wire messages of [`SequencerTob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequencerMsg<M> {
    /// Hand a payload to the believed sequencer.
    Submit {
        /// Originating replica of the broadcast.
        sender: ReplicaId,
        /// The origin's dense TOB-cast sequence number.
        seq: u64,
        /// The payload.
        payload: M,
        /// The submitter's contiguous delivered cursor (compaction).
        committed_upto: u64,
    },
    /// The sequencer's ordering decision.
    Order {
        /// Global sequence number assigned by the sequencer.
        global: u64,
        /// Originating replica.
        sender: ReplicaId,
        /// Origin sequence number.
        seq: u64,
        /// The payload.
        payload: M,
        /// The sequencer's view of the globally-stable delivered
        /// watermark (compaction dissemination).
        stable_upto: u64,
    },
    /// A delivered-cursor report: sent back to the
    /// sequencer after processing an `Order`, so replicas that never
    /// cast anything themselves still feed the watermark minimum. Also
    /// the idle-time *watermark poll*: a receiver holding a newer stable
    /// watermark than `stable_upto` answers with [`SequencerMsg::Stable`].
    Ack {
        /// The sender's contiguous delivered cursor.
        committed_upto: u64,
        /// The sender's currently-adopted stable watermark.
        stable_upto: u64,
    },
    /// The poll answer: the sequencer hands its
    /// globally-stable watermark to a replica whose adopted value is
    /// stale, so the final speculation window compacts at quiescence
    /// without fresh traffic. Receivers adopt and answer with an
    /// [`SequencerMsg::Ack`].
    Stable {
        /// The sequencer's view of the stable watermark.
        stable_upto: u64,
    },
}

/// A fixed-sequencer Total Order Broadcast: the replica trusted by Ω
/// stamps each submission with the next global sequence number and
/// broadcasts the decision; replicas deliver in stamp order.
///
/// This is the classic "simplest TOB" design and the **ablation baseline
/// (experiment A2)** against [`crate::PaxosTob`]. It is cheap — two
/// message delays, `O(n)` messages per broadcast — but its safety
/// *depends on Ω*: if the failure detector ever nominates two sequencers
/// simultaneously (which it may, outside stable runs), two replicas can
/// be told conflicting orders for the same stamp, and this implementation
/// keeps whichever arrives first. The Paxos variant pays more messages to
/// remove exactly that dependency. Use the sequencer only in stable
/// configurations with a fixed leader.
#[derive(Debug)]
pub struct SequencerTob<M> {
    n: usize,
    /// Decisions received, by global stamp.
    log: BTreeMap<u64, (ReplicaId, u64, M)>,
    /// Stamps `< cursor` have been pushed to the FIFO gate.
    cursor: u64,
    fifo: FifoRelease<(ReplicaId, u64, M)>,
    delivered: u64,
    /// Sequencer state: the next stamp to assign.
    next_stamp: u64,
    /// Pending payloads awaiting an `Order` (retried by the pump).
    pending: VecDeque<(ReplicaId, u64, M)>,
    pending_keys: HashSet<(ReplicaId, u64)>,
    /// Ordered-but-not-yet-released keys (released ones are answered by
    /// the FIFO cursor, keeping this set O(window) under compaction).
    ordered_keys: HashSet<(ReplicaId, u64)>,
    pump_timer: Option<TimerId>,
    pump_period: VirtualTime,
    // -- committed-prefix compaction (see `PaxosTob` for the protocol) --
    /// Cursor/watermark/clean-point/floor bookkeeping
    /// ([`CompactionState`], shared with the Paxos TOB).
    comp: CompactionState,
    me: Option<ReplicaId>,
}

impl<M: Clone + fmt::Debug> SequencerTob<M> {
    /// Creates a sequencer-TOB endpoint for a cluster of `n` replicas.
    pub fn new(n: usize) -> Self {
        SequencerTob {
            n,
            log: BTreeMap::new(),
            cursor: 0,
            fifo: FifoRelease::new(n),
            delivered: 0,
            next_stamp: 0,
            pending: VecDeque::new(),
            pending_keys: HashSet::new(),
            ordered_keys: HashSet::new(),
            pump_timer: None,
            pump_period: VirtualTime::from_millis(40),
            comp: CompactionState::new(n),
            me: None,
        }
    }

    /// Whether a broadcast key is known ordered (cursor below the FIFO
    /// release point, or in the unreleased window set).
    fn key_ordered(&self, key: (ReplicaId, u64)) -> bool {
        key.1 < self.fifo.next_seq(key.0) || self.ordered_keys.contains(&key)
    }

    /// Recomputes the locally-known stable watermark and truncates the
    /// ordered log below it (at a clean FIFO boundary).
    fn refresh_stable(&mut self) {
        self.comp.refresh_min();
        if self.comp.advance_floor() {
            self.log = self.log.split_off(&self.comp.floor.slot_floor);
        }
    }

    fn submit(
        &mut self,
        sender: ReplicaId,
        seq: u64,
        payload: M,
        ctx: &mut dyn Context<SequencerMsg<M>>,
    ) {
        let key = (sender, seq);
        if self.key_ordered(key) || self.pending_keys.contains(&key) {
            return;
        }
        self.pending_keys.insert(key);
        self.pending.push_back((sender, seq, payload));
        self.flush(ctx);
        if self.pump_timer.is_none() && !self.pending.is_empty() {
            self.pump_timer = Some(ctx.set_timer(self.pump_period));
        }
    }

    /// If we are the sequencer, stamp and broadcast everything pending;
    /// otherwise forward pending submissions to the believed sequencer.
    fn flush(&mut self, ctx: &mut dyn Context<SequencerMsg<M>>) {
        let me = ctx.id();
        let leader = ctx.omega();
        if leader == me {
            while let Some((sender, seq, payload)) = self.pending.pop_front() {
                self.pending_keys.remove(&(sender, seq));
                if self.key_ordered((sender, seq)) {
                    continue;
                }
                let global = self.next_stamp;
                self.next_stamp += 1;
                let stable_upto = self.comp.stable();
                for to in ReplicaId::all(self.n) {
                    if to != me {
                        ctx.send(
                            to,
                            SequencerMsg::Order {
                                global,
                                sender,
                                seq,
                                payload: payload.clone(),
                                stable_upto,
                            },
                        );
                    }
                }
                self.record(global, sender, seq, payload);
            }
        } else {
            for (sender, seq, payload) in &self.pending {
                ctx.send(
                    leader,
                    SequencerMsg::Submit {
                        sender: *sender,
                        seq: *seq,
                        payload: payload.clone(),
                        committed_upto: self.delivered,
                    },
                );
            }
        }
    }

    /// Whether this endpoint owes the cluster an idle-time *watermark
    /// poll* (see [`crate::PaxosTob`]'s equivalent): its adopted stable
    /// watermark trails its own delivered cursor. The poll (an `Ack`
    /// carrying our stale `stable_upto`) is retried at every pump tick
    /// until someone answers with a newer watermark, so a lost message
    /// delays the exchange by one period instead of wedging the final
    /// compaction window.
    fn watermark_poll_owed(&self) -> bool {
        self.comp.stable() < self.delivered
    }

    /// Arms the pump if a watermark poll is owed and no timer is
    /// pending.
    fn ensure_pump(&mut self, ctx: &mut dyn Context<SequencerMsg<M>>) {
        if self.pump_timer.is_none() && self.watermark_poll_owed() {
            self.pump_timer = Some(ctx.set_timer(self.pump_period));
        }
    }

    /// Sends the watermark poll from a pump tick (non-sequencers only:
    /// the sequencer computes the watermark itself from incoming acks
    /// and answers polls in its `Ack` handler).
    fn watermark_poll(&mut self, ctx: &mut dyn Context<SequencerMsg<M>>) {
        let me = ctx.id();
        let leader = ctx.omega();
        if self.watermark_poll_owed() && leader != me {
            ctx.send(
                leader,
                SequencerMsg::Ack {
                    committed_upto: self.delivered,
                    stable_upto: self.comp.stable(),
                },
            );
        }
    }

    fn record(&mut self, global: u64, sender: ReplicaId, seq: u64, payload: M) {
        if global < self.comp.floor.slot_floor {
            return; // below the compaction floor: delivered everywhere
        }
        self.ordered_keys.insert((sender, seq));
        if self.pending_keys.remove(&(sender, seq)) {
            self.pending.retain(|(s, q, _)| (*s, *q) != (sender, seq));
        }
        self.log.entry(global).or_insert((sender, seq, payload));
        // a (naive) sequencer taking over mid-stream continues above
        // everything it has seen
        self.next_stamp = self.next_stamp.max(global + 1);
    }

    fn drain(&mut self) -> Vec<TobDelivery<M>> {
        let mut out = Vec::new();
        while let Some((sender, seq, payload)) = self.log.get(&self.cursor).cloned() {
            self.cursor += 1;
            for (s, q, p) in self.fifo.push(sender, seq, (sender, seq, payload)) {
                self.ordered_keys.remove(&(s, q));
                out.push(TobDelivery {
                    sender: s,
                    seq: q,
                    tob_no: self.delivered,
                    payload: p,
                });
                self.delivered += 1;
            }
            if seq < self.fifo.next_seq(sender) {
                self.ordered_keys.remove(&(sender, seq));
            }
            if self.fifo.held_count() == 0 {
                let (fifo, n) = (&self.fifo, self.n);
                self.comp
                    .record_clean_point(self.cursor, self.delivered, || {
                        ReplicaId::all(n).map(|r| fifo.next_seq(r)).collect()
                    });
            }
        }
        if !out.is_empty() {
            if let Some(me) = self.me {
                self.comp.note_peer(me.index(), self.delivered);
            }
            self.refresh_stable();
        }
        out
    }
}

impl<M: Clone + fmt::Debug> Tob<M> for SequencerTob<M> {
    type Msg = SequencerMsg<M>;

    fn on_start(&mut self, ctx: &mut dyn Context<SequencerMsg<M>>) {
        self.me = Some(ctx.id());
    }

    fn cast(&mut self, seq: u64, payload: M, ctx: &mut dyn Context<SequencerMsg<M>>) {
        let me = ctx.id();
        self.submit(me, seq, payload, ctx);
    }

    fn ensure(
        &mut self,
        sender: ReplicaId,
        seq: u64,
        payload: M,
        ctx: &mut dyn Context<SequencerMsg<M>>,
    ) {
        self.submit(sender, seq, payload, ctx);
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: SequencerMsg<M>,
        ctx: &mut dyn Context<SequencerMsg<M>>,
    ) -> Vec<TobDelivery<M>> {
        // the cursor ack goes out after the drain below, so it reflects
        // the deliveries this message produced
        let mut ack_to = None;
        match msg {
            SequencerMsg::Submit {
                sender,
                seq,
                payload,
                committed_upto,
            } => {
                self.comp.note_peer(from.index(), committed_upto);
                self.refresh_stable();
                self.submit(sender, seq, payload, ctx);
            }
            SequencerMsg::Order {
                global,
                sender,
                seq,
                payload,
                stable_upto,
            } => {
                self.comp.adopt(stable_upto);
                self.record(global, sender, seq, payload);
                ack_to = Some(from);
            }
            SequencerMsg::Ack {
                committed_upto,
                stable_upto,
            } => {
                self.comp.note_peer(from.index(), committed_upto);
                self.refresh_stable();
                if stable_upto < self.comp.stable() {
                    // watermark poll: the reporter's adopted watermark is
                    // stale — answer with ours (retried by the poller's
                    // pump until it catches up, so message loss never
                    // wedges the final compaction window)
                    ctx.send(
                        from,
                        SequencerMsg::Stable {
                            stable_upto: self.comp.stable(),
                        },
                    );
                }
            }
            SequencerMsg::Stable { stable_upto } => {
                if self.comp.adopt(stable_upto) && self.comp.advance_floor() {
                    self.log = self.log.split_off(&self.comp.floor.slot_floor);
                }
                ack_to = Some(from);
            }
        }
        let out = self.drain();
        if let Some(to) = ack_to {
            ctx.send(
                to,
                SequencerMsg::Ack {
                    committed_upto: self.delivered,
                    stable_upto: self.comp.stable(),
                },
            );
        }
        self.ensure_pump(ctx);
        out
    }

    fn on_timer(
        &mut self,
        timer: TimerId,
        ctx: &mut dyn Context<SequencerMsg<M>>,
    ) -> Vec<TobDelivery<M>> {
        if self.pump_timer == Some(timer) {
            self.pump_timer = None;
            self.flush(ctx);
            self.watermark_poll(ctx);
            if !self.pending.is_empty()
                || self
                    .log
                    .keys()
                    .next_back()
                    .is_some_and(|m| *m + 1 > self.cursor)
            {
                self.pump_timer = Some(ctx.set_timer(self.pump_period));
            }
        }
        let out = self.drain();
        self.ensure_pump(ctx);
        out
    }

    fn owns_timer(&self, timer: TimerId) -> bool {
        self.pump_timer == Some(timer)
    }

    fn delivered_count(&self) -> u64 {
        self.delivered
    }

    fn stable_delivered(&self) -> u64 {
        self.comp.floor.delivered
    }

    fn baseline_mark(&self) -> Option<&BaselineMark> {
        Some(&self.comp.floor)
    }

    fn install_baseline(&mut self, mark: &BaselineMark) {
        // an equal-delivered mark with a higher slot floor steps over
        // trailing no-delivery (duplicate) slots — see `PaxosTob`
        if mark.delivered < self.delivered
            || (mark.delivered == self.delivered && mark.slot_floor <= self.comp.floor.slot_floor)
        {
            return;
        }
        self.log = self.log.split_off(&mark.slot_floor);
        for s in ReplicaId::all(self.n) {
            self.fifo.fast_forward(s, mark.next_for(s));
        }
        self.ordered_keys.retain(|(s, q)| *q >= mark.next_for(*s));
        self.pending.retain(|(s, q, _)| *q >= mark.next_for(*s));
        self.pending_keys.retain(|(s, q)| *q >= mark.next_for(*s));
        self.cursor = self.cursor.max(mark.slot_floor);
        self.delivered = mark.delivered;
        self.next_stamp = self.next_stamp.max(mark.slot_floor);
        self.comp.install(mark, self.me.map(|m| m.index()));
    }

    fn released_seq(&self, sender: ReplicaId) -> u64 {
        self.fifo.next_seq(sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_sim::{Sim, SimConfig};
    use bayou_types::Process;

    #[derive(Debug)]
    struct SeqProc {
        tob: SequencerTob<String>,
        next_seq: u64,
        delivered: Vec<TobDelivery<String>>,
    }

    impl Process for SeqProc {
        type Msg = SequencerMsg<String>;
        type Input = String;
        type Output = ();

        fn on_message(
            &mut self,
            from: ReplicaId,
            msg: Self::Msg,
            ctx: &mut dyn Context<Self::Msg>,
        ) {
            let batch = self.tob.on_message(from, msg, ctx);
            self.delivered.extend(batch);
        }

        fn on_timer(&mut self, t: TimerId, ctx: &mut dyn Context<Self::Msg>) {
            if self.tob.owns_timer(t) {
                let batch = self.tob.on_timer(t, ctx);
                self.delivered.extend(batch);
            }
        }

        fn on_input(&mut self, payload: String, ctx: &mut dyn Context<Self::Msg>) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.tob.cast(seq, payload, ctx);
        }

        fn drain_outputs(&mut self) -> Vec<()> {
            Vec::new()
        }
    }

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    #[test]
    fn fixed_leader_orders_everything_identically() {
        let n = 3;
        let cfg = SimConfig::new(n, 31).with_max_time(ms(5_000));
        let mut sim = Sim::new(cfg, move |_| SeqProc {
            tob: SequencerTob::new(n),
            next_seq: 0,
            delivered: Vec::new(),
        });
        for k in 0..9u64 {
            sim.schedule_input(
                ms(1 + 5 * k),
                ReplicaId::new((k % 3) as u32),
                format!("m{k}"),
            );
        }
        sim.run_until(ms(5_000));
        let orders: Vec<Vec<String>> = (0..n as u32)
            .map(|i| {
                sim.process(ReplicaId::new(i))
                    .delivered
                    .iter()
                    .map(|d| d.payload.clone())
                    .collect()
            })
            .collect();
        assert_eq!(orders[0].len(), 9, "{:?}", orders[0]);
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
        // tob_no is dense and ascending everywhere
        for i in 0..n as u32 {
            for (k, d) in sim.process(ReplicaId::new(i)).delivered.iter().enumerate() {
                assert_eq!(d.tob_no, k as u64);
            }
        }
    }

    #[test]
    fn sender_fifo_holds_for_bursts() {
        let n = 2;
        let cfg = SimConfig::new(n, 9).with_max_time(ms(5_000));
        let mut sim = Sim::new(cfg, move |_| SeqProc {
            tob: SequencerTob::new(n),
            next_seq: 0,
            delivered: Vec::new(),
        });
        for k in 0..5u64 {
            sim.schedule_input(ms(1), ReplicaId::new(1), format!("b{k}"));
        }
        sim.run_until(ms(5_000));
        let order: Vec<String> = sim
            .process(ReplicaId::new(0))
            .delivered
            .iter()
            .map(|d| d.payload.clone())
            .collect();
        assert_eq!(order, vec!["b0", "b1", "b2", "b3", "b4"]);
    }

    #[test]
    fn duplicates_from_pump_are_suppressed() {
        let n = 3;
        // large delays force the pump to re-submit before the Order comes
        // back — deliveries must still be exactly-once
        let cfg = SimConfig::new(n, 12)
            .with_net(bayou_sim::NetworkConfig::fixed(ms(60)))
            .with_max_time(ms(10_000));
        let mut sim = Sim::new(cfg, move |_| SeqProc {
            tob: SequencerTob::new(n),
            next_seq: 0,
            delivered: Vec::new(),
        });
        sim.schedule_input(ms(1), ReplicaId::new(2), "solo".to_string());
        sim.run_until(ms(10_000));
        for i in 0..n as u32 {
            let count = sim
                .process(ReplicaId::new(i))
                .delivered
                .iter()
                .filter(|d| d.payload == "solo")
                .count();
            assert_eq!(count, 1, "exactly-once at R{i}");
        }
    }
}
