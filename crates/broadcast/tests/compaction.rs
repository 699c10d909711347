//! TOB-level committed-prefix compaction, which every endpoint runs: the
//! cursor-piggyback watermark protocol truncates the decided log at
//! every endpoint while the delivery stream (order and completeness) is
//! unaffected.

use bayou_broadcast::{PaxosMsg, PaxosTob, Tob, TobDelivery};
use bayou_sim::{Sim, SimConfig};
use bayou_types::{Context, Process, ReplicaId, TimerId, VirtualTime};

#[derive(Debug)]
struct TobProc {
    tob: PaxosTob<String>,
    next_seq: u64,
    delivered: Vec<TobDelivery<String>>,
}

impl TobProc {
    fn new(n: usize) -> Self {
        TobProc {
            tob: PaxosTob::with_defaults(n),
            next_seq: 0,
            delivered: Vec::new(),
        }
    }
}

impl Process for TobProc {
    type Msg = PaxosMsg<String>;
    type Input = String;
    type Output = String;

    fn on_start(&mut self, ctx: &mut dyn Context<PaxosMsg<String>>) {
        self.tob.on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: PaxosMsg<String>,
        ctx: &mut dyn Context<PaxosMsg<String>>,
    ) {
        for d in self.tob.on_message(from, msg, ctx) {
            self.delivered.push(d);
        }
    }

    fn on_timer(&mut self, t: TimerId, ctx: &mut dyn Context<PaxosMsg<String>>) {
        if self.tob.owns_timer(t) {
            for d in self.tob.on_timer(t, ctx) {
                self.delivered.push(d);
            }
        }
    }

    fn on_input(&mut self, payload: String, ctx: &mut dyn Context<PaxosMsg<String>>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tob.cast(seq, payload, ctx);
    }

    fn drain_outputs(&mut self) -> Vec<String> {
        Vec::new()
    }
}

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

#[test]
fn single_replica_compaction_keeps_delivering() {
    let cfg = SimConfig::new(1, 4).with_max_time(ms(60_000));
    let mut sim = Sim::new(cfg, move |_| TobProc::new(1));
    for k in 0..100u64 {
        sim.schedule_input(ms(1 + 5 * k), ReplicaId::new(0), format!("m{k}"));
    }
    sim.run_until(ms(60_000));
    let p = sim.process(ReplicaId::new(0));
    assert_eq!(p.delivered.len(), 100, "all delivered");
    assert!(p.tob.decided_log().len() < 100, "log truncated");
}

#[test]
fn three_replica_compaction_keeps_delivering() {
    let n = 3;
    let cfg = SimConfig::new(n, 21).with_max_time(ms(60_000));
    let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
    for k in 0..90u64 {
        let r = ReplicaId::new((k % n as u64) as u32);
        sim.schedule_input(ms(1 + 7 * k), r, format!("m{k}"));
    }
    sim.run_until(ms(60_000));
    for r in ReplicaId::all(n) {
        assert_eq!(sim.process(r).delivered.len(), 90, "all delivered at {r}");
    }
    // every endpoint truncated (followers may lag by the final batch)
    for r in ReplicaId::all(n) {
        let p = sim.process(r);
        assert!(
            p.tob.decided_log().len() < 90,
            "decided log truncated at {r}: {}",
            p.tob.decided_log().len()
        );
        assert!(p.tob.stable_delivered() > 0, "floor advanced at {r}");
    }
    // delivery orders agree across the cluster
    let order: Vec<_> = sim
        .process(ReplicaId::new(0))
        .delivered
        .iter()
        .map(|d| (d.tob_no, d.payload.clone()))
        .collect();
    for r in ReplicaId::all(n) {
        let other: Vec<_> = sim
            .process(r)
            .delivered
            .iter()
            .map(|d| (d.tob_no, d.payload.clone()))
            .collect();
        assert_eq!(order, other, "orders diverge at {r}");
    }
}

/// The quiescence watermark poll: once traffic stops, every endpoint
/// whose adopted watermark trails its delivered cursor keeps polling
/// (acks carrying the stale watermark) and whoever holds a newer one
/// answers (an empty `Catchup`), so *every* endpoint's compaction floor
/// catches up to its full delivery count — the last speculation window
/// does not stay resident forever. The run must also still quiesce
/// (the poll exchange terminates: the adopted watermark rises
/// monotonically to the delivered cursor).
#[test]
fn paxos_watermark_catches_up_at_quiescence() {
    let n = 3;
    let cfg = SimConfig::new(n, 21).with_max_time(ms(120_000));
    let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
    for k in 0..30u64 {
        let r = ReplicaId::new((k % n as u64) as u32);
        sim.schedule_input(ms(1 + 7 * k), r, format!("m{k}"));
    }
    let report = sim.run_until(ms(120_000));
    assert!(report.quiescent, "the beacon exchange must terminate");
    for r in ReplicaId::all(n) {
        let p = sim.process(r);
        assert_eq!(p.delivered.len(), 30, "all delivered at {r}");
        assert_eq!(
            p.tob.stable_delivered(),
            30,
            "floor lags the delivery count at {r} — the final window never compacted"
        );
        assert!(
            p.tob.decided_log().is_empty(),
            "decided log not fully truncated at {r}: {} entries",
            p.tob.decided_log().len()
        );
    }
}

/// The poll is loss-tolerant: even when the *entire tail* of the run —
/// every message after the last cast — is subject to heavy loss, the
/// per-pump-period retries eventually push the watermark to the top and
/// every endpoint compacts fully. (The send-marks-as-heard design this
/// replaced wedged one window short if a single beacon or cursor report
/// was dropped.)
#[test]
fn paxos_watermark_poll_survives_message_loss() {
    use bayou_sim::{LinkFault, NetworkConfig};
    let n = 3;
    // from 50 ms — while casts are still flowing — until t = 20 s,
    // 60 % of messages are dropped, covering both the decision traffic
    // (recovered by the retry pumps) and the whole quiescence exchange
    let net = NetworkConfig::default().with_fault(LinkFault::new(ms(50), ms(20_000), 0.6, 0.0));
    let cfg = SimConfig::new(n, 77)
        .with_net(net)
        .with_max_time(ms(120_000));
    let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
    for k in 0..12u64 {
        let r = ReplicaId::new((k % n as u64) as u32);
        sim.schedule_input(ms(1 + 15 * k), r, format!("m{k}"));
    }
    let report = sim.run_until(ms(120_000));
    assert!(
        report.quiescent,
        "poll exchange must terminate despite loss"
    );
    assert!(report.metrics.messages_dropped_loss > 0, "loss was live");
    for r in ReplicaId::all(n) {
        let p = sim.process(r);
        assert_eq!(p.delivered.len(), 12, "all delivered at {r}");
        assert_eq!(
            p.tob.stable_delivered(),
            12,
            "floor lags at {r} — a dropped poll/answer wedged the final window"
        );
    }
}

/// The sequencer equivalent: replicas that never cast anything report
/// their cursors by acking `Order`s, so the watermark still advances and
/// every endpoint truncates its ordered log.
#[test]
fn sequencer_compaction_truncates_even_with_silent_replicas() {
    use bayou_broadcast::{SequencerMsg, SequencerTob};

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

        fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
            self.tob.on_start(ctx);
        }
        fn on_message(
            &mut self,
            from: ReplicaId,
            msg: Self::Msg,
            ctx: &mut dyn Context<Self::Msg>,
        ) {
            self.delivered.extend(self.tob.on_message(from, msg, ctx));
        }
        fn on_timer(&mut self, t: TimerId, ctx: &mut dyn Context<Self::Msg>) {
            if self.tob.owns_timer(t) {
                self.delivered.extend(self.tob.on_timer(t, ctx));
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

    let n = 3;
    let cfg = SimConfig::new(n, 31).with_max_time(ms(60_000));
    let mut sim = Sim::new(cfg, move |_| SeqProc {
        tob: SequencerTob::new(n),
        next_seq: 0,
        delivered: Vec::new(),
    });
    // only replica 0 (the Ω-trusted sequencer) ever casts: replicas 1
    // and 2 would never send a Submit, so without Order-acks their
    // cursors would stay 0 and nothing would ever truncate
    for k in 0..60u64 {
        sim.schedule_input(ms(1 + 9 * k), ReplicaId::new(0), format!("m{k}"));
    }
    let report = sim.run_until(ms(60_000));
    assert!(report.quiescent, "the beacon exchange must terminate");
    for r in ReplicaId::all(n) {
        assert_eq!(sim.process(r).delivered.len(), 60, "all delivered at {r}");
    }
    let sequencer = &sim.process(ReplicaId::new(0)).tob;
    assert!(
        sequencer.stable_delivered() > 0,
        "silent replicas must still feed the watermark"
    );
    // quiescence watermark poll (`SequencerMsg::Ack`/`Stable`): every
    // endpoint — including the silent ones — ends with its floor at the
    // full delivery count
    for r in ReplicaId::all(n) {
        assert_eq!(
            sim.process(r).tob.stable_delivered(),
            60,
            "floor lags at {r} — the final window never compacted"
        );
    }
}
