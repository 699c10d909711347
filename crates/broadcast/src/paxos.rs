//! Multi-Paxos-based Total Order Broadcast.
//!
//! One single-decree Paxos instance per *slot*; a leader elected by the Ω
//! failure detector amortises phase 1 over all slots of its ballot.
//! Safety (agreement on each slot, hence a single total order) follows
//! from quorum intersection and holds in **all** runs — even when Ω
//! misbehaves and several replicas believe they lead. Liveness requires a
//! stable run with a majority of correct, connected replicas: exactly the
//! TOB contract the paper assumes (consensus solvable only with Ω).
//!
//! On top of raw slot decisions the implementation provides the paper's
//! extra TOB guarantees:
//!
//! * **sender FIFO** via the deterministic [`FifoRelease`] gate;
//! * the **relay guarantee** (RB-delivered ⇒ eventually TOB-delivered)
//!   via [`Tob::ensure`]: any replica can (re-)submit a payload, and the
//!   submit pump keeps nagging the current leader until the payload is
//!   decided;
//! * **catch-up** for replicas that missed decisions during a partition,
//!   driven by `DecideAck`/`Catchup` exchanges;
//! * **committed-prefix compaction**, always on: every
//!   replica piggybacks its contiguous delivered cursor on the traffic
//!   it already sends (`Submit`/`Promise`/`DecideAck` upward,
//!   `Decide`/`Catchup` downward), each endpoint computes the
//!   globally-stable watermark as the **minimum cursor across all
//!   replicas**, and truncates its decided log below the watermark at a
//!   *clean point* (a slot boundary where the FIFO gate held nothing
//!   back). Because the watermark never passes a replica that has not
//!   reported the prefix as delivered — and deliveries are durable
//!   before any cursor report leaves the replica — no truncated slot can
//!   ever be needed for catch-up between current replicas. A replica
//!   that still asks for truncated history (it lost its disk) receives a
//!   floor-clamped `Catchup` and flags itself as needing a *baseline*
//!   ([`Tob::take_baseline_needed`]); the owner transfers a state
//!   instead of a replay and installs it with [`Tob::install_baseline`].

use crate::fifo::FifoRelease;
use crate::tob::{BaselineMark, CompactionState, Tob, TobDelivery, TobEvent};
use bayou_types::{Context, LeaseConfig, ReplicaId, TimerId, Timestamp, VirtualTime};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;

/// A Paxos ballot: `(round, leader)`, ordered lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot {
    /// Monotonically increasing round number.
    pub round: u64,
    /// The replica leading the ballot.
    pub leader: ReplicaId,
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.leader)
    }
}

/// A value proposed/decided in a slot: a payload tagged with its
/// originating `(sender, seq)` broadcast identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<M> {
    sender: ReplicaId,
    seq: u64,
    payload: M,
}

impl<M> Entry<M> {
    /// Creates an entry from its broadcast identity and payload.
    ///
    /// Exposed so the wire codec (and external codec tests) can rebuild
    /// entries decoded from bytes; protocol code constructs entries only
    /// from locally-cast payloads.
    pub fn new(sender: ReplicaId, seq: u64, payload: M) -> Self {
        Entry {
            sender,
            seq,
            payload,
        }
    }

    /// The replica that originally cast the payload.
    pub fn sender(&self) -> ReplicaId {
        self.sender
    }

    /// The per-sender broadcast sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The carried payload.
    pub fn payload(&self) -> &M {
        &self.payload
    }

    fn key(&self) -> (ReplicaId, u64) {
        (self.sender, self.seq)
    }
}

/// Wire messages of [`PaxosTob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaxosMsg<M> {
    /// Client-side pump: hand payloads to the (believed) leader.
    Submit {
        /// Entries the sender wants ordered.
        entries: Vec<Entry<M>>,
        /// The sender's contiguous decided prefix (for catch-up).
        decided_upto: u64,
        /// The sender's contiguous delivered cursor (compaction).
        committed_upto: u64,
    },
    /// Phase-1a: a candidate leader solicits promises.
    Prepare {
        /// The candidate's ballot.
        ballot: Ballot,
        /// The candidate's contiguous decided prefix: the promiser
        /// reports decided slots only from here up (the candidate
        /// already holds everything below), keeping promises
        /// proportional to the candidate's actual gap instead of the
        /// full history.
        decided_upto: u64,
    },
    /// Phase-1b: a promise not to accept lower ballots, carrying
    /// previously accepted values.
    Promise {
        /// The ballot being promised.
        ballot: Ballot,
        /// `(slot, accepted-ballot, entry)` for every accepted slot.
        accepted: Vec<(u64, Ballot, Entry<M>)>,
        /// The promiser's contiguous decided prefix.
        decided_upto: u64,
        /// The promiser's contiguous delivered cursor (compaction).
        committed_upto: u64,
    },
    /// Phase-2a: the leader asks acceptors to accept a value in a slot.
    Accept {
        /// The leader's ballot.
        ballot: Ballot,
        /// The slot.
        slot: u64,
        /// The proposed entry.
        entry: Entry<M>,
    },
    /// Phase-2b: an acceptor accepted the value.
    Accepted {
        /// The accepted ballot.
        ballot: Ballot,
        /// The slot.
        slot: u64,
    },
    /// Learn: the value of a slot is decided.
    Decide {
        /// The slot.
        slot: u64,
        /// The decided entry.
        entry: Entry<M>,
        /// The sender's view of the globally-stable delivered watermark
        /// (compaction dissemination).
        stable_upto: u64,
    },
    /// Acknowledges a contiguous decided prefix (flow control for
    /// catch-up; doubles as a status/gap report, a delivered-cursor
    /// report, and a *watermark poll*: a receiver holding a newer stable
    /// watermark than `stable_upto` answers with an empty `Catchup`
    /// carrying it, so the final speculation window compacts at
    /// quiescence even when individual messages are lost).
    DecideAck {
        /// Slots `< upto` are decided at the sender.
        upto: u64,
        /// The sender's contiguous delivered cursor (compaction).
        committed_upto: u64,
        /// The sender's currently-adopted stable watermark.
        stable_upto: u64,
    },
    /// Bulk re-delivery of decided slots `first..first+entries.len()`.
    Catchup {
        /// First slot in the batch.
        first: u64,
        /// Decided entries, one per consecutive slot.
        entries: Vec<Entry<M>>,
        /// The sender's view of the globally-stable delivered watermark.
        stable_upto: u64,
        /// The sender's compaction slot floor: slots below it no longer
        /// exist as replayable history at the sender. A receiver whose
        /// contiguous prefix is below this floor can never be caught up
        /// by replay and must request a baseline state transfer.
        floor: u64,
    },
    /// Leader lease grant/renewal: the leader asks each follower to
    /// promise, for `duration_us` on the *follower's* clock, not to help
    /// any other replica lead (no promises, no acceptances for foreign
    /// ballots). Sent every pump period while leading with a lease
    /// configured.
    LeaseGrant {
        /// The granting leader's ballot; followers honor the grant only
        /// at their exactly-promised ballot.
        ballot: Ballot,
        /// Monotonically increasing grant round (stale acks are dropped).
        grant: u64,
        /// Guard window on the follower's clock, in microseconds.
        duration_us: u64,
    },
    /// A follower's acknowledgement of a lease grant, echoing its local
    /// clock at grant receipt — the leader's input for the delay-immune
    /// clock-rate check (see the lease methods on [`PaxosTob`]).
    LeaseAck {
        /// The ballot being acknowledged.
        ballot: Ballot,
        /// The grant round being acknowledged.
        grant: u64,
        /// The follower's clock (µs) when it installed the guard.
        clock: i64,
    },
    /// An acceptor refused a `Prepare` or `Accept` because it promised a
    /// higher ballot. A proposer that missed that ballot's `Prepare`
    /// (crashed or cut off at the time) learns of it only here; without
    /// it, a stale leader that Ω trusts again retransmits into the void
    /// forever.
    Nack {
        /// The acceptor's promised ballot.
        promised: Ballot,
    },
}

/// Tuning knobs for [`PaxosTob`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaxosConfig {
    /// Period of the retry/catch-up pump.
    pub pump_period: VirtualTime,
    /// Maximum entries per `Submit`/`Catchup` batch.
    pub batch_limit: usize,
    /// Leader flow control: at most this many proposals in flight
    /// (proposed under our ballot but not yet decided) at once. Further
    /// pending entries wait until a decision frees a slot, which bounds
    /// the leader's retransmission burst (the pump re-ships every
    /// inflight proposal each period) and caps one group's commit
    /// pipeline at roughly `max_inflight / round-trip` — the per-group
    /// ceiling the cost table's `sharded` rows measure. The default is
    /// unbounded, preserving the fully-pipelined behaviour. Safety
    /// re-proposals after a leader change (accepted-but-undecided slots
    /// merged from promises) bypass the window: they must never be
    /// withheld.
    pub max_inflight: usize,
}

impl Default for PaxosConfig {
    fn default() -> Self {
        PaxosConfig {
            pump_period: VirtualTime::from_millis(40),
            batch_limit: 64,
            max_inflight: usize::MAX,
        }
    }
}

#[derive(Debug)]
enum Role<M> {
    Follower,
    Preparing {
        ballot: Ballot,
        /// Promises received, including our own.
        promises: HashMap<ReplicaId, Vec<(u64, Ballot, Entry<M>)>>,
    },
    Leading {
        ballot: Ballot,
    },
}

/// Multi-Paxos Total Order Broadcast. See the module docs.
#[derive(Debug)]
pub struct PaxosTob<M> {
    n: usize,
    config: PaxosConfig,

    // -- acceptor state --------------------------------------------------
    promised: Ballot,
    accepted: BTreeMap<u64, (Ballot, Entry<M>)>,

    // -- learner state ---------------------------------------------------
    decided: BTreeMap<u64, Entry<M>>,
    /// Decided slots below the compaction floor that the owner has not
    /// compacted yet (kept only while durable): its snapshot at its own
    /// floor still lists them ([`Tob::durable_image`]) until
    /// [`Tob::release_decided`].
    truncated: BTreeMap<u64, Entry<M>>,
    decided_keys: HashSet<(ReplicaId, u64)>,
    /// Slots `< prefix` are decided contiguously.
    prefix: u64,
    /// Slots `< fifo_cursor` have been pushed through the FIFO gate.
    fifo_cursor: u64,
    fifo: FifoRelease<Entry<M>>,
    delivered: u64,

    // -- proposer state ---------------------------------------------------
    role: Role<M>,
    next_slot: u64,
    /// Proposals in flight under our ballot: slot → (entry, acks).
    inflight: BTreeMap<u64, (Entry<M>, HashSet<ReplicaId>)>,
    /// Payloads we must get ordered (ours or actively submitted), not
    /// yet decided. An entry is live while its key is in `pending_keys`:
    /// a decision retires it by dropping the key alone, and retired
    /// entries leave from the front (see [`trim_front`]).
    pending: VecDeque<Entry<M>>,
    pending_keys: HashSet<(ReplicaId, u64)>,
    /// Relayed payloads (from [`Tob::ensure`]) held in standby: they are
    /// promoted to `pending` only by the pump, so a relay can never
    /// overtake the origin's own submission order. Live while the key
    /// is in `standby_keys`, like `pending`.
    standby: VecDeque<Entry<M>>,
    standby_keys: HashSet<(ReplicaId, u64)>,
    /// Keys proposed under the current ballot and not yet decided (avoid
    /// double-proposing; a decided key is answered by `key_decided`).
    proposed_keys: HashSet<(ReplicaId, u64)>,
    /// What we believe each peer has decided (drives catch-up).
    acked_upto: Vec<u64>,
    /// Slots already shipped to each peer in `Catchup` batches.
    ///
    /// Without this cursor, a lagging peer triggers a feedback storm:
    /// every `DecideAck` behind our prefix provokes a full batch, every
    /// batch provokes another ack, and overlapping loops re-ship the
    /// same range thousands of times. Acks now ship only slots past the
    /// cursor; the pump resets the cursor to the peer's acked prefix
    /// once per period, which re-ships (bounded) after message loss.
    catchup_sent: Vec<u64>,
    /// The decided prefix we owed every peer when we last stopped
    /// leading (or restarted): we keep shipping it as a follower to each
    /// peer until it acks (see `owes_catchup`).
    catchup_owed: u64,
    /// Our own replica index (set in `on_start`).
    me: Option<ReplicaId>,

    pump_timer: Option<TimerId>,

    // -- durability --------------------------------------------------------
    /// Whether durable state transitions are being recorded.
    durable_on: bool,
    /// Recorded transitions awaiting [`Tob::drain_durable`].
    durable: Vec<TobEvent<M>>,

    // -- committed-prefix compaction ---------------------------------------
    /// Cursor/watermark/clean-point/floor bookkeeping
    /// ([`CompactionState`], shared with the sequencer TOB).
    comp: CompactionState,
    /// Set when a floor-clamped `Catchup` told us our missing prefix no
    /// longer exists as replayable history (we need a baseline).
    baseline_from: Option<ReplicaId>,

    // -- leader lease ------------------------------------------------------
    /// Lease parameters, when the local-read fast path is enabled. All
    /// lease state below is inert (and costs no clock reads) when `None`.
    lease: Option<LeaseConfig>,
    /// Monotonically increasing grant round (leader side).
    lease_grant_no: u64,
    /// Our clock at the current grant round's send.
    lease_grant_sent: i64,
    /// Replicas counted toward the current grant's quorum (incl. self).
    lease_counted: HashSet<ReplicaId>,
    /// Local-clock bound of the held lease: committed reads may be
    /// served while `clock < valid_until` (once their read index is
    /// delivered).
    lease_valid_until: i64,
    /// Per-peer `(follower clock, our clock at ack receipt)` from the
    /// last lease ack — the calibration pair for the rate check.
    lease_calib: Vec<Option<(i64, i64)>>,
    /// The leaseholder we promised a guard to (possibly ourselves).
    lease_guard_leader: Option<ReplicaId>,
    /// Local-clock bound of the guard promise.
    lease_guard_until: i64,
    /// Local-clock bound below which a restarted endpoint refuses all
    /// coordination: a guard promised before the crash may still be
    /// running, and its deadline did not survive the restart.
    lease_mute_until: Option<i64>,
    /// Set by [`PaxosTob::restore`]; realized as a mute window at
    /// `on_start` (where a clock is available) if a lease is configured.
    lease_boot_mute: bool,
}

impl<M: Clone + fmt::Debug> PaxosTob<M> {
    /// Creates a Paxos endpoint for a cluster of `n` replicas.
    pub fn new(n: usize, config: PaxosConfig) -> Self {
        PaxosTob {
            n,
            config,
            promised: Ballot::default(),
            accepted: BTreeMap::new(),
            decided: BTreeMap::new(),
            truncated: BTreeMap::new(),
            decided_keys: HashSet::new(),
            prefix: 0,
            fifo_cursor: 0,
            fifo: FifoRelease::new(n),
            delivered: 0,
            role: Role::Follower,
            next_slot: 0,
            inflight: BTreeMap::new(),
            pending: VecDeque::new(),
            pending_keys: HashSet::new(),
            standby: VecDeque::new(),
            standby_keys: HashSet::new(),
            proposed_keys: HashSet::new(),
            acked_upto: vec![0; n],
            catchup_sent: vec![0; n],
            catchup_owed: 0,
            me: None,
            pump_timer: None,
            durable_on: false,
            durable: Vec::new(),
            comp: CompactionState::new(n),
            baseline_from: None,
            lease: None,
            lease_grant_no: 0,
            lease_grant_sent: i64::MIN,
            lease_counted: HashSet::new(),
            lease_valid_until: i64::MIN,
            lease_calib: vec![None; n],
            lease_guard_leader: None,
            lease_guard_until: i64::MIN,
            lease_mute_until: None,
            lease_boot_mute: false,
        }
    }

    /// With default tuning.
    pub fn with_defaults(n: usize) -> Self {
        Self::new(n, PaxosConfig::default())
    }

    /// Internal cursors `(prefix, fifo_cursor, delivered, floor)` for
    /// DST diagnostics.
    #[doc(hidden)]
    pub fn debug_cursors(&self) -> (u64, u64, u64, BaselineMark) {
        (
            self.prefix,
            self.fifo_cursor,
            self.delivered,
            self.comp.floor.clone(),
        )
    }

    /// The decided log known to this replica: `(slot, sender, seq)` per
    /// decided slot, in slot order. Diagnostic/inspection API.
    pub fn decided_log(&self) -> Vec<(u64, ReplicaId, u64)> {
        self.decided
            .iter()
            .map(|(slot, e)| (*slot, e.sender, e.seq))
            .collect()
    }

    fn quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// Raises the promised ballot, recording the transition when durable.
    fn promise(&mut self, ballot: Ballot) {
        if ballot > self.promised {
            self.promised = ballot;
            if self.durable_on {
                self.durable.push(TobEvent::Promised {
                    round: ballot.round,
                    leader: ballot.leader,
                });
            }
        }
    }

    /// Gives up leading (or preparing): what we proposed under our ballot
    /// is someone else's to finish, but what we decided stays ours to
    /// ship to the peers that have not acknowledged it.
    fn step_down(&mut self) {
        if matches!(self.role, Role::Leading { .. }) {
            self.catchup_owed = self.catchup_owed.max(self.prefix);
        }
        self.role = Role::Follower;
        self.inflight.clear();
        self.proposed_keys.clear();
        self.lease_drop_leadership();
    }

    /// Records an acceptance, mirroring `accepted.insert`.
    fn record_accept(&mut self, slot: u64, ballot: Ballot, entry: &Entry<M>) {
        if self.durable_on {
            self.durable.push(TobEvent::Accepted {
                slot,
                round: ballot.round,
                leader: ballot.leader,
                sender: entry.sender,
                seq: entry.seq,
                payload: entry.payload.clone(),
            });
        }
    }

    /// Rebuilds the endpoint from a durable event stream, in recording
    /// order, and returns every TOB-delivery the restored decided log
    /// yields (the caller typically already applied a prefix of them via
    /// a state snapshot and re-executes only the rest).
    ///
    /// Replaying `drain_durable` output through `restore` on a fresh
    /// endpoint reproduces the acceptor state (promised ballot, accepted
    /// values), the learner state (decided log, contiguous prefix) and
    /// the sender-FIFO release cursor exactly — the crash-recovery
    /// contract of `bayou-storage`. No messages are sent and nothing is
    /// re-recorded; enable durability with [`Tob::set_durable`] *after*
    /// restoring.
    pub fn restore(
        &mut self,
        events: impl IntoIterator<Item = TobEvent<M>>,
    ) -> Vec<TobDelivery<M>> {
        for ev in events {
            // the crashed incarnation had durable state, so it may have
            // promised a lease guard whose deadline died with it: mute
            // after restart (realized at `on_start`, where a clock
            // exists, and only if a lease is actually configured)
            self.lease_boot_mute = true;
            match ev {
                TobEvent::Promised { round, leader } => {
                    let b = Ballot { round, leader };
                    if b > self.promised {
                        self.promised = b;
                    }
                }
                TobEvent::Accepted {
                    slot,
                    round,
                    leader,
                    sender,
                    seq,
                    payload,
                } => {
                    let b = Ballot { round, leader };
                    let entry = Entry {
                        sender,
                        seq,
                        payload,
                    };
                    match self.accepted.get(&slot) {
                        Some((ob, _)) if *ob > b => {}
                        _ => {
                            self.accepted.insert(slot, (b, entry));
                        }
                    }
                }
                TobEvent::Decided {
                    slot,
                    sender,
                    seq,
                    payload,
                } => {
                    self.learn(
                        slot,
                        Entry {
                            sender,
                            seq,
                            payload,
                        },
                    );
                }
            }
        }
        self.drain_deliveries()
    }

    /// Whether a broadcast key is known decided. Keys of already
    /// FIFO-released broadcasts are answered by the per-sender release
    /// cursor, which lets `decided_keys` hold only the
    /// decided-but-unreleased window instead of the whole lifetime.
    fn key_decided(&self, key: (ReplicaId, u64)) -> bool {
        key.1 < self.fifo.next_seq(key.0) || self.decided_keys.contains(&key)
    }

    fn is_known(&self, key: (ReplicaId, u64)) -> bool {
        self.key_decided(key)
            || self.pending_keys.contains(&key)
            || self.standby_keys.contains(&key)
    }

    fn enqueue(&mut self, entry: Entry<M>, ctx: &mut dyn Context<PaxosMsg<M>>) {
        let key = entry.key();
        if self.key_decided(key) || self.pending_keys.contains(&key) {
            self.ensure_pump(ctx);
            return;
        }
        // an actively-submitted entry outranks its standby (relay) copy
        if self.standby_keys.remove(&key) {
            trim_front(&mut self.standby, &self.standby_keys);
        }
        self.pending_keys.insert(key);
        self.pending.push_back(entry);
        self.try_propose(ctx);
        self.ensure_pump(ctx);
    }

    /// Proposes pending entries if we are leading, up to the
    /// `max_inflight` flow-control window.
    fn try_propose(&mut self, ctx: &mut dyn Context<PaxosMsg<M>>) {
        let Role::Leading { ballot } = self.role else {
            return;
        };
        // walk the queue in place, counting positions from the back: a
        // proposal decided inline (a one-replica quorum) pops retired
        // entries off the front, which leaves back-relative positions be
        let mut rest = self.pending.len();
        while rest > 0 && self.inflight.len() < self.config.max_inflight {
            let entry = &self.pending[self.pending.len() - rest];
            rest -= 1;
            if self.proposed_keys.contains(&entry.key()) || self.key_decided(entry.key()) {
                continue;
            }
            let entry = entry.clone();
            let slot = self.next_slot;
            self.next_slot += 1;
            self.propose_at(ballot, slot, entry, ctx);
            rest = rest.min(self.pending.len());
        }
    }

    fn propose_at(
        &mut self,
        ballot: Ballot,
        slot: u64,
        entry: Entry<M>,
        ctx: &mut dyn Context<PaxosMsg<M>>,
    ) {
        self.proposed_keys.insert(entry.key());
        // the leader is its own acceptor
        self.accepted.insert(slot, (ballot, entry.clone()));
        self.record_accept(slot, ballot, &entry);
        let mut acks = HashSet::new();
        acks.insert(ctx.id());
        self.inflight.insert(slot, (entry.clone(), acks));
        let me = ctx.id();
        for to in ReplicaId::all(self.n) {
            if to != me {
                ctx.send(
                    to,
                    PaxosMsg::Accept {
                        ballot,
                        slot,
                        entry: entry.clone(),
                    },
                );
            }
        }
        // single-replica cluster: quorum of one is immediate
        self.check_decided(slot, ctx);
    }

    fn check_decided(&mut self, slot: u64, ctx: &mut dyn Context<PaxosMsg<M>>) {
        let quorum = self.quorum();
        let decided_entry = match self.inflight.get(&slot) {
            Some((entry, acks)) if acks.len() >= quorum => Some(entry.clone()),
            _ => None,
        };
        if let Some(entry) = decided_entry {
            self.inflight.remove(&slot);
            let me = ctx.id();
            let stable_upto = self.comp.stable();
            for to in ReplicaId::all(self.n) {
                if to != me {
                    ctx.send(
                        to,
                        PaxosMsg::Decide {
                            slot,
                            entry: entry.clone(),
                            stable_upto,
                        },
                    );
                }
            }
            self.learn(slot, entry);
        }
    }

    /// Records a decided slot and advances the contiguous prefix.
    fn learn(&mut self, slot: u64, entry: Entry<M>) {
        // decided now (or long ago, below the floor or in this very
        // slot): from here on `key_decided` answers for it
        self.proposed_keys.remove(&entry.key());
        if slot < self.comp.floor.slot_floor || self.decided.contains_key(&slot) {
            // below the compaction floor the decision is ancient history
            // (delivered everywhere); re-learning it would resurrect
            // truncated state
            return;
        }
        if self.durable_on {
            self.durable.push(TobEvent::Decided {
                slot,
                sender: entry.sender,
                seq: entry.seq,
                payload: entry.payload.clone(),
            });
        }
        self.decided_keys.insert(entry.key());
        if self.pending_keys.remove(&entry.key()) {
            trim_front(&mut self.pending, &self.pending_keys);
        }
        if self.standby_keys.remove(&entry.key()) {
            trim_front(&mut self.standby, &self.standby_keys);
        }
        self.decided.insert(slot, entry);
        while self.decided.contains_key(&self.prefix) {
            self.prefix += 1;
        }
    }

    /// Emits deliveries for all decided-but-unprocessed slots below the
    /// prefix.
    fn drain_deliveries(&mut self) -> Vec<TobDelivery<M>> {
        let mut out = Vec::new();
        // process slots [processed, prefix): processed tracked implicitly
        // by removing nothing; track with a cursor stored in `fifo_cursor`.
        while self.fifo_cursor() < self.prefix {
            let slot = self.fifo_cursor();
            let entry = self
                .decided
                .get(&slot)
                .expect("prefix implies decided")
                .clone();
            self.set_fifo_cursor(slot + 1);
            let pushed_key = entry.key();
            for e in self.fifo.push(entry.sender, entry.seq, entry) {
                // released keys are answered by the fifo cursor from now
                // on — drop them from the unreleased-window set
                self.decided_keys.remove(&(e.sender, e.seq));
                out.push(TobDelivery {
                    sender: e.sender,
                    seq: e.seq,
                    tob_no: self.delivered,
                    payload: e.payload,
                });
                self.delivered += 1;
            }
            if pushed_key.1 < self.fifo.next_seq(pushed_key.0) {
                // released above, or a duplicate decision of an
                // already-released broadcast: covered by the cursor
                self.decided_keys.remove(&pushed_key);
            }
            if self.fifo.held_count() == 0 {
                // a clean point: the deliveries so far are exactly the
                // slots processed so far — a valid truncation boundary
                let (fifo, n) = (&self.fifo, self.n);
                self.comp.record_clean_point(slot + 1, self.delivered, || {
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

    /// Recomputes the locally-known globally-stable watermark (the
    /// minimum delivered cursor across all replicas — conservative:
    /// unheard-from peers count as 0) and truncates up to it.
    fn refresh_stable(&mut self) {
        self.comp.refresh_min();
        self.maybe_compact();
    }

    /// Advances the compaction floor to the best clean point at or below
    /// the stable watermark and truncates the decided log there.
    fn maybe_compact(&mut self) {
        if self.comp.advance_floor() {
            let floor = self.comp.floor.slot_floor;
            let above = self.decided.split_off(&floor);
            let mut below = std::mem::replace(&mut self.decided, above);
            if self.durable_on {
                self.truncated.append(&mut below);
            }
            self.accepted = self.accepted.split_off(&floor);
        }
    }

    /// Records a peer's contiguous decided prefix report. Normally the
    /// cursor only moves forward (reports may arrive reordered), but a
    /// report *below our compaction floor* from a peer we believed to be
    /// past it means the peer lost its state (amnesia restart): the
    /// monotone assumption is dropped so the catch-up path can observe
    /// the regression, floor-clamp, and trigger the baseline transfer.
    fn note_peer_decided(&mut self, from: ReplicaId, upto: u64) {
        let i = from.index();
        if upto < self.comp.floor.slot_floor && upto < self.acked_upto[i] {
            self.acked_upto[i] = upto;
            self.catchup_sent[i] = self.catchup_sent[i].min(upto);
        } else {
            self.acked_upto[i] = self.acked_upto[i].max(upto);
        }
    }

    /// Records a peer's contiguous delivered cursor.
    fn note_peer_delivered(&mut self, from: ReplicaId, committed_upto: u64) {
        self.comp.note_peer(from.index(), committed_upto);
        self.refresh_stable();
    }

    /// Adopts a watermark disseminated by a peer (the leader's computed
    /// minimum reaches followers through `Decide`/`Catchup`).
    fn note_stable_upto(&mut self, stable_upto: u64) {
        if self.comp.adopt(stable_upto) {
            self.maybe_compact();
        }
    }

    fn fifo_cursor(&self) -> u64 {
        self.fifo_cursor
    }

    fn set_fifo_cursor(&mut self, v: u64) {
        self.fifo_cursor = v;
    }

    fn start_prepare(&mut self, ctx: &mut dyn Context<PaxosMsg<M>>) {
        if self.lease_blocks(ctx.id(), ctx) {
            // a live guard for another leaseholder (or a post-restart
            // mute) forbids our candidacy; the pump retries once it runs
            // out
            self.ensure_pump(ctx);
            return;
        }
        let ballot = Ballot {
            round: self.promised.round + 1,
            leader: ctx.id(),
        };
        self.promise(ballot);
        self.proposed_keys.clear();
        self.inflight.clear();
        let own: Vec<(u64, Ballot, Entry<M>)> = self
            .accepted
            .iter()
            .map(|(s, (b, e))| (*s, *b, e.clone()))
            .collect();
        let mut promises = HashMap::new();
        promises.insert(ctx.id(), own);
        self.role = Role::Preparing { ballot, promises };
        let me = ctx.id();
        for to in ReplicaId::all(self.n) {
            if to != me {
                ctx.send(
                    to,
                    PaxosMsg::Prepare {
                        ballot,
                        decided_upto: self.prefix,
                    },
                );
            }
        }
        // single-replica cluster completes phase 1 immediately
        self.maybe_finish_prepare(ctx);
    }

    fn maybe_finish_prepare(&mut self, ctx: &mut dyn Context<PaxosMsg<M>>) {
        let (ballot, merged) = match &self.role {
            Role::Preparing { ballot, promises } if promises.len() >= self.quorum() => {
                // merge: per slot, keep the value accepted at the highest
                // ballot
                let mut merged: BTreeMap<u64, (Ballot, Entry<M>)> = BTreeMap::new();
                for acc in promises.values() {
                    for (slot, b, e) in acc {
                        match merged.get(slot) {
                            Some((mb, _)) if mb >= b => {}
                            _ => {
                                merged.insert(*slot, (*b, e.clone()));
                            }
                        }
                    }
                }
                (*ballot, merged)
            }
            _ => return,
        };
        self.role = Role::Leading { ballot };
        // re-propose every accepted-but-undecided slot under our ballot
        // (slots below the compaction floor are decided everywhere and
        // must not be revived)
        let mut max_slot = self.decided.keys().next_back().copied();
        for (slot, (_b, entry)) in &merged {
            max_slot = Some(max_slot.map_or(*slot, |m| m.max(*slot)));
            if *slot >= self.comp.floor.slot_floor && !self.decided.contains_key(slot) {
                self.propose_at(ballot, *slot, entry.clone(), ctx);
            }
        }
        self.next_slot = max_slot
            .map_or(0, |m| m + 1)
            .max(self.next_slot)
            .max(self.comp.floor.slot_floor);
        // fresh leadership: no residual lease window may carry over
        self.lease_drop_leadership();
        self.try_propose(ctx);
    }

    fn send_catchup(&mut self, to: ReplicaId, from_slot: u64, ctx: &mut dyn Context<PaxosMsg<M>>) {
        // never below the compaction floor: those slots no longer exist
        // as replayable history here — the floor-clamped batch tells the
        // receiver whether it needs a baseline instead
        let start = from_slot
            .max(self.catchup_sent[to.index()])
            .max(self.comp.floor.slot_floor);
        if start >= self.prefix {
            return; // everything shipped already; the pump re-ships on loss
        }
        let limit = self.config.batch_limit as u64;
        let until = (start + limit).min(self.prefix);
        let entries: Vec<Entry<M>> = (start..until).map(|s| self.decided[&s].clone()).collect();
        self.catchup_sent[to.index()] = until;
        ctx.send(
            to,
            PaxosMsg::Catchup {
                first: start,
                entries,
                stable_upto: self.comp.stable(),
                floor: self.comp.floor.slot_floor,
            },
        );
    }

    /// Whether this endpoint still owes the cluster an idle-time
    /// *watermark poll*: its adopted stable watermark trails its own
    /// delivered cursor. Cursor reports and watermark dissemination only
    /// piggyback on traffic, so once the traffic stops the final
    /// speculation window would stay resident forever; the poll (a
    /// `DecideAck` carrying our stale `stable_upto`) keeps nagging until
    /// someone answers with a newer watermark. Poll-driven rather than
    /// send-driven on purpose: a lost poll or a lost answer is retried
    /// at the next pump tick, and the exchange terminates because the
    /// adopted watermark rises monotonically to the delivered cursor.
    fn watermark_poll_owed(&self) -> bool {
        self.comp.stable() < self.delivered
    }

    // ---- leader lease ---------------------------------------------------
    //
    // The lease is a *time-bounded mutual-exclusion promise* measured on
    // each replica's own (possibly skewed, possibly drifting) clock:
    //
    // * On every pump tick the leader sends `LeaseGrant { duration }`.
    //   A follower at the leader's exactly-promised ballot installs a
    //   guard — for `duration` on its clock it will not promise to, or
    //   accept from, any *other* would-be leader — and echoes its clock
    //   reading in a `LeaseAck`.
    // * The leader counts an acking follower toward the lease quorum
    //   only when a **delay-immune over-estimate** of the follower's
    //   clock rate passes: with `f` the follower clocks echoed in two
    //   consecutive counted acks, `l_recv` our clock when the earlier
    //   ack arrived and `l_send` our clock when the later grant left,
    //   the real-time interval `[l_recv, l_send]` is *covered by* the
    //   follower's measurement interval, so `(f_i − f_prev) / (l_send −
    //   l_recv)` bounds `rate_f / rate_l` from above for any network
    //   delays. Counting requires that ratio ≤ `duration / (duration −
    //   epsilon)` — exactly the condition under which the follower's
    //   guard (duration on its clock) outlives our window (`duration −
    //   epsilon` on ours, from the grant's send). Clock *offsets* cancel
    //   entirely; drift beyond the epsilon margin fails the check and
    //   merely disables the fast path.
    // * With a quorum counted, any competing leader needs promises and
    //   acceptances from a quorum, which intersects the guarded set: no
    //   new command can be chosen behind our back while the window
    //   lasts, so our contiguously-delivered committed state is the
    //   linearization frontier once it covers the read's *index*.
    // * The read index is `next_slot` when the read arrives: every slot
    //   decided under prior leaders lies below it (phase 1 starts us
    //   past every slot the promise quorum accepted), and so does every
    //   slot we proposed. An acceptor may learn a slot — and answer its
    //   client — before we do (see the `Accept` arm), so our own prefix
    //   is not the frontier: a read is served only once every slot
    //   below its index is delivered here.
    // * The leader self-guards for the full `duration` at each grant
    //   send — its own promise/acceptance would pierce the quorum
    //   argument just like a follower's.
    // * A restarted endpoint has forgotten any guard it promised, so
    //   `restore` schedules a one-shot *mute*: for one full `duration`
    //   on the post-restart clock it refuses all coordination. The
    //   clock's rate is a property of the replica (not the boot), so the
    //   mute window always covers the remainder of a pre-crash guard.

    /// Whether the lease machinery currently forbids helping `candidate`
    /// lead (promising, accepting, or starting our own candidacy): a
    /// live guard names a different leaseholder, or a post-restart mute
    /// is in force. Expired windows are cleared on the way out. Costs a
    /// clock read only when a lease is configured.
    fn lease_blocks(&mut self, candidate: ReplicaId, ctx: &mut dyn Context<PaxosMsg<M>>) -> bool {
        if self.lease.is_none() {
            return false;
        }
        let now = ctx.clock().value();
        if let Some(mute) = self.lease_mute_until {
            if now < mute {
                return true;
            }
            self.lease_mute_until = None;
        }
        if let Some(holder) = self.lease_guard_leader {
            if now < self.lease_guard_until {
                return holder != candidate;
            }
            self.lease_guard_leader = None;
        }
        false
    }

    /// Whether we lead under a quorum-confirmed lease window at local
    /// clock `now`.
    fn lease_held(&self, now: Timestamp) -> bool {
        self.lease.is_some()
            && matches!(self.role, Role::Leading { .. })
            && now.value() < self.lease_valid_until
    }

    /// Leader side: drops all lease-*holding* state (step-down, lost
    /// ballot). Any guard we promised — including our own self-guard —
    /// stays: it is a promise to others and must run out on the clock.
    fn lease_drop_leadership(&mut self) {
        self.lease_counted.clear();
        self.lease_valid_until = i64::MIN;
    }

    /// Sends the per-tick lease grant while leading (no-op without a
    /// configured lease) and opens the leader's self-guard.
    fn lease_pump_grant(&mut self, ctx: &mut dyn Context<PaxosMsg<M>>) {
        let (Some(cfg), Role::Leading { ballot }) = (self.lease, &self.role) else {
            return;
        };
        let ballot = *ballot;
        let me = ctx.id();
        let now = ctx.clock().value();
        self.lease_grant_no += 1;
        self.lease_grant_sent = now;
        self.lease_counted.clear();
        self.lease_counted.insert(me);
        self.lease_guard_leader = Some(me);
        self.lease_guard_until = self.lease_guard_until.max(now + cfg.duration_us as i64);
        if self.lease_counted.len() >= self.quorum() {
            // single-replica quorum: the grant is its own ack
            self.lease_valid_until = self
                .lease_valid_until
                .max(now + (cfg.duration_us - cfg.epsilon_us) as i64);
        }
        for to in ReplicaId::all(self.n) {
            if to != me {
                ctx.send(
                    to,
                    PaxosMsg::LeaseGrant {
                        ballot,
                        grant: self.lease_grant_no,
                        duration_us: cfg.duration_us,
                    },
                );
            }
        }
    }

    fn needs_pump(&self) -> bool {
        !self.pending.is_empty()
            || !self.standby.is_empty()
            || !self.inflight.is_empty()
            || matches!(self.role, Role::Preparing { .. })
            || self.has_gap()
            || self.owes_catchup()
            // decided-but-undrained slots: `cast` can decide immediately
            // (single-replica quorum) but deliveries only drain in
            // on_message/on_timer — the pump must come back for them
            || self.fifo_cursor < self.prefix
            || self.watermark_poll_owed()
            // a leaseholder renews every tick for as long as it leads
            || (self.lease.is_some() && matches!(self.role, Role::Leading { .. }))
    }

    fn has_gap(&self) -> bool {
        self.decided
            .keys()
            .next_back()
            .map(|max| *max + 1 > self.prefix)
            .unwrap_or(false)
    }

    /// Whether a peer still lacks decided slots we owe it: as leader,
    /// anything below our prefix; otherwise, what we had decided when we
    /// stopped leading or restarted. The second keeps a former leader
    /// shipping to a laggard Ω may trust next: in an idle group nothing
    /// else would ever tell that laggard what it missed. Either way
    /// nothing below the compaction floor is owed (see `still_owed`): a
    /// peer that caught up from someone else never acks us, and a leader
    /// that counted it owed would pump forever with nothing to send.
    fn owes_catchup(&self) -> bool {
        let leading = matches!(self.role, Role::Leading { .. });
        self.acked_upto.iter().enumerate().any(|(i, a)| {
            Some(ReplicaId::new(i as u32)) != self.me
                && if leading {
                    (*a).max(self.comp.floor.slot_floor) < self.prefix
                } else {
                    self.still_owed(i)
                }
        })
    }

    /// Whether peer `i` still lacks what `catchup_owed` says it does. Slots
    /// below the compaction floor are delivered everywhere (the floor
    /// trails every replica's cursor), so they are owed to no one — and
    /// acks no longer come our way to say so once we stopped leading.
    fn still_owed(&self, i: usize) -> bool {
        self.acked_upto[i] < self.catchup_owed && self.catchup_owed > self.comp.floor.slot_floor
    }

    /// Re-ships catch-up to `peer` from its acknowledged prefix: what we
    /// shipped a full pump period ago and it has not acked counts as lost.
    fn reship_catchup(&mut self, peer: ReplicaId, ctx: &mut dyn Context<PaxosMsg<M>>) {
        let from = self.acked_upto[peer.index()];
        self.catchup_sent[peer.index()] = self.catchup_sent[peer.index()].min(from);
        self.send_catchup(peer, from, ctx);
    }

    fn ensure_pump(&mut self, ctx: &mut dyn Context<PaxosMsg<M>>) {
        if self.pump_timer.is_none() && self.needs_pump() {
            self.pump_timer = Some(ctx.set_timer(self.config.pump_period));
        }
    }

    fn pump(&mut self, ctx: &mut dyn Context<PaxosMsg<M>>) {
        let me = ctx.id();
        let leader = ctx.omega();

        // step down if Ω no longer trusts us
        if leader != me && !matches!(self.role, Role::Follower) {
            self.step_down();
        }

        if leader == me {
            // promote relayed standby entries: the pump is their (paced)
            // proposal path
            while let Some(e) = self.standby.pop_front() {
                self.standby_keys.remove(&e.key());
                if !self.is_known(e.key()) {
                    self.pending_keys.insert(e.key());
                    self.pending.push_back(e);
                }
            }
            match self.role {
                Role::Leading { .. } => {
                    self.lease_pump_grant(ctx);
                    // retransmit inflight proposals
                    let inflight: Vec<(u64, Entry<M>, Ballot)> = match self.role {
                        Role::Leading { ballot } => self
                            .inflight
                            .iter()
                            .map(|(s, (e, _))| (*s, e.clone(), ballot))
                            .collect(),
                        _ => unreachable!(),
                    };
                    for (slot, entry, ballot) in inflight {
                        for to in ReplicaId::all(self.n) {
                            if to != me {
                                ctx.send(
                                    to,
                                    PaxosMsg::Accept {
                                        ballot,
                                        slot,
                                        entry: entry.clone(),
                                    },
                                );
                            }
                        }
                    }
                    // catch up laggards
                    for peer in ReplicaId::all(self.n) {
                        if peer != me && self.acked_upto[peer.index()] < self.prefix {
                            self.reship_catchup(peer, ctx);
                        }
                    }
                    // fill persistent holes: a slot below our decided top
                    // that neither we nor the promise quorum know a value
                    // for wedges the whole cluster — the contiguous
                    // prefix, and with it *every* delivery, stops at the
                    // first hole (its only acceptance may have died with
                    // a minority replica outside our prepare quorum).
                    // Phase 1 of our ballot entitles us to propose any
                    // value into such a slot; multi-Paxos classically
                    // fills with no-ops, but payloads are opaque here, so
                    // propose a not-yet-proposed pending entry — or,
                    // lacking one, re-propose a decided entry from a
                    // higher slot (a duplicate decision is deduplicated
                    // by the deterministic FIFO release gate on every
                    // replica alike). Found by the DST harness: one
                    // orphaned slot froze delivery cluster-wide forever.
                    if let Role::Leading { ballot } = self.role {
                        let top = self.decided.keys().next_back().copied().unwrap_or(0);
                        let holes: Vec<u64> = (self.prefix..top)
                            .filter(|s| {
                                !self.decided.contains_key(s) && !self.inflight.contains_key(s)
                            })
                            .take(self.config.batch_limit)
                            .collect();
                        for slot in holes {
                            let filler = self
                                .pending
                                .iter()
                                .find(|e| {
                                    !self.proposed_keys.contains(&e.key())
                                        && !self.key_decided(e.key())
                                })
                                .cloned()
                                .or_else(|| {
                                    self.decided.range(slot..).next().map(|(_, e)| e.clone())
                                });
                            if let Some(entry) = filler {
                                self.propose_at(ballot, slot, entry, ctx);
                            }
                        }
                    }
                    // a leader can itself be the laggard: a replica that
                    // recovered with a hole in its decided log and then
                    // won the election has no one to catch it up —
                    // Catchup flows leader→follower, and the prepare
                    // merge may not cover the hole (a recovered
                    // acceptor's snapshot keeps only *undecided*
                    // accepted entries). Report the gap with a
                    // DecideAck: any peer that is further along responds
                    // with a Catchup batch (its handler treats acks as
                    // gap reports regardless of roles). Found by the DST
                    // harness (leader stuck pumping forever at a hole).
                    if self.has_gap() {
                        for peer in ReplicaId::all(self.n) {
                            if peer != me {
                                ctx.send(
                                    peer,
                                    PaxosMsg::DecideAck {
                                        upto: self.prefix,
                                        committed_upto: self.delivered,
                                        stable_upto: self.comp.stable(),
                                    },
                                );
                            }
                        }
                    }
                    self.try_propose(ctx);
                }
                Role::Preparing { .. } => {
                    // retry phase 1 with a higher ballot (lost messages or
                    // competition)
                    self.start_prepare(ctx);
                }
                Role::Follower => {
                    if !self.pending.is_empty()
                        || !self.standby.is_empty()
                        || self.has_gap()
                        || self.prefix > 0
                    {
                        self.start_prepare(ctx);
                    }
                }
            }
        } else {
            // ship what we owe since we stopped leading or restarted
            // (see `owes_catchup`)
            for peer in ReplicaId::all(self.n) {
                if peer != me && self.still_owed(peer.index()) {
                    self.reship_catchup(peer, ctx);
                }
            }
            // follower: nag the leader with pending and relayed payloads
            if !self.pending.is_empty() || !self.standby.is_empty() {
                let entries: Vec<Entry<M>> = live(&self.pending, &self.pending_keys)
                    .chain(live(&self.standby, &self.standby_keys))
                    .take(self.config.batch_limit)
                    .cloned()
                    .collect();
                ctx.send(
                    leader,
                    PaxosMsg::Submit {
                        entries,
                        decided_upto: self.prefix,
                        committed_upto: self.delivered,
                    },
                );
            }
            // the ack reports our gap, doubles as the cursor report that
            // keeps the leader's watermark fresh, and as a *watermark
            // poll*: while our adopted watermark trails our delivered
            // cursor, it solicits an answer carrying a newer one (see
            // `watermark_poll_owed`)
            ctx.send(
                leader,
                PaxosMsg::DecideAck {
                    upto: self.prefix,
                    committed_upto: self.delivered,
                    stable_upto: self.comp.stable(),
                },
            );
        }

        self.pump_timer = None;
        self.ensure_pump(ctx);
    }
}

/// Pops retired entries off the front of `queue` — an entry is live
/// while its key is in `keys`. Retiring an entry drops only its key, so
/// a decision costs O(1) instead of a scan of the backlog; a retired
/// entry behind a live one is skipped by every reader and leaves once it
/// reaches the front. The queue is thus empty exactly when nothing in
/// it is live.
fn trim_front<M>(queue: &mut VecDeque<Entry<M>>, keys: &HashSet<(ReplicaId, u64)>) {
    while queue.front().is_some_and(|e| !keys.contains(&e.key())) {
        queue.pop_front();
    }
}

/// The live entries of a queue [`trim_front`] keeps, in queue order.
fn live<'a, M>(
    queue: &'a VecDeque<Entry<M>>,
    keys: &'a HashSet<(ReplicaId, u64)>,
) -> impl Iterator<Item = &'a Entry<M>> {
    queue.iter().filter(|e| keys.contains(&e.key()))
}

impl<M: Clone + fmt::Debug> Tob<M> for PaxosTob<M> {
    type Msg = PaxosMsg<M>;

    fn on_start(&mut self, ctx: &mut dyn Context<PaxosMsg<M>>) {
        self.me = Some(ctx.id());
        // A restored endpoint starts with compaction state the live
        // delivery path would have accumulated but `restore` could not:
        // its own delivered cursor (replayed deliveries drain before
        // `me` is known), and a clean truncation point at the restored
        // boundary when the FIFO gate holds nothing back. Without these
        // a cluster that restarts wholesale into a quiet period can
        // never advance its watermark — every replica reports 0 for
        // itself, so the computed minimum stays 0 forever.
        self.comp.note_peer(ctx.id().index(), self.delivered);
        if self.fifo.held_count() == 0 {
            let (fifo, n) = (&self.fifo, self.n);
            self.comp
                .record_clean_point(self.fifo_cursor, self.delivered, || {
                    ReplicaId::all(n).map(|r| fifo.next_seq(r)).collect()
                });
        }
        self.refresh_stable();
        // A restored endpoint forgot which peers acknowledged what it
        // decided: it owes each of them its whole prefix until they ack
        // (a peer that missed those decisions may be the one Ω trusts
        // next, in a group nobody writes to again).
        self.catchup_owed = self.prefix;
        if self.lease_boot_mute {
            self.lease_boot_mute = false;
            if let Some(cfg) = self.lease {
                // one full lease duration on the post-restart clock
                // covers the remainder of any guard the crashed
                // incarnation promised (the clock's rate is a property
                // of the replica and survives the restart)
                self.lease_mute_until = Some(ctx.clock().value() + cfg.duration_us as i64);
            }
        }
        // The endpoint may also already owe the cluster work — a
        // watermark poll, a decided-but-undrained slot, a gap. Pumping
        // is otherwise only armed from message handlers, so if nothing
        // ever arrives the obligation would sit forever: arm it here.
        self.ensure_pump(ctx);
    }

    fn cast(&mut self, seq: u64, payload: M, ctx: &mut dyn Context<PaxosMsg<M>>) {
        let entry = Entry {
            sender: ctx.id(),
            seq,
            payload,
        };
        let leader = ctx.omega();
        if leader == ctx.id() {
            self.enqueue(entry, ctx);
            if matches!(self.role, Role::Follower) {
                self.start_prepare(ctx);
            }
        } else {
            ctx.send(
                leader,
                PaxosMsg::Submit {
                    entries: vec![entry.clone()],
                    decided_upto: self.prefix,
                    committed_upto: self.delivered,
                },
            );
            // keep a local copy in pending so the pump retries
            if !self.is_known(entry.key()) {
                self.pending_keys.insert(entry.key());
                self.pending.push_back(entry);
            }
            self.ensure_pump(ctx);
        }
    }

    fn ensure(
        &mut self,
        sender: ReplicaId,
        seq: u64,
        payload: M,
        ctx: &mut dyn Context<PaxosMsg<M>>,
    ) {
        let entry = Entry {
            sender,
            seq,
            payload,
        };
        if !self.is_known(entry.key()) {
            // Relayed entries are *not* proposed inline: the origin's own
            // Submit (or our next pump tick) drives them. This keeps the
            // relay a safety net rather than a second proposal path that
            // could overtake the origin's submissions.
            self.standby_keys.insert(entry.key());
            self.standby.push_back(entry);
            self.ensure_pump(ctx);
        }
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: PaxosMsg<M>,
        ctx: &mut dyn Context<PaxosMsg<M>>,
    ) -> Vec<TobDelivery<M>> {
        // acks are sent after the delivery drain below, so the delivered
        // cursor they piggyback reflects the batch this message produced
        let mut ack_to: Option<ReplicaId> = None;
        match msg {
            PaxosMsg::Submit {
                entries,
                decided_upto,
                committed_upto,
            } => {
                self.note_peer_decided(from, decided_upto);
                self.note_peer_delivered(from, committed_upto);
                for e in entries {
                    self.enqueue(e, ctx);
                }
                // help a lagging submitter catch up
                if decided_upto < self.prefix {
                    self.send_catchup(from, decided_upto, ctx);
                }
            }
            PaxosMsg::Prepare {
                ballot,
                decided_upto,
            } => {
                if ballot < self.promised {
                    ctx.send(
                        from,
                        PaxosMsg::Nack {
                            promised: self.promised,
                        },
                    );
                } else if ballot > self.promised && !self.lease_blocks(ballot.leader, ctx) {
                    self.promise(ballot);
                    if !matches!(self.role, Role::Follower) {
                        self.step_down();
                    }
                    let mut accepted: Vec<(u64, Ballot, Entry<M>)> = self
                        .accepted
                        .iter()
                        .map(|(s, (b, e))| (*s, *b, e.clone()))
                        .collect();
                    // Decided slots are final: report them too, at the
                    // promising ballot so they win the candidate's merge
                    // against any (necessarily lower-ballot, possibly
                    // stale) plain acceptance. A recovered acceptor's
                    // accepted map lacks acceptances pruned by a
                    // snapshot (only undecided ones are snapshotted);
                    // without this a new leader that missed a decided
                    // slot could propose a *fresh value into it* and
                    // split the committed order. Found by the DST
                    // harness (crash-recovery + leader-change schedule
                    // diverged at the first such slot). Only slots at or
                    // above the candidate's own contiguous prefix are
                    // reported — it already holds everything below — so
                    // the promise stays proportional to the gap.
                    for (slot, e) in self.decided.range(decided_upto..) {
                        accepted.push((*slot, ballot, e.clone()));
                    }
                    ctx.send(
                        from,
                        PaxosMsg::Promise {
                            ballot,
                            accepted,
                            decided_upto: self.prefix,
                            committed_upto: self.delivered,
                        },
                    );
                }
                self.ensure_pump(ctx);
            }
            PaxosMsg::Promise {
                ballot,
                accepted,
                decided_upto,
                committed_upto,
            } => {
                self.note_peer_decided(from, decided_upto);
                self.note_peer_delivered(from, committed_upto);
                if let Role::Preparing {
                    ballot: my_ballot,
                    promises,
                } = &mut self.role
                {
                    if *my_ballot == ballot {
                        promises.insert(from, accepted);
                        self.maybe_finish_prepare(ctx);
                    }
                }
            }
            PaxosMsg::Accept {
                ballot,
                slot,
                entry,
            } => {
                if ballot < self.promised {
                    ctx.send(
                        from,
                        PaxosMsg::Nack {
                            promised: self.promised,
                        },
                    );
                } else if !self.lease_blocks(ballot.leader, ctx) {
                    self.promise(ballot);
                    self.record_accept(slot, ballot, &entry);
                    ctx.send(ballot.leader, PaxosMsg::Accepted { ballot, slot });
                    // every acceptor is a learner: the leader accepted
                    // before it sent this (durably — its host syncs
                    // before frames leave), so with our own acceptance
                    // two acceptors hold the value. Where two make a
                    // quorum (n ≤ 3) the slot is chosen: learn it now
                    // instead of two hops later from the `Decide`. The
                    // leader still needs our `Accepted`, and its
                    // `Decide` still comes (a re-learn is a no-op).
                    if 2 >= self.quorum() {
                        self.learn(slot, entry.clone());
                    }
                    self.accepted.insert(slot, (ballot, entry));
                }
            }
            PaxosMsg::Nack { promised } => {
                let ours = match &self.role {
                    Role::Leading { ballot } | Role::Preparing { ballot, .. } => Some(*ballot),
                    Role::Follower => None,
                };
                if ours.is_some_and(|b| b < promised) {
                    // adopt the ballot the cluster moved to, so our next
                    // candidacy (the pump's, while Ω trusts us) outbids it
                    self.promise(promised);
                    self.step_down();
                    self.ensure_pump(ctx);
                }
            }
            PaxosMsg::Accepted { ballot, slot } => {
                if let Role::Leading { ballot: my_ballot } = self.role {
                    if my_ballot == ballot {
                        if let Some((_, acks)) = self.inflight.get_mut(&slot) {
                            acks.insert(from);
                        }
                        self.check_decided(slot, ctx);
                        // a decision freed window space: refill it (the
                        // unbounded default skips the pending rescan —
                        // everything castable was proposed on arrival)
                        if self.config.max_inflight != usize::MAX {
                            self.try_propose(ctx);
                        }
                    }
                }
            }
            PaxosMsg::Decide {
                slot,
                entry,
                stable_upto,
            } => {
                self.note_stable_upto(stable_upto);
                self.learn(slot, entry);
                ack_to = Some(from);
                self.ensure_pump(ctx);
            }
            PaxosMsg::DecideAck {
                upto,
                committed_upto,
                stable_upto,
            } => {
                self.note_peer_decided(from, upto);
                self.note_peer_delivered(from, committed_upto);
                if upto < self.prefix {
                    self.send_catchup(from, upto, ctx);
                } else if stable_upto < self.comp.stable() {
                    // watermark poll: the sender has delivered everything
                    // it knows of but its adopted watermark is stale —
                    // answer with ours (an empty catch-up), so the final
                    // speculation window compacts at quiescence. The
                    // exchange is retried by the sender's pump until its
                    // watermark catches up, so a lost poll or a lost
                    // answer delays it by one pump period, never wedges.
                    ctx.send(
                        from,
                        PaxosMsg::Catchup {
                            first: self.prefix,
                            entries: Vec::new(),
                            stable_upto: self.comp.stable(),
                            floor: self.comp.floor.slot_floor,
                        },
                    );
                }
            }
            PaxosMsg::Catchup {
                first,
                entries,
                stable_upto,
                floor,
            } => {
                self.note_stable_upto(stable_upto);
                if floor > self.prefix && floor > self.comp.floor.slot_floor {
                    // the sender has compacted past our prefix: the slots
                    // we are missing no longer exist as replayable
                    // history — only a baseline state transfer can help
                    self.baseline_from = Some(from);
                }
                // an empty batch is a watermark answer: acking it would
                // poll again, and with acceptors delivering ahead of the
                // leader the answer is always fresh — a loop for as long
                // as load lasts. The pump's next `DecideAck` polls if a
                // poll is still owed.
                let shipped = !entries.is_empty();
                for (k, e) in entries.into_iter().enumerate() {
                    self.learn(first + k as u64, e);
                }
                if shipped && self.prefix > 0 {
                    ack_to = Some(from);
                }
                self.ensure_pump(ctx);
            }
            PaxosMsg::LeaseGrant {
                ballot,
                grant,
                duration_us,
            } => {
                // Guard only at our exactly-promised ballot: a promise to
                // any other candidate after this grant was cut means the
                // granting leader can no longer count on us, and a guard
                // would fence the wrong leadership. `lease_blocks` keeps
                // a live guard for a *different* holder (or a post-
                // restart mute) from being overwritten.
                if self.lease.is_some()
                    && ballot == self.promised
                    && ballot.leader == from
                    && !self.lease_blocks(from, ctx)
                {
                    let now = ctx.clock().value();
                    self.lease_guard_leader = Some(from);
                    self.lease_guard_until = self.lease_guard_until.max(now + duration_us as i64);
                    ctx.send(
                        from,
                        PaxosMsg::LeaseAck {
                            ballot,
                            grant,
                            clock: now,
                        },
                    );
                }
            }
            PaxosMsg::LeaseAck {
                ballot,
                grant,
                clock,
            } => {
                if let (Some(cfg), Role::Leading { ballot: my_ballot }) = (self.lease, &self.role) {
                    if *my_ballot == ballot && grant == self.lease_grant_no {
                        let now = ctx.clock().value();
                        let (dur, eps) = (cfg.duration_us as i128, cfg.epsilon_us as i128);
                        // Count the follower only when the delay-immune
                        // over-estimate of its clock rate stays within
                        // the epsilon margin (see the lease notes above):
                        // our interval [prev ack receipt, this grant's
                        // send] is covered by the follower's measurement
                        // interval, so df/dl ≥ rate_f/rate_l never
                        // under-reports a fast follower clock.
                        if let Some((f_prev, l_prev)) = self.lease_calib[from.index()] {
                            let df = (clock - f_prev) as i128;
                            let dl = (self.lease_grant_sent - l_prev) as i128;
                            if df >= 0 && dl > 0 && df * (dur - eps) <= dl * dur {
                                self.lease_counted.insert(from);
                                if self.lease_counted.len() >= self.quorum() {
                                    self.lease_valid_until = self
                                        .lease_valid_until
                                        .max(self.lease_grant_sent + (dur - eps) as i64);
                                }
                            }
                        }
                        // the echoed clock was read before this ack's
                        // arrival regardless of reordering, so the pair
                        // is a sound future calibration point; keep the
                        // newest follower reading
                        if self.lease_calib[from.index()].is_none_or(|(f, _)| clock > f) {
                            self.lease_calib[from.index()] = Some((clock, now));
                        }
                    }
                }
            }
        }
        let out = self.drain_deliveries();
        if let Some(to) = ack_to {
            ctx.send(
                to,
                PaxosMsg::DecideAck {
                    upto: self.prefix,
                    committed_upto: self.delivered,
                    stable_upto: self.comp.stable(),
                },
            );
        }
        // a drain (or a cursor report that advanced the watermark) may
        // have left idle-time compaction work owed — make sure the pump
        // comes back for it even if this message armed nothing else
        self.ensure_pump(ctx);
        out
    }

    fn on_timer(
        &mut self,
        timer: TimerId,
        ctx: &mut dyn Context<PaxosMsg<M>>,
    ) -> Vec<TobDelivery<M>> {
        if self.pump_timer == Some(timer) {
            self.pump(ctx);
        }
        self.drain_deliveries()
    }

    fn owns_timer(&self, timer: TimerId) -> bool {
        self.pump_timer == Some(timer)
    }

    fn delivered_count(&self) -> u64 {
        self.delivered
    }

    fn set_durable(&mut self, on: bool) {
        self.durable_on = on;
        if !on {
            self.durable.clear();
        }
    }

    fn set_lease(&mut self, config: Option<LeaseConfig>) {
        self.lease = config;
        if config.is_none() {
            self.lease_drop_leadership();
            self.lease_guard_leader = None;
            self.lease_mute_until = None;
        }
    }

    fn lease_read_index(&self, now: Timestamp) -> Option<u64> {
        self.lease_held(now).then_some(self.next_slot)
    }

    fn lease_ready(&mut self, now: Timestamp, index: u64) -> bool {
        self.lease_held(now)
            // every slot below the read's index — decided under prior
            // leaders or proposed by us — is delivered into the
            // committed state
            && self.prefix >= index
            && self.fifo_cursor >= self.prefix
            && self.fifo.held_count() == 0
    }

    fn drain_durable(&mut self, out: &mut Vec<TobEvent<M>>) {
        out.append(&mut self.durable);
    }

    fn durable_image(&self, slot_floor: u64) -> Vec<TobEvent<M>> {
        let promised = TobEvent::Promised {
            round: self.promised.round,
            leader: self.promised.leader,
        };
        let accepted = self
            .accepted
            .range(slot_floor..)
            .filter(|(slot, _)| !self.decided.contains_key(slot))
            .map(|(slot, (b, e))| TobEvent::Accepted {
                slot: *slot,
                round: b.round,
                leader: b.leader,
                sender: e.sender,
                seq: e.seq,
                payload: e.payload.clone(),
            });
        let decided = (self.truncated.range(slot_floor..))
            .chain(self.decided.range(slot_floor..))
            .map(|(slot, e)| TobEvent::Decided {
                slot: *slot,
                sender: e.sender,
                seq: e.seq,
                payload: e.payload.clone(),
            });
        std::iter::once(promised)
            .chain(accepted)
            .chain(decided)
            .collect()
    }

    fn release_decided(&mut self, slot_floor: u64) {
        if (self.truncated.first_key_value()).is_some_and(|(slot, _)| *slot < slot_floor) {
            self.truncated = self.truncated.split_off(&slot_floor);
        }
    }

    fn stable_delivered(&self) -> u64 {
        self.comp.floor.delivered
    }

    fn baseline_mark(&self) -> Option<&BaselineMark> {
        Some(&self.comp.floor)
    }

    fn install_baseline(&mut self, mark: &BaselineMark) {
        if mark.delivered < self.delivered
            || (mark.delivered == self.delivered && mark.slot_floor <= self.comp.floor.slot_floor)
        {
            return; // stale (or zero) mark: we are already past it
        }
        // an equal-delivered mark with a *higher slot floor* is not stale:
        // trailing slots that produced no deliveries (duplicate decisions)
        // coalesce clean points differently across replicas, and a
        // replica whose own floor stopped short of such a slot can never
        // replay it (everyone else truncated it) — only the mark can
        // carry it over. Found by the DST harness (prefix wedged forever
        // at a truncated no-delivery slot).
        self.decided = self.decided.split_off(&mark.slot_floor);
        self.truncated = self.truncated.split_off(&mark.slot_floor);
        self.accepted = self.accepted.split_off(&mark.slot_floor);
        for s in ReplicaId::all(self.n) {
            self.fifo.fast_forward(s, mark.next_for(s));
        }
        self.decided_keys.retain(|(s, q)| *q >= mark.next_for(*s));
        // entries we were still trying to get ordered may be part of the
        // installed prefix now — drop them by their cast cursor
        self.pending.retain(|e| e.seq >= mark.next_for(e.sender));
        self.standby.retain(|e| e.seq >= mark.next_for(e.sender));
        self.pending_keys.retain(|(s, q)| *q >= mark.next_for(*s));
        self.standby_keys.retain(|(s, q)| *q >= mark.next_for(*s));
        trim_front(&mut self.pending, &self.pending_keys);
        trim_front(&mut self.standby, &self.standby_keys);
        self.fifo_cursor = self.fifo_cursor.max(mark.slot_floor);
        self.prefix = self.prefix.max(mark.slot_floor);
        while self.decided.contains_key(&self.prefix) {
            self.prefix += 1;
        }
        self.delivered = mark.delivered;
        self.next_slot = self.next_slot.max(mark.slot_floor);
        self.comp.install(mark, self.me.map(|m| m.index()));
        self.baseline_from = None;
    }

    fn take_baseline_needed(&mut self) -> Option<ReplicaId> {
        self.baseline_from.take()
    }

    fn released_seq(&self, sender: ReplicaId) -> u64 {
        self.fifo.next_seq(sender)
    }

    fn is_decided(&self, sender: ReplicaId, seq: u64) -> bool {
        self.key_decided((sender, seq))
    }

    fn retained_keys(&self) -> usize {
        self.decided_keys.len()
            + self.pending_keys.len()
            + self.standby_keys.len()
            + self.proposed_keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_sim::{NetworkConfig, Partition, PartitionSchedule, Sim, SimConfig, Stability};
    use bayou_types::Process;

    /// A process exposing one PaxosTob over `String` payloads.
    #[derive(Debug)]
    struct TobProc {
        tob: PaxosTob<String>,
        next_seq: u64,
        delivered: Vec<TobDelivery<String>>,
        out: Vec<String>,
    }

    impl TobProc {
        fn new(n: usize) -> Self {
            TobProc {
                tob: PaxosTob::with_defaults(n),
                next_seq: 0,
                delivered: Vec::new(),
                out: Vec::new(),
            }
        }
    }

    impl Process for TobProc {
        type Msg = PaxosMsg<String>;
        type Input = String;
        type Output = String;

        fn on_message(
            &mut self,
            from: ReplicaId,
            msg: PaxosMsg<String>,
            ctx: &mut dyn Context<PaxosMsg<String>>,
        ) {
            for d in self.tob.on_message(from, msg, ctx) {
                self.out.push(d.payload.clone());
                self.delivered.push(d);
            }
        }

        fn on_timer(&mut self, t: TimerId, ctx: &mut dyn Context<PaxosMsg<String>>) {
            if self.tob.owns_timer(t) {
                for d in self.tob.on_timer(t, ctx) {
                    self.out.push(d.payload.clone());
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
            std::mem::take(&mut self.out)
        }
    }

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    fn orders_of(sim: &Sim<TobProc>, n: usize) -> Vec<Vec<String>> {
        ReplicaId::all(n)
            .map(|r| {
                sim.process(r)
                    .delivered
                    .iter()
                    .map(|d| d.payload.clone())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_replicas_deliver_same_total_order() {
        let n = 3;
        let cfg = SimConfig::new(n, 21).with_max_time(ms(5_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        for k in 0..9u64 {
            let r = ReplicaId::new((k % n as u64) as u32);
            sim.schedule_input(ms(1 + 7 * k), r, format!("m{k}"));
        }
        sim.run_until(ms(5_000));
        let orders = orders_of(&sim, n);
        assert_eq!(orders[0].len(), 9, "all 9 delivered: {:?}", orders[0]);
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
        // tob_no is the position
        for r in ReplicaId::all(n) {
            for (i, d) in sim.process(r).delivered.iter().enumerate() {
                assert_eq!(d.tob_no, i as u64);
            }
        }
    }

    #[test]
    fn inflight_window_bounds_pipeline_and_still_delivers_all() {
        let n = 3;
        // a tiny flow-control window: a 20-cast burst must trickle
        // through 2 proposals at a time and still deliver completely,
        // in one total order, with sender FIFO intact
        let config = PaxosConfig {
            max_inflight: 2,
            ..Default::default()
        };
        let cfg = SimConfig::new(n, 77).with_max_time(ms(5_000));
        let mut sim = Sim::new(cfg, move |_| TobProc {
            tob: PaxosTob::new(n, config),
            next_seq: 0,
            delivered: Vec::new(),
            out: Vec::new(),
        });
        for k in 0..20u64 {
            sim.schedule_input(ms(1), ReplicaId::new(0), format!("m{k}"));
        }
        sim.run_until(ms(5_000));
        let orders = orders_of(&sim, n);
        assert_eq!(orders[0].len(), 20, "all delivered: {:?}", orders[0]);
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
        let expected: Vec<String> = (0..20).map(|k| format!("m{k}")).collect();
        assert_eq!(orders[0], expected, "windowed proposals keep FIFO");
    }

    #[test]
    fn sender_fifo_is_respected() {
        let n = 3;
        let cfg = SimConfig::new(n, 33).with_max_time(ms(5_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        // replica 2 casts 5 messages in a burst
        for k in 0..5u64 {
            sim.schedule_input(ms(1), ReplicaId::new(2), format!("r2-{k}"));
        }
        sim.run_until(ms(5_000));
        let order = &orders_of(&sim, n)[0];
        let r2_msgs: Vec<&String> = order.iter().filter(|m| m.starts_with("r2-")).collect();
        let expected: Vec<String> = (0..5).map(|k| format!("r2-{k}")).collect();
        assert_eq!(
            r2_msgs.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            expected.iter().map(|s| s.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partitioned_minority_catches_up_after_heal() {
        let n = 3;
        let net = NetworkConfig {
            partitions: PartitionSchedule::new(vec![Partition::isolate(
                ms(0),
                ms(1_000),
                ReplicaId::new(2),
                n,
            )]),
            ..Default::default()
        };
        let cfg = SimConfig::new(n, 9).with_net(net).with_max_time(ms(6_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        sim.schedule_input(ms(10), ReplicaId::new(0), "a".into());
        sim.schedule_input(ms(20), ReplicaId::new(1), "b".into());
        // the isolated replica casts too; its message must be ordered
        // after the heal
        sim.schedule_input(ms(30), ReplicaId::new(2), "c".into());
        sim.run_until(ms(6_000));
        let orders = orders_of(&sim, n);
        assert_eq!(orders[0].len(), 3, "got {:?}", orders[0]);
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
    }

    #[test]
    fn no_progress_without_quorum() {
        let n = 3;
        // all three replicas isolated from each other, forever (within the
        // horizon)
        let net = NetworkConfig {
            partitions: PartitionSchedule::new(vec![Partition::new(
                ms(0),
                ms(100_000),
                vec![
                    vec![ReplicaId::new(0)],
                    vec![ReplicaId::new(1)],
                    vec![ReplicaId::new(2)],
                ],
            )]),
            ..Default::default()
        };
        let cfg = SimConfig::new(n, 9)
            .with_net(net)
            .with_stability(Stability::Asynchronous)
            .with_max_time(ms(3_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        sim.schedule_input(ms(10), ReplicaId::new(0), "x".into());
        sim.run_until(ms(3_000));
        for r in ReplicaId::all(n) {
            assert!(
                sim.process(r).delivered.is_empty(),
                "no delivery without a quorum"
            );
        }
    }

    #[test]
    fn survives_leader_crash() {
        let n = 3;
        // R0 is the initial leader; it crashes after the first message is
        // decided. Ω (stable) then nominates R1.
        let cfg = SimConfig::new(n, 14)
            .with_crash(ms(500), ReplicaId::new(0))
            .with_max_time(ms(8_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        sim.schedule_input(ms(10), ReplicaId::new(1), "pre".into());
        sim.schedule_input(ms(1_000), ReplicaId::new(2), "post".into());
        sim.run_until(ms(8_000));
        for r in [ReplicaId::new(1), ReplicaId::new(2)] {
            let order: Vec<String> = sim
                .process(r)
                .delivered
                .iter()
                .map(|d| d.payload.clone())
                .collect();
            assert_eq!(order, vec!["pre".to_string(), "post".to_string()]);
        }
    }

    #[test]
    fn single_replica_cluster_decides_immediately() {
        let cfg = SimConfig::new(1, 4).with_max_time(ms(2_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(1));
        sim.schedule_input(ms(1), ReplicaId::new(0), "solo".into());
        sim.run_until(ms(2_000));
        let d = &sim.process(ReplicaId::new(0)).delivered;
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, "solo");
        assert_eq!(d[0].tob_no, 0);
    }

    #[test]
    fn ballots_order_lexicographically() {
        let a = Ballot {
            round: 1,
            leader: ReplicaId::new(2),
        };
        let b = Ballot {
            round: 2,
            leader: ReplicaId::new(0),
        };
        assert!(a < b);
        let c = Ballot {
            round: 1,
            leader: ReplicaId::new(3),
        };
        assert!(a < c);
        assert_eq!(a.to_string(), "b1.R2");
    }

    #[test]
    fn durable_event_replay_reconstructs_the_endpoint() {
        let n = 3;
        let cfg = SimConfig::new(n, 21).with_max_time(ms(5_000));
        let mut sim = Sim::new(cfg, move |_| {
            let mut p = TobProc::new(n);
            p.tob.set_durable(true);
            p
        });
        for k in 0..9u64 {
            let r = ReplicaId::new((k % n as u64) as u32);
            sim.schedule_input(ms(1 + 7 * k), r, format!("m{k}"));
        }
        sim.run_until(ms(5_000));
        let mut procs = sim.into_processes();
        let p0 = &mut procs[0];
        let decided = p0.tob.decided_log();
        let delivered = p0.tob.delivered_count();
        let mut events = Vec::new();
        p0.tob.drain_durable(&mut events);
        assert!(!events.is_empty(), "durable events were recorded");

        // the image a snapshot takes restores the same endpoint
        let mut from_image = PaxosTob::<String>::with_defaults(n);
        from_image.restore(p0.tob.durable_image(0));
        assert_eq!(from_image.decided_log(), decided, "image: decided log");
        assert_eq!(from_image.delivered_count(), delivered, "image: cursor");

        let mut fresh = PaxosTob::<String>::with_defaults(n);
        let replayed = fresh.restore(events);
        assert_eq!(fresh.decided_log(), decided, "decided log restored");
        assert_eq!(fresh.delivered_count(), delivered, "FIFO cursor restored");
        let orig: Vec<_> = p0
            .delivered
            .iter()
            .map(|d| (d.sender, d.seq, d.tob_no, d.payload.clone()))
            .collect();
        let rep: Vec<_> = replayed
            .iter()
            .map(|d| (d.sender, d.seq, d.tob_no, d.payload.clone()))
            .collect();
        assert_eq!(orig, rep, "restore yields the original delivery order");
    }

    #[test]
    fn durability_disabled_records_nothing() {
        let n = 3;
        let cfg = SimConfig::new(n, 5).with_max_time(ms(3_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        sim.schedule_input(ms(1), ReplicaId::new(0), "x".into());
        sim.run_until(ms(3_000));
        let mut procs = sim.into_processes();
        let mut events = Vec::new();
        procs[0].tob.drain_durable(&mut events);
        assert!(events.is_empty());
    }

    /// A hand-driven endpoint context: sends queue up for the test to
    /// route, timers are recorded, and Ω is whatever the test says.
    struct Hand {
        me: ReplicaId,
        trusts: ReplicaId,
        sent: Vec<(ReplicaId, PaxosMsg<String>)>,
        timers: Vec<TimerId>,
    }

    impl Context<PaxosMsg<String>> for Hand {
        fn id(&self) -> ReplicaId {
            self.me
        }
        fn cluster_size(&self) -> usize {
            3
        }
        fn now(&self) -> VirtualTime {
            VirtualTime::ZERO
        }
        fn clock(&mut self) -> bayou_types::Timestamp {
            bayou_types::Timestamp::new(0)
        }
        fn send(&mut self, to: ReplicaId, msg: PaxosMsg<String>) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: VirtualTime) -> TimerId {
            let t = TimerId::new(self.timers.len() as u64 + 1);
            self.timers.push(t);
            t
        }
        fn random(&mut self) -> u64 {
            0
        }
        fn omega(&mut self) -> ReplicaId {
            self.trusts
        }
    }

    /// Three endpoints routed by hand until nothing moves: messages
    /// (dropped when `cut` separates their endpoints), then each
    /// endpoint's armed pump. Returns every endpoint's deliveries.
    fn settle(
        tobs: &mut [PaxosTob<String>],
        ctxs: &mut [Hand],
        cut: &dyn Fn(ReplicaId, ReplicaId) -> bool,
    ) -> Vec<Vec<String>> {
        let mut out = vec![Vec::new(); tobs.len()];
        for _ in 0..8 {
            while let Some((from, to, msg)) = ctxs
                .iter_mut()
                .find_map(|c| c.sent.pop().map(|(to, m)| (c.me, to, m)))
            {
                if !cut(from, to) {
                    let ds = tobs[to.index()].on_message(from, msg, &mut ctxs[to.index()]);
                    out[to.index()].extend(ds.into_iter().map(|d| d.payload));
                }
            }
            for (i, tob) in tobs.iter_mut().enumerate() {
                for t in std::mem::take(&mut ctxs[i].timers) {
                    if tob.owns_timer(t) {
                        let ds = tob.on_timer(t, &mut ctxs[i]);
                        out[i].extend(ds.into_iter().map(|d| d.payload));
                    }
                }
            }
        }
        out
    }

    /// A leader that missed a higher ballot's `Prepare` while cut off,
    /// and that Ω trusts again, learns the ballot from the acceptors'
    /// `Nack`s and outbids it — instead of retransmitting `Accept`s the
    /// acceptors ignore, forever (the grouped DST's non-quiescing seeds
    /// 513 and 5485).
    #[test]
    fn stale_leader_is_nacked_and_outbids_the_newer_ballot() {
        let (r0, r2) = (ReplicaId::new(0), ReplicaId::new(2));
        let mut tobs: Vec<PaxosTob<String>> = (0..3).map(|_| PaxosTob::with_defaults(3)).collect();
        let mut ctxs: Vec<Hand> = ReplicaId::all(3)
            .map(|me| Hand {
                me,
                trusts: r2,
                sent: Vec::new(),
                timers: Vec::new(),
            })
            .collect();
        let never = |_: ReplicaId, _: ReplicaId| false;

        // r2 leads and orders "a"
        tobs[2].cast(0, "a".into(), &mut ctxs[2]);
        let mut delivered = settle(&mut tobs, &mut ctxs, &never);

        // r2 is cut off while the others trust r0, which outbids r2's
        // ballot and orders "b"; r2 still believes it leads
        ctxs[0].trusts = r0;
        ctxs[1].trusts = r0;
        tobs[0].cast(0, "b".into(), &mut ctxs[0]);
        let cut_off = settle(&mut tobs, &mut ctxs, &|a, b| a == r2 || b == r2);
        assert!(cut_off[2].is_empty());

        // healed, and Ω trusts r2 again: its next proposal still carries
        // the old ballot, the acceptors refuse it, and only the refusal
        // can tell r2 to start a higher one
        ctxs[0].trusts = r2;
        ctxs[1].trusts = r2;
        tobs[2].cast(1, "c".into(), &mut ctxs[2]);
        let healed = settle(&mut tobs, &mut ctxs, &never);
        for ((all, cut), heal) in delivered.iter_mut().zip(cut_off).zip(healed) {
            all.extend(cut.into_iter().chain(heal));
        }
        assert_eq!(delivered, vec![vec!["a", "b", "c"]; 3]);
    }

    /// A leader that steps down keeps shipping the catch-up it owes: a
    /// strong-only group (no reliable broadcast to relay the payload)
    /// whose one decision a cut-off replica missed, and whose lane Ω then
    /// moves to that replica, goes idle — only the former leader knows
    /// the new one lags (the grouped DST's diverging seeds 7894, 12692).
    #[test]
    fn stepped_down_leader_still_catches_up_the_laggard() {
        let (r0, r2) = (ReplicaId::new(0), ReplicaId::new(2));
        let mut tobs: Vec<PaxosTob<String>> = (0..3).map(|_| PaxosTob::with_defaults(3)).collect();
        let mut ctxs: Vec<Hand> = ReplicaId::all(3)
            .map(|me| Hand {
                me,
                trusts: r0,
                sent: Vec::new(),
                timers: Vec::new(),
            })
            .collect();

        // r0 orders "a" with r1 while r2 is cut off
        tobs[0].cast(0, "a".into(), &mut ctxs[0]);
        let cut_off = settle(&mut tobs, &mut ctxs, &|a, b| a == r2 || b == r2);
        assert_eq!(cut_off[2], Vec::<String>::new());

        // healed, Ω now trusts r2, and nothing else is ever cast
        for c in &mut ctxs {
            c.trusts = r2;
        }
        let healed = settle(&mut tobs, &mut ctxs, &|_, _| false);
        assert_eq!(healed[2], ["a"]);
    }

    /// Every acceptor is a learner: where the leader and one acceptor
    /// make a quorum (n ≤ 3), an acceptor delivers a slot on its `Accept`
    /// alone, before any `Decide` reaches it. With n = 5 the two are no
    /// quorum, and the acceptor waits for the leader's `Decide`.
    #[test]
    fn an_acceptor_learns_on_accept_where_two_make_a_quorum() {
        let (r0, r1) = (ReplicaId::new(0), ReplicaId::new(1));
        for (n, learns) in [(3, true), (5, false)] {
            let mut tobs: Vec<PaxosTob<String>> =
                (0..n).map(|_| PaxosTob::with_defaults(n)).collect();
            let mut ctxs: Vec<Hand> = ReplicaId::all(n)
                .map(|me| Hand {
                    me,
                    trusts: r0,
                    sent: Vec::new(),
                    timers: Vec::new(),
                })
                .collect();
            // r0 wins the ballot and orders "a" everywhere
            tobs[0].cast(0, "a".into(), &mut ctxs[0]);
            let delivered = settle(&mut tobs, &mut ctxs, &|_, _| false);
            assert_eq!(delivered[1], ["a"], "n = {n}");

            // r0 proposes "b": r1 gets its `Accept` and nothing else
            tobs[0].cast(1, "b".into(), &mut ctxs[0]);
            let accept = ctxs[0]
                .sent
                .iter()
                .find(|(to, m)| *to == r1 && matches!(m, PaxosMsg::Accept { .. }))
                .map(|(_, m)| m.clone())
                .expect("the leader sends r1 an Accept");
            let got: Vec<String> = tobs[1]
                .on_message(r0, accept, &mut ctxs[1])
                .into_iter()
                .map(|d| d.payload)
                .collect();
            let want: &[&str] = if learns { &["b"] } else { &[] };
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn duplicate_submissions_decide_once() {
        let n = 3;
        let cfg = SimConfig::new(n, 77).with_max_time(ms(4_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        sim.schedule_input(ms(5), ReplicaId::new(1), "only".into());
        sim.run_until(ms(4_000));
        for r in ReplicaId::all(n) {
            let count = sim
                .process(r)
                .delivered
                .iter()
                .filter(|d| d.payload == "only")
                .count();
            assert_eq!(count, 1, "exactly-once delivery at {r}");
        }
    }
}
