//! The Total Order Broadcast abstraction.

use bayou_types::{
    Context, LeaseConfig, ReplicaId, TimerId, Timestamp, Wire, WireError, WireReader,
};
use std::fmt;

/// A message delivered by Total Order Broadcast.
///
/// `tob_no` is the paper's `tobNo(m)`: the global delivery index, equal on
/// every replica for the same message. `(sender, seq)` identifies the
/// broadcast: `seq` is the dense per-sender TOB-cast counter that the FIFO
/// guarantee is defined over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TobDelivery<M> {
    /// The replica that TOB-cast the message.
    pub sender: ReplicaId,
    /// The sender's dense TOB-cast sequence number (0-based).
    pub seq: u64,
    /// Global delivery index (0-based), identical on all replicas.
    pub tob_no: u64,
    /// The payload.
    pub payload: M,
}

/// Total Order Broadcast, as required by the paper (§2.1 and A.2.1):
///
/// * **Total order & agreement** — all replicas deliver the same messages
///   in the same order (safety, in *all* runs).
/// * **Sender FIFO** — deliveries respect the order in which each replica
///   TOB-cast its messages.
/// * **Relay guarantee** — if a message was both RB-cast and TOB-cast by
///   some (possibly faulty) replica and RB-delivered by a correct
///   replica, then all correct replicas eventually TOB-deliver it: any
///   replica holding the payload may call [`Tob::ensure`] to take over
///   dissemination.
/// * **Liveness only in stable runs** — progress requires the Ω failure
///   detector to stabilise; in asynchronous runs `cast` may never lead to
///   a delivery (which is exactly how the paper's Theorem 3 run plays
///   out).
///
/// Implementations are embedded components: the owner routes messages and
/// timers to them and forwards the returned [`TobDelivery`] batches.
pub trait Tob<M: Clone + fmt::Debug> {
    /// Wire message type of the implementation.
    type Msg: Clone + fmt::Debug;

    /// Called once when the owning replica starts.
    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>);

    /// TOB-casts a payload with the caller's dense per-sender sequence
    /// number `seq` (the caller maintains the counter; numbers must start
    /// at 0 and increase by exactly 1 per cast).
    fn cast(&mut self, seq: u64, payload: M, ctx: &mut dyn Context<Self::Msg>);

    /// Takes over dissemination of another replica's broadcast (e.g.
    /// after RB-delivering its payload), making the relay guarantee hold
    /// even when the origin crashes or is partitioned away.
    fn ensure(&mut self, sender: ReplicaId, seq: u64, payload: M, ctx: &mut dyn Context<Self::Msg>);

    /// Handles a protocol message; returns TOB-deliveries in order.
    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: Self::Msg,
        ctx: &mut dyn Context<Self::Msg>,
    ) -> Vec<TobDelivery<M>>;

    /// Handles a timer fire (only called when [`Tob::owns_timer`] is
    /// true); may produce deliveries.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Self::Msg>)
        -> Vec<TobDelivery<M>>;

    /// Whether `timer` was armed by this component.
    fn owns_timer(&self, timer: TimerId) -> bool;

    /// Whether handling `msg` advances agreement on a payload for which
    /// `pred` holds — so whatever the handler sends is on that payload's
    /// critical path. Asked *before* [`Tob::on_message`] (which may
    /// retire the state the answer depends on); the owner flushes such a
    /// step's frames at once instead of deferring them. Default `false`:
    /// every step may defer.
    fn advances(&self, msg: &Self::Msg, pred: &dyn Fn(&M) -> bool) -> bool {
        let _ = (msg, pred);
        false
    }

    /// Number of messages TOB-delivered so far (the next `tob_no`).
    fn delivered_count(&self) -> u64;

    /// Enables (or disables) accumulation of durable state transitions.
    ///
    /// When enabled, every state change that must survive a crash for the
    /// implementation to stay safe across restarts — in Paxos: promises,
    /// acceptances and decisions — is recorded as a [`TobEvent`] and held
    /// until [`Tob::drain_durable`] collects it. Disabled by default so
    /// non-durable deployments pay nothing. Implementations with no
    /// durable state (e.g. a null TOB) may ignore this.
    fn set_durable(&mut self, on: bool) {
        let _ = on;
    }

    /// Enables (or disables) the leader lease: when configured, the
    /// implementation maintains a time-bounded, quorum-acknowledged
    /// lease for the current leader so the owner can serve linearizable
    /// reads locally from committed state (see [`Tob::lease_ready`]).
    /// Disabled by default; implementations without a leader (e.g. a
    /// null TOB) may ignore it — their `lease_ready` stays `false` and
    /// every strong read takes the full broadcast round.
    fn set_lease(&mut self, config: Option<LeaseConfig>) {
        let _ = config;
    }

    /// Whether this endpoint currently holds a valid leader lease *and*
    /// has delivered every message decided up to its leadership barrier,
    /// so a strong read served from the owner's committed state at local
    /// clock `now` is linearizable. Always `false` by default.
    fn lease_ready(&mut self, now: Timestamp) -> bool {
        let _ = now;
        false
    }

    /// Drains the durable state transitions recorded since the last call.
    ///
    /// The owner is expected to call this after every interaction
    /// ([`Tob::cast`], [`Tob::ensure`], [`Tob::on_message`],
    /// [`Tob::on_timer`]) and write the events to its write-ahead log
    /// *within the same atomic handler step*, so the durable state is on
    /// disk before any message produced by the step leaves the replica.
    fn drain_durable(&mut self) -> Vec<TobEvent<M>> {
        Vec::new()
    }

    // ---- committed-prefix compaction -----------------------------------
    //
    // The methods below implement the distributed agreement on *when*
    // committed history may be dropped. Every replica piggybacks its
    // contiguous delivered cursor on the traffic it already sends; each
    // endpoint computes the *globally-stable watermark* — the minimum
    // cursor across all replicas — below which every replica has
    // (durably, when persistence is on) delivered the identical prefix.
    // Payloads below the watermark can never be needed for catch-up
    // between current replicas, so the implementation truncates its
    // decided log there and exposes the floor as a [`BaselineMark`]. A
    // replica that nonetheless asks for history below the floor (it lost
    // its disk) is served a *baseline* — a state instead of a replay —
    // through the owner (see `bayou_core::BayouMsg::Baseline`).
    //
    // All methods default to "no compaction" so implementations without
    // durable history (e.g. a null TOB) need not care.

    /// Enables (or disables) committed-prefix compaction: cursor
    /// piggybacking, watermark computation and decided-log truncation.
    /// Disabled by default; implementations may ignore it.
    fn set_compaction(&mut self, on: bool) {
        let _ = on;
    }

    /// The compaction floor in delivery space: the number of leading TOB
    /// deliveries that are globally stable *and* have been truncated
    /// from this endpoint's decided log. The owner may drop the payloads
    /// of exactly that committed prefix. Always 0 without compaction.
    fn stable_delivered(&self) -> u64 {
        0
    }

    /// The current compaction floor as an installable mark, or `None`
    /// when the implementation does not compact. Borrowed: the owner
    /// asks on every step and copies it only when the floor moved.
    fn baseline_mark(&self) -> Option<&BaselineMark> {
        None
    }

    /// Fast-forwards this endpoint over a compacted prefix described by
    /// `mark` (recovery from a compact snapshot, or a live baseline
    /// transfer): the decided log below the floor is discarded, the
    /// contiguous prefix, FIFO release cursors and delivery counter jump
    /// to the mark. A stale mark (not past the current state) is a
    /// no-op. Default: ignored.
    fn install_baseline(&mut self, mark: &BaselineMark) {
        let _ = mark;
    }

    /// Takes the peer this endpoint detected it needs a baseline *from*:
    /// set when a catch-up response was clamped at the sender's
    /// compaction floor above our own prefix, meaning the missing slots
    /// no longer exist as replayable history anywhere we can reach. The
    /// owner reacts by requesting a baseline state transfer.
    fn take_baseline_needed(&mut self) -> Option<ReplicaId> {
        None
    }

    /// The next cast sequence number of `sender` that has *not* yet been
    /// FIFO-released by this endpoint: every seq below it was already
    /// TOB-delivered here. Lets the owner drop stale reliable-broadcast
    /// re-deliveries of long-committed requests even after it pruned its
    /// own id sets. Default 0 (nothing released).
    fn released_seq(&self, sender: ReplicaId) -> u64 {
        let _ = sender;
        0
    }

    /// Broadcast keys the endpoint holds in its bookkeeping sets
    /// (decided-but-unreleased, pending, relayed, proposed): a gauge
    /// that stays O(window) rather than growing per broadcast. Default
    /// 0 for implementations without such sets.
    fn retained_keys(&self) -> usize {
        0
    }
}

/// A compaction floor of a Total Order Broadcast endpoint: everything
/// needed to resume (or bootstrap) delivery *above* a truncated prefix.
///
/// The mark is taken at a *clean point* — a contiguously-decided slot
/// boundary at which the sender-FIFO gate held nothing back — so the
/// delivery prefix it describes is exactly the deliveries produced by
/// the truncated slots, and `fifo_next` fully captures the gate state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BaselineMark {
    /// Slots `< slot_floor` are truncated (contiguously decided
    /// everywhere).
    pub slot_floor: u64,
    /// TOB deliveries produced by the truncated slots (the watermark in
    /// delivery space; `tob_no`s `< delivered` are below the floor).
    pub delivered: u64,
    /// Per-sender next expected cast sequence number at the floor.
    pub fifo_next: Vec<u64>,
}

impl BaselineMark {
    /// A zero mark (nothing compacted) for a cluster of `n` replicas.
    pub fn zero(n: usize) -> Self {
        BaselineMark {
            slot_floor: 0,
            delivered: 0,
            fifo_next: vec![0; n],
        }
    }

    /// Whether the mark describes an actually-compacted prefix.
    pub fn is_zero(&self) -> bool {
        self.slot_floor == 0 && self.delivered == 0
    }

    /// The floor cast-sequence cursor for `sender` (0 when the mark's
    /// vector is shorter than the cluster, e.g. a zero mark).
    pub fn next_for(&self, sender: ReplicaId) -> u64 {
        self.fifo_next.get(sender.index()).copied().unwrap_or(0)
    }
}

impl Wire for BaselineMark {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slot_floor.encode(out);
        self.delivered.encode(out);
        self.fifo_next.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BaselineMark {
            slot_floor: u64::decode(r)?,
            delivered: u64::decode(r)?,
            fifo_next: Vec::decode(r)?,
        })
    }
}

/// Shared compaction bookkeeping of a TOB endpoint: per-peer delivered
/// cursors, the stable watermark (max of the locally-computed minimum
/// and any adopted dissemination), clean truncation points and the
/// installed floor. The log truncation itself stays with each
/// implementation (the decided maps differ); everything else lives here
/// once, used by both `PaxosTob` and `SequencerTob`.
#[derive(Debug)]
pub(crate) struct CompactionState {
    /// Whether compaction is enabled on this endpoint.
    pub on: bool,
    /// The installed floor (see [`BaselineMark`]).
    pub floor: BaselineMark,
    peer_delivered: Vec<u64>,
    stable: u64,
    /// Clean points above the floor: `(slot_cursor, delivered,
    /// fifo_next)` boundaries where the FIFO gate held nothing back —
    /// the candidate truncation points, consumed as the watermark
    /// passes them (bounded by the uncompacted window).
    clean_points: std::collections::VecDeque<(u64, u64, Vec<u64>)>,
}

impl CompactionState {
    pub fn new(n: usize) -> Self {
        CompactionState {
            on: false,
            floor: BaselineMark::zero(n),
            peer_delivered: vec![0; n],
            stable: 0,
            clean_points: std::collections::VecDeque::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        if !on {
            self.clean_points.clear();
        }
    }

    /// The watermark as currently known.
    pub fn stable(&self) -> u64 {
        self.stable
    }

    /// Records a peer's (or our own) contiguous delivered cursor.
    pub fn note_peer(&mut self, idx: usize, delivered: u64) {
        if let Some(p) = self.peer_delivered.get_mut(idx) {
            *p = (*p).max(delivered);
        }
    }

    /// Adopts a disseminated watermark; returns whether it advanced.
    pub fn adopt(&mut self, stable_upto: u64) -> bool {
        if self.on && stable_upto > self.stable {
            self.stable = stable_upto;
            true
        } else {
            false
        }
    }

    /// Recomputes the watermark as the minimum cursor across all
    /// replicas (conservative: unheard-from peers count as 0).
    pub fn refresh_min(&mut self) {
        if self.on {
            let min = self.peer_delivered.iter().copied().min().unwrap_or(0);
            self.stable = self.stable.max(min);
        }
    }

    /// Records a clean truncation point (the gate held nothing back
    /// after processing slots `< slot_cursor`); `next` is evaluated
    /// lazily. Consecutive points with the same delivery prefix
    /// coalesce to the highest slot boundary.
    pub fn record_clean_point(
        &mut self,
        slot_cursor: u64,
        delivered: u64,
        next: impl FnOnce() -> Vec<u64>,
    ) {
        if !self.on {
            return;
        }
        match self.clean_points.back_mut() {
            Some(p) if p.1 == delivered => *p = (slot_cursor, delivered, next()),
            _ => self
                .clean_points
                .push_back((slot_cursor, delivered, next())),
        }
    }

    /// Advances the floor to the best clean point at or below the
    /// watermark; returns whether it moved (the caller then truncates
    /// its log below `floor.slot_floor`).
    pub fn advance_floor(&mut self) -> bool {
        let mut chosen = None;
        while let Some(p) = self.clean_points.front() {
            if p.1 <= self.stable {
                chosen = self.clean_points.pop_front();
            } else {
                break;
            }
        }
        let Some((slot, delivered, fifo_next)) = chosen else {
            return false;
        };
        if slot <= self.floor.slot_floor {
            return false;
        }
        self.floor = BaselineMark {
            slot_floor: slot,
            delivered,
            fifo_next,
        };
        true
    }

    /// Installs an externally-provided floor (baseline transfer or
    /// recovery): clean points below it are void, and our own cursor
    /// jumps with it.
    pub fn install(&mut self, mark: &BaselineMark, me: Option<usize>) {
        self.floor = mark.clone();
        self.clean_points.clear();
        if let Some(i) = me {
            self.note_peer(i, mark.delivered);
        }
    }
}

/// A durable state transition of a Total Order Broadcast implementation.
///
/// These are the facts a TOB endpoint must be able to recall after a
/// crash-and-restart for the protocol to remain safe (Paxos quorum
/// intersection assumes acceptors never forget promises or acceptances)
/// and for the replica to recover its committed order locally instead of
/// re-fetching the whole history. Replaying a durable event stream in
/// order through `PaxosTob::restore` reconstructs the endpoint exactly.
///
/// Ballots are carried as raw `(round, leader)` pairs so the event type
/// stays implementation-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TobEvent<M> {
    /// The acceptor promised to ignore ballots below `(round, leader)`.
    Promised {
        /// Ballot round number.
        round: u64,
        /// Ballot leader.
        leader: ReplicaId,
    },
    /// The acceptor accepted a value for a slot.
    Accepted {
        /// The slot.
        slot: u64,
        /// Accepting ballot round.
        round: u64,
        /// Accepting ballot leader.
        leader: ReplicaId,
        /// Origin of the broadcast the value belongs to.
        sender: ReplicaId,
        /// The origin's dense TOB-cast sequence number.
        seq: u64,
        /// The accepted payload.
        payload: M,
    },
    /// The learner recorded a slot as decided.
    Decided {
        /// The slot.
        slot: u64,
        /// Origin of the decided broadcast.
        sender: ReplicaId,
        /// The origin's dense TOB-cast sequence number.
        seq: u64,
        /// The decided payload.
        payload: M,
    },
}
