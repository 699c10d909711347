//! The live cluster: one thread and one mailbox per replica.

use crate::router::PartitionControl;
use bayou_types::{Context, Process, ReplicaId, TimerId, Timestamp, VirtualTime, WAKE_DRAIN};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`LiveCluster`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Number of replicas.
    pub n: usize,
    /// Seed for the replicas' random streams.
    pub seed: u64,
    /// Capacity of every channel in the cluster (the per-replica
    /// mailboxes and, for [`LiveCluster::new`], the output channel).
    /// Bounded channels give backpressure instead of unbounded memory
    /// growth under heavy load: a client blocks in
    /// [`LiveCluster::invoke`] while the replica's mailbox is full,
    /// whereas a peer treats a full mailbox as a lossy link (dropped
    /// frames are recovered by protocol retransmission, exactly like a
    /// partition drop).
    pub channel_capacity: usize,
}

impl LiveConfig {
    /// `n` replicas, 4096-slot channels.
    pub fn new(n: usize) -> Self {
        LiveConfig {
            n,
            seed: 0,
            channel_capacity: 4096,
        }
    }

    /// Sets the channel capacity (builder style).
    pub fn with_channel_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "channel capacity must be positive");
        self.channel_capacity = cap;
        self
    }
}

/// What a replica's mailbox carries. One queue merges the client's
/// inputs, the peers' frames and the cluster's control events, so every
/// sender's events are handled in the order it sent them.
enum ReplicaEvent<P: Process> {
    Input(P::Input),
    /// A frame from the named peer (possibly the replica itself).
    Message(ReplicaId, P::Msg),
    /// Rebuild the replica's process through the cluster factory (which
    /// recovers it from durable storage when one is wired) and mark it
    /// live again.
    Restart,
    Stop(Sender<P>),
}

/// The cluster's links: every replica's mailbox, and always-on counters
/// of the traffic the replica threads put through them.
struct Mailboxes<P: Process> {
    senders: Vec<Sender<ReplicaEvent<P>>>,
    /// Frames a replica put into another replica's mailbox.
    peer_frames: AtomicU64,
    /// Wakes live replicas ended (each one barrier, one sink call, one
    /// delivery of frames).
    wakes: AtomicU64,
}

/// What crossed a [`LiveCluster`]'s links so far, summed over every
/// replica and restart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeCounts {
    /// Frames a replica put into another replica's mailbox (a frame a
    /// fault or a full mailbox dropped is not counted).
    pub peer_frames: u64,
    /// Wakes live replicas ended: one barrier, one sink call and one
    /// release of frames each.
    pub wakes: u64,
}

/// Where one replica's outputs go: built for the replica's thread and
/// called on it once per wake, with every output the wake released.
type Sink<O> = Box<dyn FnMut(Vec<O>) + Send>;

/// A running in-process cluster of `n` replicas executing a
/// [`Process`].
///
/// See the crate-level example. Each replica hands its outputs to a
/// sink on its own thread, once per wake: a cluster built with
/// [`LiveCluster::new`] puts them on one bounded channel for
/// [`LiveCluster::recv_output`], one built with [`LiveCluster::with_sink`]
/// runs the caller's per-replica closure in place. Faults are injected
/// through [`LiveCluster::control`].
pub struct LiveCluster<P: Process> {
    /// The only strong reference to the mailbox senders: replica threads
    /// reach their peers through a [`Weak`] one, so dropping the cluster
    /// disconnects every mailbox and the threads exit.
    mailboxes: Arc<Mailboxes<P>>,
    /// The output channel, when the sink is the channel.
    outputs: Option<Receiver<(ReplicaId, P::Output)>>,
    ctl: Arc<PartitionControl>,
    threads: Vec<JoinHandle<()>>,
    n: usize,
}

impl<P> LiveCluster<P>
where
    P: Process + Send + 'static,
    P::Msg: Send + 'static,
    P::Input: Send + 'static,
    P::Output: Send + 'static,
{
    /// Spawns the cluster; `make(id, n)` builds each replica's process.
    /// Outputs go to one bounded channel, read with
    /// [`LiveCluster::recv_output`]; a replica whose output finds the
    /// channel full waits for room.
    ///
    /// The factory is retained (shared across replica threads): a
    /// [`LiveCluster::restart`] re-invokes it for the bounced replica,
    /// so a factory that opens durable storage (e.g.
    /// `bayou_core::recover_paxos_replica` over a
    /// `bayou_storage::FileStorage` directory) makes replicas recover
    /// their pre-crash state.
    pub fn new(
        config: LiveConfig,
        make: impl Fn(ReplicaId, usize) -> P + Send + Sync + 'static,
    ) -> Self {
        let (out_tx, out_rx) = bounded::<(ReplicaId, P::Output)>(config.channel_capacity);
        let mut cluster = Self::with_sink(config, make, |id| {
            let out_tx = out_tx.clone();
            move |outputs: Vec<P::Output>| {
                for o in outputs {
                    // fails only once `shutdown` has dropped the receiver
                    let _ = out_tx.send((id, o));
                }
            }
        });
        cluster.outputs = Some(out_rx);
        cluster
    }

    /// Spawns the cluster as [`LiveCluster::new`] does, but replica `r`
    /// hands its outputs to `sink(r)`, a closure built once for its
    /// thread and called on it — no channel, no thread in between, and
    /// buffers the closure owns need no lock. It is called once per
    /// wake, with every output of the wake, after the barrier that made
    /// them durable and before the wake's frames leave for the peers.
    /// The replica runs nothing else meanwhile, so it must not block for
    /// long. [`LiveCluster::recv_output`] and
    /// [`LiveCluster::try_outputs`] are not available on such a cluster.
    pub fn with_sink<S>(
        config: LiveConfig,
        make: impl Fn(ReplicaId, usize) -> P + Send + Sync + 'static,
        mut sink: impl FnMut(ReplicaId) -> S,
    ) -> Self
    where
        S: FnMut(Vec<P::Output>) + Send + 'static,
    {
        let n = config.n;
        let cap = config.channel_capacity;
        assert!(n > 0, "cluster must contain at least one replica");
        let make: Arc<dyn Fn(ReplicaId, usize) -> P + Send + Sync> = Arc::new(make);
        let ctl = PartitionControl::new(n);
        let (senders, mailbox_rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| bounded::<ReplicaEvent<P>>(cap)).unzip();
        let mailboxes = Arc::new(Mailboxes {
            senders,
            peer_frames: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        });

        let threads = mailbox_rxs
            .into_iter()
            .enumerate()
            .map(|(i, mailbox)| {
                let id = ReplicaId::new(i as u32);
                let factory = Arc::clone(&make);
                let peers = Arc::downgrade(&mailboxes);
                let out: Sink<P::Output> = Box::new(sink(id));
                let rctl = Arc::clone(&ctl);
                let seed = config.seed.wrapping_add(i as u64);
                std::thread::Builder::new()
                    .name(format!("bayou-replica-{i}"))
                    .spawn(move || replica_loop(id, n, factory, mailbox, peers, out, rctl, seed))
                    .expect("spawn replica")
            })
            .collect();

        LiveCluster {
            mailboxes,
            outputs: None,
            ctl,
            threads,
            n,
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cluster is empty (never true).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The fault-injection control surface (partitions, crashes, Ω).
    pub fn control(&self) -> &PartitionControl {
        &self.ctl
    }

    /// Sends a client input to a replica (blocks while the replica's
    /// mailbox is at capacity — client-side backpressure).
    ///
    /// # Panics
    ///
    /// Panics if the replica id is out of range.
    pub fn invoke(&self, replica: ReplicaId, input: P::Input) {
        self.mailboxes.senders[replica.index()]
            .send(ReplicaEvent::Input(input))
            .expect("replica thread alive");
    }

    /// Restarts a replica: its process is rebuilt through the cluster
    /// factory (recovering from durable storage when the factory wires
    /// one), its crash flag is cleared, and it rejoins the cluster.
    /// Usually preceded by `control().crash(r)` some time earlier.
    ///
    /// # Panics
    ///
    /// Panics if the replica id is out of range.
    pub fn restart(&self, replica: ReplicaId) {
        self.mailboxes.senders[replica.index()]
            .send(ReplicaEvent::Restart)
            .expect("replica thread alive");
    }

    /// The frames and wakes the replica threads have counted so far: with
    /// the operations answered, a per-operation hop ledger.
    pub fn wake_counts(&self) -> WakeCounts {
        WakeCounts {
            peer_frames: self.mailboxes.peer_frames.load(Ordering::Relaxed),
            wakes: self.mailboxes.wakes.load(Ordering::Relaxed),
        }
    }

    /// The output channel of a cluster built with [`LiveCluster::new`].
    fn outputs(&self) -> &Receiver<(ReplicaId, P::Output)> {
        self.outputs
            .as_ref()
            .expect("this cluster hands its outputs to a sink, not a channel")
    }

    /// Waits up to `timeout` for the next output from any replica.
    ///
    /// # Panics
    ///
    /// Panics on a cluster built with [`LiveCluster::with_sink`].
    pub fn recv_output(&self, timeout: Duration) -> Option<(ReplicaId, P::Output)> {
        self.outputs().recv_timeout(timeout).ok()
    }

    /// Drains any outputs that are immediately available.
    ///
    /// # Panics
    ///
    /// Panics on a cluster built with [`LiveCluster::with_sink`].
    pub fn try_outputs(&self) -> Vec<(ReplicaId, P::Output)> {
        let mut out = Vec::new();
        while let Ok(o) = self.outputs().try_recv() {
            out.push(o);
        }
        out
    }

    /// Stops all threads and returns the final process states (for
    /// convergence inspection).
    ///
    /// With the channel sink, keeps draining the (bounded) output
    /// channel while waiting: a replica blocked publishing a response
    /// into a full channel must be able to make progress to reach its
    /// Stop event — otherwise an undrained cluster could never shut
    /// down. A [`LiveCluster::with_sink`] sink is the caller's to keep
    /// from blocking.
    pub fn shutdown(self) -> Vec<P> {
        let mut processes = Vec::with_capacity(self.n);
        for tx in self.mailboxes.senders.iter() {
            let (ret_tx, ret_rx) = bounded(1);
            let deadline = Instant::now() + Duration::from_secs(5);
            // the mailbox itself may be full of unprocessed events;
            // retry while unblocking the replica via output drains
            let mut stop = Some(ReplicaEvent::Stop(ret_tx));
            loop {
                if let Some(ev) = stop.take() {
                    match tx.try_send(ev) {
                        Ok(()) => {}
                        Err(TrySendError::Full(ev)) => stop = Some(ev),
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                if let Some(outputs) = &self.outputs {
                    while outputs.try_recv().is_ok() {}
                }
                match ret_rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(p) => {
                        processes.push(p);
                        break;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {}
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
        drop(self.mailboxes);
        // closing the output channel unblocks any straggler stuck in a
        // full `send` (it errors out and observes the closed mailbox)
        drop(self.outputs);
        for t in self.threads {
            let _ = t.join();
        }
        processes
    }
}

struct LiveCtx<'a, M> {
    id: ReplicaId,
    n: usize,
    start: Instant,
    /// Sends buffered during the wake and delivered at its end — after
    /// the barrier that makes the wake's WAL appends durable and after
    /// the wake's outputs went to the sink, matching the simulator's
    /// handler-atomic effects: no frame leaves before the records it
    /// depends on.
    outbox: &'a mut Vec<(ReplicaId, M)>,
    timers: &'a mut BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    timer_counter: &'a mut u64,
    last_clock: &'a mut i64,
    rng_state: &'a mut u64,
    ctl: &'a PartitionControl,
}

impl<M> Context<M> for LiveCtx<'_, M> {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn cluster_size(&self) -> usize {
        self.n
    }

    fn now(&self) -> VirtualTime {
        VirtualTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    fn clock(&mut self) -> Timestamp {
        let raw = self.start.elapsed().as_micros() as i64;
        let v = if raw > *self.last_clock {
            raw
        } else {
            *self.last_clock + 1
        };
        *self.last_clock = v;
        Timestamp::new(v)
    }

    fn send(&mut self, to: ReplicaId, msg: M) {
        self.outbox.push((to, msg));
    }

    fn set_timer(&mut self, delay: VirtualTime) -> TimerId {
        *self.timer_counter += 1;
        let id = *self.timer_counter;
        self.timers.push(std::cmp::Reverse((
            Instant::now() + Duration::from_nanos(delay.as_nanos()),
            id,
        )));
        TimerId::new(id)
    }

    fn random(&mut self) -> u64 {
        // xorshift64*: deterministic per replica, dependency-free
        let mut x = *self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn omega(&mut self) -> ReplicaId {
        self.ctl.leader()
    }

    fn omega_for(&mut self, lane: u32) -> ReplicaId {
        self.ctl.leader_for(lane)
    }
}

/// The links: puts the frames one wake of `from` produced into their
/// destinations' mailboxes, and counts the wake and the frames that
/// reached a peer. The fault model mirrors the simulator's — a crashed
/// endpoint or a partition crossing drops the frame, and protocol
/// retransmission recovers. So does a full mailbox (a lossy link): a
/// replica blocking on a peer's mailbox could deadlock against that
/// peer blocking on its own.
fn deliver<P: Process>(
    from: ReplicaId,
    outbox: &mut Vec<(ReplicaId, P::Msg)>,
    peers: &Weak<Mailboxes<P>>,
    ctl: &PartitionControl,
) {
    let Some(peers) = peers.upgrade() else {
        // the cluster handle is gone, and so is every mailbox
        outbox.clear();
        return;
    };
    peers.wakes.fetch_add(1, Ordering::Relaxed);
    let mut frames = 0;
    for (to, msg) in outbox.drain(..) {
        if ctl.is_crashed(from) || ctl.is_crashed(to) || ctl.separated(from, to) {
            continue;
        }
        if let Some(tx) = peers.senders.get(to.index()) {
            // full/gone = dropped
            let sent = tx.try_send(ReplicaEvent::Message(from, msg)).is_ok();
            frames += u64::from(sent && to != from);
        }
    }
    peers.peer_frames.fetch_add(frames, Ordering::Relaxed);
}

/// One replica's thread. Each **wake** — the return from a blocking
/// mailbox receive, or a timer deadline — is one unit of I/O:
///
/// 1. take the event that woke it, then whatever else is queued, up to
///    [`WAKE_DRAIN`] events, each its own handler step — and after each,
///    as when every event was its own wake, fire the due timers and run
///    internal steps until the process is passive;
/// 2. take the frames the process coalesced over the wake
///    ([`Process::release_frames`]: one per peer), then call
///    [`Process::barrier`], which makes every WAL append of the wake
///    durable at once;
/// 3. hand the wake's outputs to the sink;
/// 4. deliver the wake's frames to the peers.
///
/// So the wake changes only when bytes leave the process, never which
/// steps run or in what order. Nothing the wake produced leaves before
/// the barrier that covers it, and replies go before frames, so a
/// client's reply never waits on the peers' wake-ups. A crashed or
/// crash-stopped process (an injected crash, a failed handler, a failed
/// barrier) releases nothing of the wake. A `Restart` or `Stop` ends the
/// wake: the old process first settles and releases what it owes, or
/// discards it if it is crashed.
#[allow(clippy::too_many_arguments)]
fn replica_loop<P>(
    id: ReplicaId,
    n: usize,
    factory: Arc<dyn Fn(ReplicaId, usize) -> P + Send + Sync>,
    mailbox: Receiver<ReplicaEvent<P>>,
    peers: Weak<Mailboxes<P>>,
    mut out: Sink<P::Output>,
    ctl: Arc<PartitionControl>,
    seed: u64,
) where
    P: Process,
{
    let start = Instant::now();
    let mut process = factory(id, n);
    let mut timers: BinaryHeap<std::cmp::Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut timer_counter = 0u64;
    let mut last_clock = i64::MIN;
    let mut rng_state = seed | 1;
    let mut outbox: Vec<(ReplicaId, P::Msg)> = Vec::new();

    macro_rules! ctx {
        () => {
            LiveCtx {
                id,
                n,
                start,
                outbox: &mut outbox,
                timers: &mut timers,
                timer_counter: &mut timer_counter,
                last_clock: &mut last_clock,
                rng_state: &mut rng_state,
                ctl: &ctl,
            }
        };
    }

    /// What follows every step the mailbox fed: the due timers fire and
    /// internal steps run until passive. A crashed process executes
    /// nothing — its due timers are discarded, as a dead process's would
    /// be — and so does one that crash-stopped itself, until an explicit
    /// Restart rebuilds it.
    macro_rules! run_due {
        () => {
            let crashed = ctl.is_crashed(id) || process.has_failed();
            let now = Instant::now();
            while let Some(std::cmp::Reverse((due, tid))) = timers.peek().copied() {
                if due > now {
                    break;
                }
                timers.pop();
                if !crashed {
                    process.on_timer(TimerId::new(tid), &mut ctx!());
                }
            }
            if !crashed {
                while process.on_internal(&mut ctx!()) {}
            }
        };
    }

    /// Ends a wake (steps 2–4). A process that is down releases no
    /// frames, and if it is down once the barrier ran, the wake's frames
    /// are dropped and its outputs stay unreleased: the facts backing
    /// them may never have become durable (a cursor report for unlogged
    /// deliveries would let peers truncate history this replica cannot
    /// re-derive).
    macro_rules! release {
        () => {
            if !ctl.is_crashed(id) && !process.has_failed() {
                process.release_frames(&mut ctx!());
                process.barrier();
            }
            if ctl.is_crashed(id) || process.has_failed() {
                outbox.clear();
            } else {
                let outputs = process.drain_outputs();
                if !outputs.is_empty() {
                    out(outputs);
                }
                deliver::<P>(id, &mut outbox, &peers, &ctl);
            }
        };
    }

    process.on_start(&mut ctx!());
    run_due!();
    loop {
        release!();
        // sleep until the next event arrives or the next timer is due
        let woke = match timers.peek() {
            Some(std::cmp::Reverse((due, _))) => {
                match mailbox.recv_timeout(due.saturating_duration_since(Instant::now())) {
                    Err(RecvTimeoutError::Timeout) => {
                        run_due!();
                        continue;
                    }
                    got => got.ok(),
                }
            }
            None => mailbox.recv().ok(),
        };
        // `None`: the cluster handle was dropped
        let Some(first) = woke else { return };
        let queued = std::iter::from_fn(|| mailbox.try_recv().ok());
        for event in std::iter::once(first).chain(queued).take(WAKE_DRAIN) {
            // a crashed replica discards its traffic
            let live = !ctl.is_crashed(id) && !process.has_failed();
            match event {
                ReplicaEvent::Input(input) if live => process.on_input(input, &mut ctx!()),
                ReplicaEvent::Message(from, m) if live => process.on_message(from, m, &mut ctx!()),
                ReplicaEvent::Input(_) | ReplicaEvent::Message(..) => {}
                ReplicaEvent::Restart => {
                    // rebuild through the factory (recovering from
                    // durable storage when one is wired) and come back
                    release!();
                    process = factory(id, n);
                    timers.clear();
                    ctl.uncrash(id);
                    process.on_start(&mut ctx!());
                    run_due!();
                    break;
                }
                ReplicaEvent::Stop(ret) => {
                    release!();
                    let _ = ret.send(process);
                    return;
                }
            }
            run_due!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_broadcast::PaxosTob;
    use bayou_core::{BayouReplica, GroupedReplica, Invocation, ProtocolMode, Response};
    use bayou_data::{Counter, CounterOp, DataType, DeltaState, KvOp, KvStore};
    use bayou_types::{GroupId, Level, SharedReq, Value};

    type Host<F> = GroupedReplica<F, PaxosTob<SharedReq<<F as DataType>::Op>>, DeltaState<F>>;
    type LiveBayou<F> = LiveCluster<Host<F>>;

    /// The one group every test addresses.
    const G0: GroupId = GroupId::new(0);

    fn bayou_cluster<F: bayou_data::InvertibleDataType>(config: LiveConfig) -> LiveBayou<F> {
        LiveCluster::new(config, |_, n| {
            let group = BayouReplica::new(n, ProtocolMode::Improved, PaxosTob::with_defaults(n));
            GroupedReplica::new(vec![group])
        })
    }

    /// A weak invocation addressed to the one group.
    fn weak<Op>(op: Op) -> (GroupId, Invocation<Op>) {
        (G0, Invocation::weak(op))
    }

    /// A strong invocation addressed to the one group.
    fn strong<Op>(op: Op) -> (GroupId, Invocation<Op>) {
        (G0, Invocation::strong(op))
    }

    fn wait_for(
        cluster: &LiveBayou<KvStore>,
        mut pred: impl FnMut(&Response) -> bool,
    ) -> Option<Response> {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some((_, (_, r))) = cluster.recv_output(Duration::from_millis(100)) {
                if pred(&r) {
                    return Some(r);
                }
            }
        }
        None
    }

    /// Asserts the hosts' group-0 replicas converged with nothing
    /// tentative; returns replica 0's state.
    fn converged<F: bayou_data::InvertibleDataType>(hosts: &[Host<F>]) -> F::State {
        let s0 = hosts[0].group(G0).materialize();
        for h in &hosts[1..] {
            assert_eq!(h.group(G0).materialize(), s0, "replicas diverged");
            assert!(h.group(G0).tentative_ids().is_empty());
        }
        s0
    }

    /// Asserts two hosts' group-0 committed orders agree: equal totals,
    /// and equal ids wherever the suffixes they retain above their
    /// compaction floors overlap.
    fn assert_same_committed<F: bayou_data::InvertibleDataType>(a: &Host<F>, b: &Host<F>) {
        let (a, b) = (a.group(G0), b.group(G0));
        assert_eq!(a.committed_total(), b.committed_total(), "committed totals");
        let (a_off, a_ids) = (a.compacted_count() as usize, a.committed_ids());
        let (b_off, b_ids) = (b.compacted_count() as usize, b.committed_ids());
        let from = a_off.max(b_off);
        let until = (a_off + a_ids.len()).min(b_off + b_ids.len());
        if from < until {
            assert_eq!(
                a_ids[from - a_off..until - a_off],
                b_ids[from - b_off..until - b_off],
                "committed orders diverge"
            );
        }
    }

    #[test]
    fn weak_and_strong_ops_complete_live() {
        let cluster = bayou_cluster::<KvStore>(LiveConfig::new(3));
        cluster.invoke(ReplicaId::new(0), weak(KvOp::put("k", 7)));
        let weak = wait_for(&cluster, |r| r.meta.level == Level::Weak).expect("weak response");
        assert_eq!(weak.value, Value::None); // no previous binding
        std::thread::sleep(Duration::from_millis(100));
        cluster.invoke(ReplicaId::new(1), strong(KvOp::put_if_absent("k", 9)));
        let strong =
            wait_for(&cluster, |r| r.meta.level == Level::Strong).expect("strong response");
        assert_eq!(strong.value, Value::Bool(false), "weak put won the race");
        cluster.shutdown();
    }

    #[test]
    fn replicas_converge_after_shutdown() {
        let cluster = bayou_cluster::<KvStore>(LiveConfig::new(3));
        for k in 0..5 {
            let r = ReplicaId::new(k % 3);
            cluster.invoke(r, weak(KvOp::put(format!("k{k}"), k as i64)));
        }
        // wait for all five weak responses, then let TOB settle
        for _ in 0..5 {
            assert!(cluster.recv_output(Duration::from_secs(5)).is_some());
        }
        std::thread::sleep(Duration::from_millis(600));
        let hosts = cluster.shutdown();
        assert_eq!(hosts.len(), 3);
        assert_eq!(converged(&hosts).len(), 5);
        assert_same_committed(&hosts[0], &hosts[1]);
    }

    #[test]
    fn strong_ops_block_under_partition_and_resume_after_heal() {
        let cluster = bayou_cluster::<KvStore>(LiveConfig::new(3));
        // full partition: every replica alone
        cluster.control().partition(vec![
            vec![ReplicaId::new(0)],
            vec![ReplicaId::new(1)],
            vec![ReplicaId::new(2)],
        ]);
        cluster.invoke(ReplicaId::new(0), weak(KvOp::put("w", 1)));
        let weak = cluster.recv_output(Duration::from_secs(5));
        assert!(weak.is_some(), "weak op available under partition");
        cluster.invoke(ReplicaId::new(1), strong(KvOp::get("w")));
        let strong = cluster.recv_output(Duration::from_millis(400));
        assert!(strong.is_none(), "strong op must block without quorum");
        cluster.control().heal();
        let strong = wait_for(&cluster, |r| r.meta.level == Level::Strong);
        assert!(strong.is_some(), "strong op completes after heal");
        cluster.shutdown();
    }

    #[test]
    fn crashed_replica_restarts_from_file_storage_and_converges() {
        use bayou_broadcast::PaxosConfig;
        use bayou_core::recover_paxos_replica;
        use bayou_storage::{FileStorage, StoreConfig};

        let n = 3;
        let root = std::env::temp_dir().join(format!(
            "bayou-live-recovery-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let factory_root = root.clone();
        let cluster: LiveBayou<KvStore> = LiveCluster::new(LiveConfig::new(n), move |id, n| {
            let dir = factory_root.join(format!("replica-{}", id.index()));
            let backend = FileStorage::open(dir).expect("open replica dir");
            recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
                id,
                n,
                ProtocolMode::Improved,
                PaxosConfig::default(),
                backend,
                StoreConfig {
                    snapshot_every: 8,
                    ..Default::default()
                },
            )
        });

        // phase 1: writes reach replica 1 and commit cluster-wide
        for k in 0..6 {
            cluster.invoke(
                ReplicaId::new(k % 3),
                weak(KvOp::put(format!("a{k}"), k as i64)),
            );
        }
        for _ in 0..6 {
            assert!(
                cluster.recv_output(Duration::from_secs(5)).is_some(),
                "weak response before crash"
            );
        }
        std::thread::sleep(Duration::from_millis(500));

        // phase 2: kill replica 1, keep committing on the survivors
        cluster.control().crash(ReplicaId::new(1));
        for k in 6..12 {
            cluster.invoke(
                ReplicaId::new((k % 2) * 2), // replicas 0 and 2 only
                weak(KvOp::put(format!("b{k}"), k as i64)),
            );
        }
        for _ in 6..12 {
            assert!(
                cluster.recv_output(Duration::from_secs(5)).is_some(),
                "survivors stay available"
            );
        }

        // phase 3: restart replica 1 from its on-disk state
        cluster.restart(ReplicaId::new(1));
        std::thread::sleep(Duration::from_millis(200));
        cluster.invoke(ReplicaId::new(1), weak(KvOp::put("post-restart", 99)));
        assert!(
            cluster.recv_output(Duration::from_secs(5)).is_some(),
            "restarted replica serves again"
        );
        std::thread::sleep(Duration::from_millis(800));

        let hosts = cluster.shutdown();
        assert_eq!(hosts.len(), 3);
        let s0 = converged(&hosts);
        assert_eq!(s0.len(), 13, "all 13 writes committed: {s0:?}");
        // the restarted replica holds the identical committed order
        assert_same_committed(&hosts[0], &hosts[1]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shutdown_succeeds_with_undrained_bounded_outputs() {
        // regression: a replica blocked publishing into a full (bounded)
        // output channel must still be able to reach its Stop event —
        // shutdown drains the channel while waiting
        let cluster = bayou_cluster::<Counter>(LiveConfig::new(2).with_channel_capacity(8));
        for _ in 0..12 {
            cluster.invoke(ReplicaId::new(0), weak(CounterOp::Add(1)));
        }
        // give the replica time to wedge against the full output channel
        std::thread::sleep(Duration::from_millis(300));
        let hosts = cluster.shutdown();
        assert_eq!(hosts.len(), 2, "shutdown returned all replicas");
    }

    #[test]
    fn counter_sessions_accumulate() {
        let cluster = bayou_cluster::<Counter>(LiveConfig::new(2));
        for _ in 0..10 {
            cluster.invoke(ReplicaId::new(0), weak(CounterOp::Add(1)));
        }
        let mut got = 0;
        while got < 10 {
            assert!(
                cluster.recv_output(Duration::from_secs(5)).is_some(),
                "missing weak response"
            );
            got += 1;
        }
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(converged(&cluster.shutdown()), 10);
    }
}

/// The mailbox's contract, as predicates over what a replica handled and
/// in which order: per-sender FIFO; a full mailbox loses a peer's frame
/// but only delays a client's input; nothing enters or leaves a crashed
/// replica or crosses a partition; control events queued behind
/// discarded traffic are honoured; a timer fires at its deadline. And
/// the wake's: a failed barrier releases nothing of its wake; a wake's
/// outputs reach the sink before its frames reach any peer; a `Restart`
/// or `Stop` in the middle of a drain loses no output.
///
/// Where an interleaving matters, a `Held` input parks the replica
/// inside a handler until the test releases it; the events queued
/// meanwhile are handled in the same wake.
#[cfg(test)]
mod mailbox_contract {
    use super::*;
    use std::sync::mpsc;

    enum Do {
        /// Send the number to a peer and report `Sent`.
        Send(ReplicaId, u32),
        /// Report `Noted`.
        Note(u32),
        /// Tell the test the handler is running, stay in it until
        /// released, then send as `Send` does.
        Held(
            mpsc::Sender<()>,
            mpsc::Receiver<()>,
            Option<(ReplicaId, u32)>,
        ),
        /// Arm a timer and report `Fired` with how long it took.
        Timer(Duration),
        /// Make the wake's barrier fail, crash-stopping the probe.
        FailBarrier,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Started,
        Sent(u32),
        Noted(u32),
        Got(ReplicaId, u32),
        Fired(Duration),
    }

    #[derive(Default)]
    struct Probe {
        seen: Vec<Seen>,
        armed: Option<Instant>,
        /// The next barrier fails.
        failing: bool,
        failed: bool,
    }

    impl Process for Probe {
        type Msg = u32;
        type Input = Do;
        type Output = Seen;

        fn on_start(&mut self, _: &mut dyn Context<u32>) {
            self.seen.push(Seen::Started);
        }

        fn on_message(&mut self, from: ReplicaId, msg: u32, _: &mut dyn Context<u32>) {
            self.seen.push(Seen::Got(from, msg));
        }

        fn on_input(&mut self, input: Do, ctx: &mut dyn Context<u32>) {
            match input {
                Do::Note(k) => self.seen.push(Seen::Noted(k)),
                Do::Send(to, k) => {
                    ctx.send(to, k);
                    self.seen.push(Seen::Sent(k));
                }
                Do::Held(entered, release, send) => {
                    entered.send(()).expect("test waits for the handler");
                    release.recv().expect("test releases the handler");
                    if let Some((to, k)) = send {
                        self.on_input(Do::Send(to, k), ctx);
                    }
                }
                Do::Timer(after) => {
                    self.armed = Some(Instant::now());
                    ctx.set_timer(VirtualTime::from_nanos(after.as_nanos() as u64));
                }
                Do::FailBarrier => self.failing = true,
            }
        }

        fn on_timer(&mut self, _: TimerId, _: &mut dyn Context<u32>) {
            let armed = self.armed.take().expect("a timer was armed");
            self.seen.push(Seen::Fired(armed.elapsed()));
        }

        fn drain_outputs(&mut self) -> Vec<Seen> {
            std::mem::take(&mut self.seen)
        }

        fn barrier(&mut self) {
            self.failed |= self.failing;
        }

        fn has_failed(&self) -> bool {
            self.failed
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn next(cluster: &LiveCluster<Probe>) -> (ReplicaId, Seen) {
        cluster
            .recv_output(Duration::from_secs(5))
            .expect("an output is due")
    }

    /// The next two outputs, which come from two replicas in no fixed
    /// order.
    fn next_two(cluster: &LiveCluster<Probe>, a: (ReplicaId, Seen), b: (ReplicaId, Seen)) {
        let got = [next(cluster), next(cluster)];
        assert!(got.contains(&a) && got.contains(&b), "{got:?}");
    }

    /// `n` started probes behind channels of `cap` slots.
    fn probes(n: usize, cap: usize) -> LiveCluster<Probe> {
        let config = LiveConfig::new(n).with_channel_capacity(cap);
        let cluster = LiveCluster::new(config, |_, _| Probe::default());
        for _ in 0..n {
            assert_eq!(next(&cluster).1, Seen::Started);
        }
        cluster
    }

    /// Returns once `replica` has ended the wake it is in — delivered or
    /// dropped that wake's frames — by sending it a note and awaiting it.
    fn fence(cluster: &LiveCluster<Probe>, replica: ReplicaId) {
        cluster.invoke(replica, Do::Note(u32::MAX));
        assert_eq!(next(cluster), (replica, Seen::Noted(u32::MAX)));
    }

    /// Parks `replica` inside a handler; the returned sender lets it go.
    fn hold(
        cluster: &LiveCluster<Probe>,
        replica: ReplicaId,
        send: Option<(ReplicaId, u32)>,
    ) -> mpsc::Sender<()> {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        cluster.invoke(replica, Do::Held(entered_tx, release_rx, send));
        entered_rx.recv().expect("the replica reaches the handler");
        release_tx
    }

    #[test]
    fn each_senders_events_are_handled_in_the_order_sent() {
        const EACH: u32 = 200;
        let cluster = probes(3, 4096);
        for k in 0..EACH {
            cluster.invoke(r(0), Do::Send(r(2), k));
            cluster.invoke(r(1), Do::Send(r(2), k));
            cluster.invoke(r(2), Do::Note(k));
        }
        let (mut from_0, mut from_1, mut from_client) = (Vec::new(), Vec::new(), Vec::new());
        while from_0.len() + from_1.len() + from_client.len() < 3 * EACH as usize {
            match next(&cluster) {
                (at, Seen::Got(from, k)) if at == r(2) && from == r(0) => from_0.push(k),
                (at, Seen::Got(from, k)) if at == r(2) && from == r(1) => from_1.push(k),
                (at, Seen::Noted(k)) if at == r(2) => from_client.push(k),
                (_, Seen::Sent(_)) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let in_order: Vec<u32> = (0..EACH).collect();
        assert_eq!(from_0, in_order);
        assert_eq!(from_1, in_order);
        assert_eq!(from_client, in_order);
        cluster.shutdown();
    }

    #[test]
    fn a_full_mailbox_drops_a_peers_frame_and_delays_a_clients_input() {
        let cluster = probes(2, 2);
        let release = hold(&cluster, r(1), None);
        // replica 1's mailbox is empty and has two slots: the third
        // frame finds it full
        for k in [10, 11, 12] {
            cluster.invoke(r(0), Do::Send(r(1), k));
            assert_eq!(next(&cluster), (r(0), Seen::Sent(k)));
        }
        fence(&cluster, r(0));
        std::thread::scope(|s| {
            let (done_tx, done_rx) = mpsc::channel();
            let cluster = &cluster;
            s.spawn(move || {
                cluster.invoke(r(1), Do::Note(1));
                done_tx.send(()).expect("test waits for the invoke");
            });
            assert!(
                done_rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "invoke returned though the mailbox was full"
            );
            release.send(()).expect("replica 1 is held");
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("invoke completes once there is room");
        });
        assert_eq!(next(&cluster), (r(1), Seen::Got(r(0), 10)));
        assert_eq!(next(&cluster), (r(1), Seen::Got(r(0), 11)));
        assert_eq!(next(&cluster), (r(1), Seen::Noted(1)));
        // 12 is lost, not late: it would precede 13
        cluster.invoke(r(0), Do::Send(r(1), 13));
        next_two(
            &cluster,
            (r(0), Seen::Sent(13)),
            (r(1), Seen::Got(r(0), 13)),
        );
        cluster.shutdown();
    }

    #[test]
    fn faults_drop_frames_at_send_until_heal_or_restart() {
        let cluster = probes(3, 64);
        // each dropped frame is followed by a delivered one on the same
        // link: FIFO would have put the dropped one first
        cluster.control().isolate(r(2));
        cluster.invoke(r(0), Do::Send(r(2), 1));
        assert_eq!(next(&cluster), (r(0), Seen::Sent(1)));
        // a wake's outputs come before its frames: the fault must hold
        // until the wake is over
        fence(&cluster, r(0));
        cluster.control().heal();
        cluster.invoke(r(0), Do::Send(r(2), 2));
        next_two(&cluster, (r(0), Seen::Sent(2)), (r(2), Seen::Got(r(0), 2)));

        // to a crashed replica
        cluster.control().crash(r(2));
        cluster.invoke(r(0), Do::Send(r(2), 3));
        assert_eq!(next(&cluster), (r(0), Seen::Sent(3)));
        fence(&cluster, r(0));
        // from one: replica 1 crashes inside the step that sends 4
        let release = hold(&cluster, r(1), Some((r(0), 4)));
        cluster.control().crash(r(1));
        release.send(()).expect("replica 1 is held");

        // a restart is handled after that step and its flush
        cluster.restart(r(1));
        assert_eq!(next(&cluster), (r(1), Seen::Started));
        cluster.restart(r(2));
        assert_eq!(next(&cluster), (r(2), Seen::Started));
        cluster.invoke(r(1), Do::Send(r(0), 5));
        next_two(&cluster, (r(1), Seen::Sent(5)), (r(0), Seen::Got(r(1), 5)));
        cluster.invoke(r(0), Do::Send(r(2), 6));
        next_two(&cluster, (r(0), Seen::Sent(6)), (r(2), Seen::Got(r(0), 6)));
        cluster.shutdown();
    }

    #[test]
    fn a_sink_runs_on_the_thread_of_the_replica_that_produced_the_output() {
        let (tx, rx) = mpsc::channel();
        let config = LiveConfig::new(2);
        let cluster = LiveCluster::with_sink(
            config,
            |_, _| Probe::default(),
            |id| {
                let tx = tx.clone();
                move |outputs: Vec<Seen>| {
                    let thread = std::thread::current().name().map(str::to_owned);
                    for seen in outputs {
                        let _ = tx.send((id, seen, thread.clone()));
                    }
                }
            },
        );
        cluster.invoke(r(1), Do::Note(7));
        let got: Vec<_> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("an output"))
            .collect();
        for (id, _, thread) in &got {
            assert_eq!(
                thread.as_deref(),
                Some(&*format!("bayou-replica-{}", id.index()))
            );
        }
        let seen: Vec<_> = got.into_iter().map(|(id, seen, _)| (id, seen)).collect();
        assert!(seen.contains(&(r(0), Seen::Started)), "{seen:?}");
        assert!(seen.contains(&(r(1), Seen::Started)), "{seen:?}");
        assert!(seen.contains(&(r(1), Seen::Noted(7))), "{seen:?}");
        cluster.shutdown();
    }

    /// Runs a lone replica, crashed from the start or not, over a
    /// mailbox filled beforehand, on this thread: the loop returns at the
    /// `Stop` that ends `events`.
    fn run_alone(crashed: bool, events: Vec<ReplicaEvent<Probe>>) -> (Vec<Seen>, Probe) {
        let (mailbox_tx, mailbox) = bounded(events.len() + 1);
        let (out, outputs) = bounded(64);
        let sink: Sink<Seen> = Box::new(move |seen: Vec<Seen>| {
            seen.into_iter()
                .for_each(|seen| out.send(seen).expect("room"))
        });
        let (ret_tx, ret_rx) = bounded(1);
        for event in events {
            mailbox_tx.send(event).expect("room for every event");
        }
        mailbox_tx
            .send(ReplicaEvent::Stop(ret_tx))
            .expect("room for every event");
        let ctl = PartitionControl::new(1);
        if crashed {
            ctl.crash(r(0));
        }
        let factory = Arc::new(|_, _| Probe::default());
        replica_loop(r(0), 1, factory, mailbox, Weak::new(), sink, ctl, 0);
        (
            std::iter::from_fn(|| outputs.try_recv().ok()).collect(),
            ret_rx.try_recv().expect("Stop returns the process"),
        )
    }

    #[test]
    fn restart_and_stop_behind_discarded_traffic_are_honoured() {
        let (reported, _) = run_alone(
            true,
            vec![
                ReplicaEvent::Input(Do::Note(1)),
                ReplicaEvent::Message(r(0), 2),
                ReplicaEvent::Restart,
                ReplicaEvent::Input(Do::Note(3)),
            ],
        );
        assert_eq!(reported, [Seen::Started, Seen::Noted(3)]);

        let (reported, process) = run_alone(
            true,
            vec![
                ReplicaEvent::Input(Do::Note(1)),
                ReplicaEvent::Message(r(0), 2),
            ],
        );
        assert!(reported.is_empty());
        assert_eq!(process.seen, [Seen::Started], "the traffic was discarded");
    }

    #[test]
    fn a_restart_or_stop_inside_a_drain_releases_what_the_old_process_owes() {
        // every event is queued before the replica starts, so one drain
        // takes the note and the Restart behind it, the next the note
        // and the Stop
        let (reported, process) = run_alone(
            false,
            vec![
                ReplicaEvent::Input(Do::Note(1)),
                ReplicaEvent::Restart,
                ReplicaEvent::Input(Do::Note(2)),
            ],
        );
        assert_eq!(
            reported,
            [Seen::Started, Seen::Noted(1), Seen::Started, Seen::Noted(2)]
        );
        assert!(process.seen.is_empty(), "Stop released the last wake");
    }

    #[test]
    fn a_failed_barrier_releases_nothing_of_its_wake() {
        let cluster = probes(2, 64);
        // the events queued while replica 0 is held share one wake with
        // the held step, and the last one makes its barrier fail
        let release = hold(&cluster, r(0), Some((r(1), 1)));
        cluster.invoke(r(0), Do::Send(r(1), 2));
        cluster.invoke(r(0), Do::Note(3));
        cluster.invoke(r(0), Do::FailBarrier);
        release.send(()).expect("replica 0 is held");
        // nothing of that wake escaped: the restart's output is the next
        // one, and replica 0's next frame is the first replica 1 gets
        cluster.restart(r(0));
        assert_eq!(next(&cluster), (r(0), Seen::Started));
        cluster.invoke(r(0), Do::Send(r(1), 4));
        next_two(&cluster, (r(0), Seen::Sent(4)), (r(1), Seen::Got(r(0), 4)));
        cluster.shutdown();
    }

    #[test]
    fn a_wakes_outputs_reach_the_sink_before_its_frames_reach_a_peer() {
        // replica 0's sink stops at its first `Sent` until the test lets
        // it go; replica 1 must not get the frame of that step meanwhile
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let mut gate = Some((entered_tx, release_rx));
        let (tx, rx) = mpsc::channel();
        let cluster = LiveCluster::with_sink(
            LiveConfig::new(2),
            |_, _| Probe::default(),
            |id| {
                let tx = tx.clone();
                let gate = if id == r(0) { gate.take() } else { None };
                move |outputs: Vec<Seen>| {
                    for seen in outputs {
                        if let (Seen::Sent(_), Some((entered, release))) = (&seen, &gate) {
                            entered.send(()).expect("the test waits for the sink");
                            release.recv().expect("the test releases the sink");
                        }
                        tx.send((id, seen)).expect("the test reads every output");
                    }
                }
            },
        );
        let next = || rx.recv_timeout(Duration::from_secs(5)).expect("an output");
        let started = [next(), next()];
        assert!(started.iter().all(|(_, seen)| *seen == Seen::Started));

        cluster.invoke(r(0), Do::Send(r(1), 1));
        entered.recv().expect("replica 0's sink gets the output");
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a frame left before its wake's outputs were handed over"
        );
        release.send(()).expect("the sink is held");
        let got = [next(), next()];
        assert!(got.contains(&(r(0), Seen::Sent(1))), "{got:?}");
        assert!(got.contains(&(r(1), Seen::Got(r(0), 1))), "{got:?}");
        cluster.shutdown();
    }

    #[test]
    fn a_timer_on_a_silent_mailbox_fires_at_its_deadline() {
        const AFTER: Duration = Duration::from_millis(2);
        let cluster = probes(1, 8);
        // with no timer armed the replica sleeps until the input
        let mut took: Vec<Duration> = (0..5)
            .map(|_| {
                cluster.invoke(r(0), Do::Timer(AFTER));
                match next(&cluster) {
                    (_, Seen::Fired(took)) => took,
                    other => panic!("unexpected {other:?}"),
                }
            })
            .collect();
        took.sort_unstable();
        assert!(took[0] >= AFTER, "fired early: {took:?}");
        // the median, so that one descheduling of this busy test
        // binary's threads fails nothing
        assert!(took[2] <= Duration::from_millis(10), "fired late: {took:?}");
        cluster.shutdown();
    }
}
