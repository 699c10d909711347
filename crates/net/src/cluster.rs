//! The live cluster: one mailbox and one lock per replica, and a wake
//! runs on the thread that brought its work.

use crate::router::PartitionControl;
use bayou_types::{Context, Process, ReplicaId, TimerId, Timestamp, VirtualTime, WAKE_DRAIN};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{fence, AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
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

/// What crossed a [`LiveCluster`]'s links so far, summed over every
/// replica and restart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeCounts {
    /// Frames a replica put into another replica's mailbox (a frame a
    /// fault or a full mailbox dropped is not counted).
    pub peer_frames: u64,
    /// Wakes that handled an event or fired a timer: one barrier, one
    /// sink call and one release of frames each.
    pub wakes: u64,
}

/// Where one replica's outputs go: called under the replica's lock, once
/// per wake, on the thread that ran the wake.
type Sink<O> = Box<dyn FnMut(Vec<O>) + Send>;

/// One replica: its mailbox, and behind its lock all that a wake
/// touches.
struct Replica<P: Process> {
    mailbox: Sender<ReplicaEvent<P>>,
    /// Events put into the mailbox and not yet taken out: raised after a
    /// push, lowered after a take, so it may dip below zero for a moment.
    /// A thread that unlocks the replica reads it to learn whether work
    /// arrived while it held the lock.
    queued: AtomicI64,
    host: Mutex<Host<P>>,
    /// The replica's own thread, which sleeps until the earliest timer.
    owner: OnceLock<Thread>,
    /// When the own thread wakes by itself next, in nanoseconds since the
    /// cluster started (`u64::MAX`: never). Written under the lock.
    sleeps_until: AtomicU64,
}

/// What a wake touches.
struct Host<P: Process> {
    /// `None` until the replica's own thread builds it, and after `Stop`.
    process: Option<P>,
    /// `None` once the replica stopped: pushes to it fail, as they would
    /// to a thread that exited.
    inbox: Option<Receiver<ReplicaEvent<P>>>,
    sink: Sink<P::Output>,
    rt: Runtime<P::Msg>,
}

/// The wall-clock state a replica's context works on.
struct Runtime<M> {
    /// Sends buffered during the wake and delivered at its end — after
    /// the barrier that makes the wake's WAL appends durable and after
    /// the wake's outputs went to the sink, matching the simulator's
    /// handler-atomic effects: no frame leaves before the records it
    /// depends on.
    outbox: Vec<(ReplicaId, M)>,
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    timer_counter: u64,
    last_clock: i64,
    rng_state: u64,
}

/// The cluster's state, shared by its handle, its replicas' own threads
/// and any thread inside [`LiveCluster::invoke`].
struct Shared<P: Process> {
    replicas: Vec<Replica<P>>,
    factory: Box<dyn Fn(ReplicaId, usize) -> P + Send + Sync>,
    ctl: Arc<PartitionControl>,
    start: Instant,
    /// The cluster handle is gone: the replicas' own threads end.
    closed: AtomicBool,
    /// Frames a wake put into another replica's mailbox.
    peer_frames: AtomicU64,
    /// Wakes that handled an event or fired a timer.
    wakes: AtomicU64,
}

/// A running in-process cluster of `n` replicas executing a
/// [`Process`].
///
/// See the crate-level example. A replica runs on whichever thread
/// brings it work: [`LiveCluster::invoke`] runs the replica's wake on
/// the caller's thread, then the wakes of the peers its frames reached,
/// unless another thread is running them already. Each replica also has
/// a thread of its own, which sleeps until its earliest timer. Each wake
/// hands its outputs to a sink, under the replica's lock: a cluster built
/// with [`LiveCluster::new`] puts them on one bounded channel for
/// [`LiveCluster::recv_output`], one built with
/// [`LiveCluster::with_sink`] runs the caller's per-replica closure in
/// place. Faults are injected through [`LiveCluster::control`].
pub struct LiveCluster<P: Process> {
    shared: Arc<Shared<P>>,
    /// The output channel, when the sink is the channel.
    outputs: Option<Receiver<(ReplicaId, P::Output)>>,
    threads: Vec<JoinHandle<()>>,
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
    /// [`LiveCluster::recv_output`]; a wake whose output finds the
    /// channel full waits for room on the thread that runs it — so a
    /// caller that invokes more operations than the channel holds without
    /// reading their outputs waits in [`LiveCluster::invoke`].
    ///
    /// The factory is retained (shared by every thread that may run a
    /// replica): a [`LiveCluster::restart`] re-invokes it for the
    /// bounced replica, so a factory that opens durable storage (e.g.
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
    /// hands its outputs to `sink(r)`, a closure built once per replica
    /// and called under the replica's lock, once per wake, on the thread
    /// that ran the wake — no channel, no thread in between, and buffers
    /// the closure owns need no lock of their own. It gets every output
    /// of the wake, after the barrier that made them durable and before
    /// the wake's frames leave for the peers. No other wake of the
    /// replica runs meanwhile, so it must not block for long, and it
    /// must not call into the cluster. [`LiveCluster::recv_output`] and
    /// [`LiveCluster::try_outputs`] are not available on such a cluster.
    pub fn with_sink<S>(
        config: LiveConfig,
        make: impl Fn(ReplicaId, usize) -> P + Send + Sync + 'static,
        sink: impl FnMut(ReplicaId) -> S,
    ) -> Self
    where
        S: FnMut(Vec<P::Output>) + Send + 'static,
    {
        let shared = Shared::new(&config, make, sink);
        let threads = (0..config.n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bayou-replica-{i}"))
                    .spawn(move || own(shared, i))
                    .expect("spawn replica")
            })
            .collect();
        LiveCluster {
            shared,
            outputs: None,
            threads,
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.shared.replicas.len()
    }

    /// Whether the cluster is empty (never true).
    pub fn is_empty(&self) -> bool {
        self.shared.replicas.is_empty()
    }

    /// The fault-injection control surface (partitions, crashes, Ω).
    pub fn control(&self) -> &PartitionControl {
        &self.shared.ctl
    }

    /// Hands a client input to a replica and runs it on this thread:
    /// [`LiveCluster::post`], then [`LiveCluster::drive`]. Blocks while
    /// the replica's mailbox is full (client-side backpressure). Must not
    /// be called from a sink.
    ///
    /// # Panics
    ///
    /// Panics if the replica id is out of range.
    pub fn invoke(&self, replica: ReplicaId, input: P::Input) {
        self.shared
            .invoke(replica.index(), ReplicaEvent::Input(input));
    }

    /// Puts a client input into a replica's mailbox and returns without
    /// running it — unless the mailbox is full: then the replica's wakes
    /// run on this thread first (if no other thread is running them), and
    /// the call waits for room. The input waits for the next
    /// [`LiveCluster::drive`] of the replica, or the next wake any thread
    /// runs of it; callers that queue several inputs this way drive each
    /// replica they touched once, so the inputs share its wakes. An input
    /// to a stopped replica is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the replica id is out of range.
    pub fn post(&self, replica: ReplicaId, input: P::Input) {
        self.shared
            .push(replica.index(), ReplicaEvent::Input(input));
    }

    /// Runs, on this thread, the wakes of `replica` until its mailbox is
    /// empty, then those of every peer its frames reached, and so on —
    /// skipping any replica another thread is running, which finds the
    /// work when it lets the replica go. Must not be called from a sink.
    ///
    /// # Panics
    ///
    /// Panics if the replica id is out of range.
    pub fn drive(&self, replica: ReplicaId) {
        self.shared.drive(replica.index());
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
        self.shared.invoke(replica.index(), ReplicaEvent::Restart);
    }

    /// The frames and wakes the replicas have counted so far: with the
    /// operations answered, a per-operation hop ledger.
    pub fn wake_counts(&self) -> WakeCounts {
        WakeCounts {
            peer_frames: self.shared.peer_frames.load(Ordering::Relaxed),
            wakes: self.shared.wakes.load(Ordering::Relaxed),
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
    /// Each replica's `Stop` is handed to its own thread, never run here:
    /// with the channel sink this thread keeps draining the (bounded)
    /// output channel while it waits, so a wake blocked publishing into a
    /// full channel makes progress and the replica reaches its `Stop`.
    /// A [`LiveCluster::with_sink`] sink is the caller's to keep from
    /// blocking.
    pub fn shutdown(mut self) -> Vec<P> {
        let mut processes = Vec::with_capacity(self.len());
        for replica in &self.shared.replicas {
            let (ret_tx, ret_rx) = bounded(1);
            let deadline = Instant::now() + Duration::from_secs(5);
            // the mailbox itself may be full of unprocessed events;
            // retry while unblocking the replica via output drains
            let mut stop = Some(ReplicaEvent::Stop(ret_tx));
            loop {
                if let Some(ev) = stop.take() {
                    match replica.mailbox.try_send(ev) {
                        Ok(()) => {
                            replica.queued.fetch_add(1, Ordering::SeqCst);
                            if let Some(owner) = replica.owner.get() {
                                owner.unpark();
                            }
                        }
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
        self.shared.close();
        // closing the output channel unblocks any straggler stuck in a
        // full `send` (it errors out and finds its replica stopped)
        drop(self.outputs.take());
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        processes
    }
}

impl<P: Process> Drop for LiveCluster<P> {
    /// Ends the replicas' own threads (without waiting for them).
    fn drop(&mut self) {
        self.shared.close();
    }
}

struct LiveCtx<'a, M> {
    id: ReplicaId,
    n: usize,
    start: Instant,
    rt: &'a mut Runtime<M>,
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
        let v = if raw > self.rt.last_clock {
            raw
        } else {
            self.rt.last_clock + 1
        };
        self.rt.last_clock = v;
        Timestamp::new(v)
    }

    fn send(&mut self, to: ReplicaId, msg: M) {
        self.rt.outbox.push((to, msg));
    }

    fn set_timer(&mut self, delay: VirtualTime) -> TimerId {
        self.rt.timer_counter += 1;
        let id = self.rt.timer_counter;
        self.rt.timers.push(Reverse((
            Instant::now() + Duration::from_nanos(delay.as_nanos()),
            id,
        )));
        TimerId::new(id)
    }

    fn random(&mut self) -> u64 {
        // xorshift64*: deterministic per replica, dependency-free
        let mut x = self.rt.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rt.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn omega(&mut self) -> ReplicaId {
        self.ctl.leader()
    }

    fn omega_for(&mut self, lane: u32) -> ReplicaId {
        self.ctl.leader_for(lane)
    }
}

impl<P: Process> Shared<P> {
    /// The cluster's state, with every replica unbuilt: each one's own
    /// thread builds and starts its process ([`own`]).
    fn new<S>(
        config: &LiveConfig,
        make: impl Fn(ReplicaId, usize) -> P + Send + Sync + 'static,
        mut sink: impl FnMut(ReplicaId) -> S,
    ) -> Arc<Self>
    where
        S: FnMut(Vec<P::Output>) + Send + 'static,
    {
        let n = config.n;
        assert!(n > 0, "cluster must contain at least one replica");
        let replicas = (0..n)
            .map(|i| {
                let (mailbox, inbox) = bounded(config.channel_capacity);
                Replica {
                    mailbox,
                    queued: AtomicI64::new(0),
                    host: Mutex::new(Host {
                        process: None,
                        inbox: Some(inbox),
                        sink: Box::new(sink(ReplicaId::new(i as u32))),
                        rt: Runtime {
                            outbox: Vec::new(),
                            timers: BinaryHeap::new(),
                            timer_counter: 0,
                            last_clock: i64::MIN,
                            rng_state: config.seed.wrapping_add(i as u64) | 1,
                        },
                    }),
                    owner: OnceLock::new(),
                    sleeps_until: AtomicU64::new(u64::MAX),
                }
            })
            .collect();
        Arc::new(Shared {
            replicas,
            factory: Box::new(make),
            ctl: PartitionControl::new(n),
            start: Instant::now(),
            closed: AtomicBool::new(false),
            peer_frames: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        })
    }

    /// Ends the replicas' own threads: each returns once it wakes.
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        for replica in &self.replicas {
            if let Some(owner) = replica.owner.get() {
                owner.unpark();
            }
        }
    }

    /// Pushes an event into replica `i`'s mailbox and runs it here.
    fn invoke(&self, i: usize, event: ReplicaEvent<P>) {
        self.push(i, event);
        self.drive(i);
    }

    /// Puts an event into replica `i`'s mailbox. A full mailbox is first
    /// worked off on this thread, if no other thread holds the replica;
    /// then the push waits for room. A stopped replica drops the event.
    fn push(&self, i: usize, event: ReplicaEvent<P>) {
        let replica = &self.replicas[i];
        let pushed = match replica.mailbox.try_send(event) {
            Ok(()) => true,
            Err(TrySendError::Full(event)) => {
                self.drive(i);
                replica.mailbox.send(event).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        };
        if pushed {
            replica.queued.fetch_add(1, Ordering::SeqCst);
            // pairs with the fence in `work_off`: either that thread sees
            // this count, or this thread's `try_lock` sees it let go
            fence(Ordering::SeqCst);
        }
    }

    /// Runs replica `first`'s wakes on this thread, then those of every
    /// peer their frames reached, and so on, until no replica this thread
    /// visits has work left.
    fn drive(&self, first: usize) {
        let mut visit = vec![false; self.replicas.len()];
        visit[first] = true;
        self.visit(first, &mut visit);
    }

    /// Works off every replica marked in `visit`, round the ring from
    /// `at`, marking the peers each one's frames reach, until a whole
    /// turn finds nothing marked.
    fn visit(&self, mut at: usize, visit: &mut [bool]) {
        let n = visit.len();
        let mut idle = 0;
        while idle < n {
            if std::mem::take(&mut visit[at]) {
                self.work_off(at, visit);
                idle = 0;
            } else {
                idle += 1;
            }
            at = (at + 1) % n;
        }
    }

    /// Runs replica `i`'s wakes for as long as work arrives and this
    /// thread gets its lock. A replica another thread holds is left to
    /// that thread: it reads `queued` after it lets the replica go.
    fn work_off(&self, i: usize, visit: &mut [bool]) {
        let replica = &self.replicas[i];
        loop {
            let Some(mut host) = replica.host.try_lock() else {
                return;
            };
            if host.process.is_none() {
                // not built yet (its own thread takes the mailbox once it
                // is), or stopped
                return;
            }
            while self.wake(i, &mut host, visit) {}
            self.arm(replica, &host);
            drop(host);
            fence(Ordering::SeqCst);
            if replica.queued.load(Ordering::SeqCst) <= 0 {
                return;
            }
        }
    }

    /// Lowers the own thread's sleep to the replica's earliest timer if a
    /// wake armed one sooner, and wakes the thread to re-read it.
    fn arm(&self, replica: &Replica<P>, host: &Host<P>) {
        let due = self.next_due(host);
        if due < replica.sleeps_until.load(Ordering::SeqCst) {
            replica.sleeps_until.store(due, Ordering::SeqCst);
            if let Some(owner) = replica.owner.get() {
                owner.unpark();
            }
        }
    }

    /// The replica's earliest timer, in nanoseconds since the cluster
    /// started (`u64::MAX`: none).
    fn next_due(&self, host: &Host<P>) -> u64 {
        host.rt.timers.peek().map_or(u64::MAX, |Reverse((due, _))| {
            due.saturating_duration_since(self.start).as_nanos() as u64
        })
    }

    /// Whether replica `id`'s process runs steps: neither crashed by a
    /// fault nor crash-stopped by itself.
    fn live(&self, id: ReplicaId, process: &P) -> bool {
        !self.ctl.is_crashed(id) && !process.has_failed()
    }

    /// Runs `step` on replica `i`'s process with its context.
    fn step<R>(
        &self,
        i: usize,
        host: &mut Host<P>,
        step: impl FnOnce(&mut P, &mut LiveCtx<'_, P::Msg>) -> R,
    ) -> Option<R> {
        let process = host.process.as_mut()?;
        let mut ctx = LiveCtx {
            id: ReplicaId::new(i as u32),
            n: self.replicas.len(),
            start: self.start,
            rt: &mut host.rt,
            ctl: &self.ctl,
        };
        Some(step(process, &mut ctx))
    }

    /// Builds replica `i`'s process through the factory (recovering it
    /// from durable storage when one is wired) and starts it.
    fn start(&self, i: usize, host: &mut Host<P>) {
        let id = ReplicaId::new(i as u32);
        host.process = Some((self.factory)(id, self.replicas.len()));
        self.step(i, host, |p, ctx| p.on_start(ctx));
        self.run_due(i, host);
    }

    /// One **wake** of replica `i`, under its lock, as one unit of I/O:
    ///
    /// 1. take up to [`WAKE_DRAIN`] events from the mailbox, each its own
    ///    handler step, and after each, as when every event was its own
    ///    wake, fire the due timers and run internal steps until the
    ///    process is passive — or, with the mailbox empty, fire the due
    ///    timers alone;
    /// 2. take the frames the process coalesced over the wake
    ///    ([`Process::release_frames`]: one per peer), then call
    ///    [`Process::barrier`], which makes every WAL append of the wake
    ///    durable at once;
    /// 3. hand the wake's outputs to the sink;
    /// 4. deliver the wake's frames to the peers.
    ///
    /// So the wake changes only when bytes leave the process, never which
    /// steps run or in what order; nor does the thread it runs on.
    /// Nothing the wake produced leaves before the barrier that covers
    /// it, and replies go before frames, so a client's reply never waits
    /// on the peers' wakes. A crashed or crash-stopped process (an
    /// injected crash, a failed handler, a failed barrier) releases
    /// nothing of the wake. A `Restart` or `Stop` ends the wake: the old
    /// process first settles and releases what it owes, or discards it
    /// if it is crashed.
    ///
    /// Returns whether there was anything to do.
    fn wake(&self, i: usize, host: &mut Host<P>, visit: &mut [bool]) -> bool {
        let replica = &self.replicas[i];
        let id = ReplicaId::new(i as u32);
        if host.process.is_none() {
            return false;
        }
        let mut handled = 0;
        while handled < WAKE_DRAIN {
            let Some(Ok(event)) = host.inbox.as_ref().map(Receiver::try_recv) else {
                break;
            };
            replica.queued.fetch_sub(1, Ordering::SeqCst);
            handled += 1;
            // a crashed replica discards its traffic
            let live = host.process.as_ref().is_some_and(|p| self.live(id, p));
            match event {
                ReplicaEvent::Input(input) if live => {
                    self.step(i, host, |p, ctx| p.on_input(input, ctx));
                }
                ReplicaEvent::Message(from, m) if live => {
                    self.step(i, host, |p, ctx| p.on_message(from, m, ctx));
                }
                ReplicaEvent::Input(_) | ReplicaEvent::Message(..) => {}
                ReplicaEvent::Restart => {
                    // come back through the factory
                    self.release(i, host, visit);
                    host.rt.timers.clear();
                    self.ctl.uncrash(id);
                    self.start(i, host);
                    break;
                }
                ReplicaEvent::Stop(ret) => {
                    self.release(i, host, visit);
                    host.inbox = None;
                    if let Some(process) = host.process.take() {
                        let _ = ret.send(process);
                    }
                    self.wakes.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
            self.run_due(i, host);
        }
        if handled == 0 {
            if self.next_due(host) > self.start.elapsed().as_nanos() as u64 {
                return false;
            }
            self.run_due(i, host);
        }
        self.release(i, host, visit);
        self.wakes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// What follows every step the mailbox fed: the due timers fire and
    /// internal steps run until passive. A crashed process executes
    /// nothing — its due timers are discarded, as a dead process's would
    /// be — and so does one that crash-stopped itself, until an explicit
    /// Restart rebuilds it.
    fn run_due(&self, i: usize, host: &mut Host<P>) {
        let id = ReplicaId::new(i as u32);
        let now = Instant::now();
        self.step(i, host, |p, ctx| {
            let live = self.live(id, p);
            while let Some(Reverse((due, tid))) = ctx.rt.timers.peek().copied() {
                if due > now {
                    break;
                }
                ctx.rt.timers.pop();
                if live {
                    p.on_timer(TimerId::new(tid), ctx);
                }
            }
            if live {
                while p.on_internal(ctx) {}
            }
        });
    }

    /// Ends a wake (steps 2–4). A process that is down releases no
    /// frames, and if it is down once the barrier ran, the wake's frames
    /// are dropped and its outputs stay unreleased: the facts backing
    /// them may never have become durable (a cursor report for unlogged
    /// deliveries would let peers truncate history this replica cannot
    /// re-derive).
    fn release(&self, i: usize, host: &mut Host<P>, visit: &mut [bool]) {
        let id = ReplicaId::new(i as u32);
        let settled = self.step(i, host, |p, ctx| {
            if self.live(id, p) {
                p.release_frames(ctx);
                p.barrier();
            }
            self.live(id, p).then(|| p.drain_outputs())
        });
        match settled.flatten() {
            Some(outputs) => {
                if !outputs.is_empty() {
                    (host.sink)(outputs);
                }
                self.deliver(id, &mut host.rt.outbox, visit);
            }
            None => host.rt.outbox.clear(),
        }
    }

    /// The links: puts the frames one wake of `from` produced into their
    /// destinations' mailboxes, marks in `visit` the peers they reached,
    /// and counts them. The fault model mirrors the simulator's — a
    /// crashed endpoint or a partition crossing drops the frame, and
    /// protocol retransmission recovers. So does a full mailbox (a lossy
    /// link): a wake never waits on a peer.
    fn deliver(&self, from: ReplicaId, outbox: &mut Vec<(ReplicaId, P::Msg)>, visit: &mut [bool]) {
        let mut frames = 0;
        for (to, msg) in outbox.drain(..) {
            if self.ctl.is_crashed(from) || self.ctl.is_crashed(to) || self.ctl.separated(from, to)
            {
                continue;
            }
            let Some(peer) = self.replicas.get(to.index()) else {
                continue;
            };
            // full/stopped = dropped
            if peer
                .mailbox
                .try_send(ReplicaEvent::Message(from, msg))
                .is_ok()
            {
                peer.queued.fetch_add(1, Ordering::SeqCst);
                if to != from {
                    frames += 1;
                    visit[to.index()] = true;
                }
            }
        }
        // as in `push`: the peers' counts before this thread's `try_lock`s
        fence(Ordering::SeqCst);
        self.peer_frames.fetch_add(frames, Ordering::Relaxed);
    }
}

/// A replica's own thread. It builds and starts the process, then sleeps
/// until the replica's earliest timer or until something wakes it early
/// — a wake on another thread that armed a sooner timer, a `Stop`, the
/// cluster handle going away — and runs what is due: the timers, and
/// whatever the mailbox holds that no other thread took. It is the only
/// thread that waits for the replica's lock, and it holds no other lock
/// while it waits. It ends once the replica stopped or the handle is
/// gone.
fn own<P: Process>(shared: Arc<Shared<P>>, i: usize) {
    let replica = &shared.replicas[i];
    let _ = replica.owner.set(std::thread::current());
    let mut visit = vec![false; shared.replicas.len()];
    while !shared.closed.load(Ordering::SeqCst) {
        let stopped = {
            let mut host = replica.host.lock();
            if host.process.is_none() && host.inbox.is_some() {
                shared.start(i, &mut host);
                shared.release(i, &mut host, &mut visit);
            }
            while shared.wake(i, &mut host, &mut visit) {}
            replica
                .sleeps_until
                .store(shared.next_due(&host), Ordering::SeqCst);
            host.inbox.is_none()
        };
        // what arrived while the lock was held, and the peers reached
        fence(Ordering::SeqCst);
        if replica.queued.load(Ordering::SeqCst) > 0 {
            visit[i] = true;
        }
        shared.visit(i, &mut visit);
        if stopped {
            return;
        }
        match replica.sleeps_until.load(Ordering::SeqCst) {
            u64::MAX => std::thread::park(),
            due => {
                let now = shared.start.elapsed().as_nanos() as u64;
                if due > now {
                    std::thread::park_timeout(Duration::from_nanos(due - now));
                }
            }
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
        // regression: a wake blocked publishing into a full (bounded)
        // output channel must still let its replica reach its Stop —
        // shutdown drains the channel while waiting, and hands the Stop
        // to the replica's own thread instead of running it. The wakes
        // run on the client's thread, so that is the one that wedges.
        let cluster = bayou_cluster::<Counter>(LiveConfig::new(2).with_channel_capacity(8));
        let shared = Arc::clone(&cluster.shared);
        let client = std::thread::spawn(move || {
            for _ in 0..12 {
                shared.invoke(0, ReplicaEvent::Input(weak(CounterOp::Add(1))));
            }
        });
        // give the client time to wedge against the full output channel
        std::thread::sleep(Duration::from_millis(300));
        let hosts = cluster.shutdown();
        assert_eq!(hosts.len(), 2, "shutdown returned all replicas");
        client.join().expect("the client's invokes return");
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
/// in which order: per-sender FIFO, also under contention; a full
/// mailbox loses a peer's frame but only delays a client's input;
/// nothing enters or leaves a crashed replica or crosses a partition;
/// control events queued behind discarded traffic are honoured; a timer
/// fires at its deadline, also one armed by a wake on a client's thread.
/// And the wake's: it runs on the thread that brought its work, or on
/// the one already running the replica; a failed barrier releases
/// nothing of its wake; a wake's outputs reach the sink before its
/// frames reach any peer; a `Restart` or `Stop` in the middle of a drain
/// loses no output.
///
/// Where an interleaving matters, a `Held` input parks a helper thread
/// inside the replica's handler until the test releases it — the thread
/// that invokes a held input is the one that runs it, so it is never the
/// test's own; the events queued meanwhile are handled in the same wake.
#[cfg(test)]
mod mailbox_contract {
    use super::*;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    enum Do {
        /// Send the number to a peer and report `Sent`.
        Send(ReplicaId, u32),
        /// Report `Noted`.
        Note(u32),
        /// Tell the test which thread runs the handler, stay in it until
        /// released, then send as `Send` does.
        Held(
            mpsc::Sender<ThreadId>,
            mpsc::Receiver<()>,
            Option<(ReplicaId, u32)>,
        ),
        /// Arm a timer, report `Armed`, and report `Fired` with how long
        /// it took.
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
        Armed,
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
                    entered
                        .send(std::thread::current().id())
                        .expect("test waits for the handler");
                    release.recv().expect("test releases the handler");
                    if let Some((to, k)) = send {
                        self.on_input(Do::Send(to, k), ctx);
                    }
                }
                Do::Timer(after) => {
                    self.armed = Some(Instant::now());
                    ctx.set_timer(VirtualTime::from_nanos(after.as_nanos() as u64));
                    self.seen.push(Seen::Armed);
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

    /// A replica parked inside a handler on a helper thread.
    struct Held {
        release: mpsc::Sender<()>,
        /// The thread running the handler.
        holder: ThreadId,
        helper: JoinHandle<()>,
    }

    impl Held {
        /// Lets the handler return.
        fn release(&self) {
            self.release.send(()).expect("the replica is held");
        }

        /// Waits for the helper's invoke to return.
        fn join(self) {
            self.helper.join().expect("the helper's invoke returns");
        }
    }

    /// Parks `replica` inside a handler, invoked from a helper thread.
    fn hold(
        cluster: &LiveCluster<Probe>,
        replica: ReplicaId,
        send: Option<(ReplicaId, u32)>,
    ) -> Held {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let shared = Arc::clone(&cluster.shared);
        let held = ReplicaEvent::Input(Do::Held(entered_tx, release_rx, send));
        let helper = std::thread::spawn(move || shared.invoke(replica.index(), held));
        let holder = entered_rx.recv().expect("the replica reaches the handler");
        Held {
            release,
            holder,
            helper,
        }
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
    fn contended_invokes_are_each_handled_once_in_per_sender_order() {
        // four client threads invoke the same three replicas, each input
        // sending a frame on to the next replica; the mailboxes hold
        // every event of the run, so no frame may be lost either
        const CLIENTS: u32 = 4;
        const EACH: u32 = 10_000;
        let (tx, rx) = mpsc::channel();
        let config = LiveConfig::new(3).with_channel_capacity(1 << 16);
        let cluster = LiveCluster::with_sink(
            config,
            |_, _| Probe::default(),
            |id| {
                let tx = tx.clone();
                move |outputs: Vec<Seen>| {
                    outputs.into_iter().for_each(|s| tx.send((id, s)).unwrap())
                }
            },
        );
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let cluster = &cluster;
                s.spawn(move || {
                    for k in 0..EACH {
                        let at = (client + k) % 3;
                        cluster.invoke(r(at), Do::Send(r((at + 1) % 3), client * EACH + k));
                    }
                });
            }
        });
        let mut sent = vec![Vec::new(); 3];
        let mut got = vec![Vec::new(); 3];
        while got.iter().map(Vec::len).sum::<usize>() < (CLIENTS * EACH) as usize {
            match rx.recv_timeout(Duration::from_secs(5)).expect("an output") {
                (at, Seen::Sent(k)) => sent[at.index()].push(k),
                (at, Seen::Got(from, k)) => {
                    assert_eq!(from.index(), (at.index() + 2) % 3, "{k} from {from:?}");
                    got[at.index()].push(k);
                }
                (_, Seen::Started) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        for at in 0..3 {
            // each client's inputs to this replica, once each, in order
            for client in 0..CLIENTS {
                let mine: Vec<u32> = sent[at]
                    .iter()
                    .copied()
                    .filter(|k| k / EACH == client)
                    .collect();
                let expected: Vec<u32> = (0..EACH)
                    .filter(|k| (client + k) % 3 == at as u32)
                    .map(|k| client * EACH + k)
                    .collect();
                assert_eq!(mine, expected, "client {client} at replica {at}");
            }
            // and the frames a replica sent, in the order it sent them
            assert_eq!(got[(at + 1) % 3], sent[at], "frames from replica {at}");
        }
        assert_eq!(cluster.wake_counts().peer_frames, u64::from(CLIENTS * EACH));
        cluster.shutdown();
    }

    #[test]
    fn a_full_mailbox_drops_a_peers_frame_and_delays_a_clients_input() {
        let cluster = probes(2, 2);
        let held = hold(&cluster, r(1), None);
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
            held.release();
            // the invoke may run the note's wake itself, which waits for
            // room in the output channel
            assert_eq!(next(cluster), (r(1), Seen::Got(r(0), 10)));
            assert_eq!(next(cluster), (r(1), Seen::Got(r(0), 11)));
            assert_eq!(next(cluster), (r(1), Seen::Noted(1)));
            done_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("invoke completes once there is room");
        });
        held.join();
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
        let held = hold(&cluster, r(1), Some((r(0), 4)));
        cluster.control().crash(r(1));
        held.release();
        held.join();

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

    /// A cluster of probes whose sinks report each output with the thread
    /// that ran its wake.
    fn traced(
        n: usize,
    ) -> (
        LiveCluster<Probe>,
        mpsc::Receiver<(ReplicaId, Seen, ThreadId)>,
    ) {
        let (tx, rx) = mpsc::channel();
        let cluster = LiveCluster::with_sink(
            LiveConfig::new(n),
            |_, _| Probe::default(),
            |id| {
                let tx = tx.clone();
                move |outputs: Vec<Seen>| {
                    let thread = std::thread::current().id();
                    for seen in outputs {
                        let _ = tx.send((id, seen, thread));
                    }
                }
            },
        );
        (cluster, rx)
    }

    fn traced_next(
        rx: &mpsc::Receiver<(ReplicaId, Seen, ThreadId)>,
    ) -> (ReplicaId, Seen, ThreadId) {
        rx.recv_timeout(Duration::from_secs(5)).expect("an output")
    }

    #[test]
    fn a_sink_runs_on_the_thread_that_ran_the_wake() {
        let (cluster, rx) = traced(2);
        // each replica's own thread starts it
        let owners: Vec<ThreadId> = cluster.threads.iter().map(|t| t.thread().id()).collect();
        for _ in 0..2 {
            let (id, seen, thread) = traced_next(&rx);
            assert_eq!((seen, thread), (Seen::Started, owners[id.index()]));
        }
        // an input to a replica another thread is running is left to
        // that thread, which takes it into the same wake
        let held = hold(&cluster, r(1), None);
        cluster.invoke(r(1), Do::Note(7));
        held.release();
        assert_eq!(traced_next(&rx), (r(1), Seen::Noted(7), held.holder));
        held.join();
        cluster.shutdown();
    }

    #[test]
    fn an_idle_replicas_wake_runs_on_the_invoking_thread() {
        // no thread of their own: every wake runs where it is invoked
        let (tx, rx) = mpsc::channel();
        let shared = Shared::new(
            &LiveConfig::new(2),
            |_, _| Probe::default(),
            |id| {
                let tx = tx.clone();
                move |outputs: Vec<Seen>| {
                    let thread = std::thread::current().id();
                    for seen in outputs {
                        let _ = tx.send((id, seen, thread));
                    }
                }
            },
        );
        let me = std::thread::current().id();
        for i in 0..2 {
            let mut host = shared.replicas[i].host.lock();
            shared.start(i, &mut host);
            shared.release(i, &mut host, &mut [false; 2]);
            assert_eq!(traced_next(&rx), (r(i as u32), Seen::Started, me));
        }
        // the input's wake and the wake of the peer its frame reached
        shared.invoke(1, ReplicaEvent::Input(Do::Send(r(0), 7)));
        assert_eq!(traced_next(&rx), (r(1), Seen::Sent(7), me));
        assert_eq!(traced_next(&rx), (r(0), Seen::Got(r(1), 7), me));
        assert!(rx.try_recv().is_err(), "one output each");
    }

    /// Runs a lone replica, crashed from the start or not, over a
    /// mailbox filled beforehand, on this thread as its own: it returns
    /// at the `Stop` that ends `events`.
    fn run_alone(crashed: bool, events: Vec<ReplicaEvent<Probe>>) -> (Vec<Seen>, Probe) {
        let (out, outputs) = bounded(64);
        let config = LiveConfig::new(1).with_channel_capacity(events.len() + 1);
        let shared = Shared::new(
            &config,
            |_, _| Probe::default(),
            move |_| {
                let out = out.clone();
                move |seen: Vec<Seen>| {
                    seen.into_iter()
                        .for_each(|seen| out.send(seen).expect("room"))
                }
            },
        );
        let (ret_tx, ret_rx) = bounded(1);
        for event in events.into_iter().chain([ReplicaEvent::Stop(ret_tx)]) {
            shared.push(0, event);
        }
        if crashed {
            shared.ctl.crash(r(0));
        }
        own(Arc::clone(&shared), 0);
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
        let held = hold(&cluster, r(0), Some((r(1), 1)));
        cluster.invoke(r(0), Do::Send(r(1), 2));
        cluster.invoke(r(0), Do::Note(3));
        cluster.invoke(r(0), Do::FailBarrier);
        held.release();
        held.join();
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

        // the wake runs on the client's thread, so the client is not this
        // one: it stays in the sink until released
        std::thread::scope(|s| {
            let cluster = &cluster;
            s.spawn(move || cluster.invoke(r(0), Do::Send(r(1), 1)));
            entered.recv().expect("replica 0's sink gets the output");
            assert!(
                rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "a frame left before its wake's outputs were handed over"
            );
            release.send(()).expect("the sink is held");
            let got = [next(), next()];
            assert!(got.contains(&(r(0), Seen::Sent(1))), "{got:?}");
            assert!(got.contains(&(r(1), Seen::Got(r(0), 1))), "{got:?}");
        });
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
                assert_eq!(next(&cluster), (r(0), Seen::Armed));
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

    #[test]
    fn a_timer_armed_by_an_inline_wake_fires_on_time() {
        // the wake that arms the timer runs on this thread; the replica's
        // own thread, asleep with no deadline, must be woken to take the
        // new one, and fires the timer
        const AFTER: Duration = Duration::from_millis(2);
        let (cluster, rx) = traced(1);
        assert_eq!(traced_next(&rx).1, Seen::Started);
        let owner = cluster.threads[0].thread().id();
        let me = std::thread::current().id();
        // an output leaves inside its wake, so the thread that reported
        // the last one may still hold the replica when the next input
        // comes: only the timers armed on this thread are counted
        let mut took: Vec<Duration> = Vec::new();
        for _ in 0..50 {
            if took.len() == 5 {
                break;
            }
            drop(cluster.shared.replicas[0].host.lock());
            cluster.invoke(r(0), Do::Timer(AFTER));
            let (_, armed, arming) = traced_next(&rx);
            assert_eq!(armed, Seen::Armed);
            match traced_next(&rx) {
                (_, Seen::Fired(t), thread) if thread == owner => {
                    if arming == me {
                        took.push(t);
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(took.len(), 5, "the timers were armed on other threads");
        took.sort_unstable();
        assert!(took[0] >= AFTER, "fired early: {took:?}");
        assert!(took[2] <= Duration::from_millis(10), "fired late: {took:?}");
        cluster.shutdown();
    }
}
