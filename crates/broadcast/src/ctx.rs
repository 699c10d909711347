//! Context adapter that re-wraps message types between protocol layers.

use bayou_types::{Context, ReplicaId, TimerId, Timestamp, VirtualTime, Wire};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Adapts a [`Context`] over an outer (composed) message type into a
/// [`Context`] over an inner (layer-local) message type, by wrapping every
/// outgoing message with a function.
///
/// This is what lets the Bayou replica own a single wire enum while its
/// embedded reliable-broadcast and total-order-broadcast components each
/// send their own message types.
///
/// # Examples
///
/// ```
/// use bayou_broadcast::MapCtx;
/// use bayou_types::Context;
///
/// #[derive(Debug, Clone)]
/// enum Wire {
///     A(u32),
/// }
///
/// fn layer_logic(ctx: &mut dyn Context<u32>) {
///     ctx.send(bayou_types::ReplicaId::new(0), 7);
/// }
///
/// fn composed(ctx: &mut dyn Context<Wire>) {
///     let mut inner = MapCtx::new(ctx, Wire::A);
///     layer_logic(&mut inner);
/// }
/// ```
pub struct MapCtx<'a, I, O> {
    outer: &'a mut dyn Context<O>,
    wrap: fn(I) -> O,
}

impl<'a, I, O> MapCtx<'a, I, O> {
    /// Wraps `outer`, converting each sent message with `wrap`.
    pub fn new(outer: &'a mut dyn Context<O>, wrap: fn(I) -> O) -> Self {
        MapCtx { outer, wrap }
    }
}

impl<I, O> Context<I> for MapCtx<'_, I, O> {
    fn id(&self) -> ReplicaId {
        self.outer.id()
    }

    fn cluster_size(&self) -> usize {
        self.outer.cluster_size()
    }

    fn now(&self) -> VirtualTime {
        self.outer.now()
    }

    fn clock(&mut self) -> Timestamp {
        self.outer.clock()
    }

    fn send(&mut self, to: ReplicaId, msg: I) {
        self.outer.send(to, (self.wrap)(msg));
    }

    fn set_timer(&mut self, delay: VirtualTime) -> TimerId {
        self.outer.set_timer(delay)
    }

    fn random(&mut self) -> u64 {
        self.outer.random()
    }

    fn omega(&mut self) -> ReplicaId {
        self.outer.omega()
    }

    fn omega_for(&mut self, lane: u32) -> ReplicaId {
        self.outer.omega_for(lane)
    }
}

/// Accounts the encoded size of every frame leaving a
/// [`StepCoalescer`] (attach at [`StepDeferral::open`]).
///
/// Each frame's serialized size is computed under the owner's wire
/// codec; the byte counter is shared (the owner keeps a clone of the
/// meter and drains it via [`FrameMeter::take_bytes`], typically from
/// `Process::take_wire_bytes`). The counter is atomic only so the meter
/// is `Send` alongside its replica — each replica runs single-threaded,
/// so metering stays deterministic.
pub struct FrameMeter<M> {
    measure: Arc<dyn Fn(&M) -> u64 + Send + Sync>,
    bytes: Arc<AtomicU64>,
}

impl<M> Clone for FrameMeter<M> {
    fn clone(&self) -> Self {
        FrameMeter {
            measure: Arc::clone(&self.measure),
            bytes: Arc::clone(&self.bytes),
        }
    }
}

impl<M> std::fmt::Debug for FrameMeter<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameMeter")
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .finish()
    }
}

impl<M> FrameMeter<M> {
    /// A meter measuring each frame under its real [`Wire`] codec
    /// (encoded into a reused scratch buffer, counted, discarded).
    pub fn wire() -> Self
    where
        M: Wire,
    {
        let scratch = Mutex::new(Vec::<u8>::new());
        FrameMeter {
            measure: Arc::new(move |m: &M| {
                let mut buf = scratch.lock().unwrap_or_else(|e| e.into_inner());
                buf.clear();
                m.encode(&mut buf);
                buf.len() as u64
            }),
            bytes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Accounts one outgoing frame.
    pub fn record(&self, msg: &M) {
        self.bytes.fetch_add((self.measure)(msg), Ordering::Relaxed);
    }

    /// Drains the bytes accounted since the previous call.
    pub fn take_bytes(&self) -> u64 {
        self.bytes.swap(0, Ordering::Relaxed)
    }
}

/// A step-end *frame coalescer*: buffers every message a handler step
/// sends, per destination, and flushes each destination's buffer as one
/// wrapped frame when the step ends.
///
/// This is the top layer of the batched commit pipeline's message
/// coalescing: runtimes already apply a step's sends atomically at
/// handler completion, so regrouping them per peer changes nothing
/// semantically — but it turns the per-slot message storms of a
/// saturated cluster (64 `Accept`s to the same acceptor from one
/// `Submit` batch, 64 `Decide`s to the same follower from one
/// `Accepted` frame, a retransmission burst after a partition heals)
/// into *one* wire message each, and with it one delivery event, one
/// handler step and one WAL sync at the receiver.
///
/// Single-message buffers are sent unwrapped, so an idle cluster's
/// traffic is byte-for-byte what it would be without the coalescer.
///
/// Opened and closed through [`StepDeferral`], which owns the buffer
/// backing store between steps — steady-state steps reuse capacity
/// instead of allocating per step.
pub struct StepCoalescer<'a, M> {
    outer: &'a mut dyn Context<M>,
    wrap: fn(Vec<M>) -> M,
    store: StepBuffers<M>,
    meter: Option<FrameMeter<M>>,
}

/// The reusable backing store of a [`StepCoalescer`]: per-destination
/// buffers plus the first-send destination order, round-tripped through
/// every step so steady-state steps allocate nothing.
#[derive(Debug)]
struct StepBuffers<M> {
    /// Per-destination buffers (indexed by replica).
    bufs: Vec<Vec<M>>,
    /// First-send order of destinations (deterministic flush order);
    /// empty exactly when no destination holds a buffered message.
    order: Vec<ReplicaId>,
}

impl<M> Default for StepBuffers<M> {
    fn default() -> Self {
        StepBuffers {
            bufs: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl<'a, M> StepCoalescer<'a, M> {
    /// Wraps `outer` for one handler step. `wrap` builds the frame
    /// message from a multi-message buffer; `store` is the reusable
    /// backing store from the previous step — empty after a normal
    /// flush, or still holding *parked* frames when the owner deferred
    /// the previous step's flush (cross-step coalescing), in which case
    /// this step's sends append after them in the same per-peer order.
    /// With a wire-bytes `meter`, every frame this coalescer hands to
    /// the underlying context (out-of-range pass-through sends included)
    /// is measured first; `None` costs nothing.
    fn new(
        outer: &'a mut dyn Context<M>,
        wrap: fn(Vec<M>) -> M,
        meter: Option<FrameMeter<M>>,
        mut store: StepBuffers<M>,
    ) -> Self {
        let n = outer.cluster_size();
        store.bufs.resize_with(n, Vec::new);
        StepCoalescer {
            outer,
            wrap,
            store,
            meter,
        }
    }

    /// Flushes every destination's buffer (in first-send order) as one
    /// frame each and returns the emptied backing store for reuse.
    fn finish(self) -> StepBuffers<M> {
        let StepCoalescer {
            outer,
            wrap,
            mut store,
            meter,
        } = self;
        for to in store.order.drain(..) {
            let buf = &mut store.bufs[to.index()];
            let frame = if buf.len() == 1 {
                // popping keeps the buffer's capacity for the next step
                buf.pop().expect("len checked")
            } else {
                // a real frame owns its Vec (it goes on the wire)
                wrap(std::mem::take(buf))
            };
            if let Some(m) = &meter {
                m.record(&frame);
            }
            outer.send(to, frame);
        }
        store
    }
}

impl<M> Context<M> for StepCoalescer<'_, M> {
    fn id(&self) -> ReplicaId {
        self.outer.id()
    }

    fn cluster_size(&self) -> usize {
        self.outer.cluster_size()
    }

    fn now(&self) -> VirtualTime {
        self.outer.now()
    }

    fn clock(&mut self) -> Timestamp {
        self.outer.clock()
    }

    fn send(&mut self, to: ReplicaId, msg: M) {
        if to.index() >= self.store.bufs.len() {
            if let Some(m) = &self.meter {
                m.record(&msg);
            }
            self.outer.send(to, msg);
            return;
        }
        if self.store.bufs[to.index()].is_empty() {
            self.store.order.push(to);
        }
        self.store.bufs[to.index()].push(msg);
    }

    fn set_timer(&mut self, delay: VirtualTime) -> TimerId {
        self.outer.set_timer(delay)
    }

    fn random(&mut self) -> u64 {
        self.outer.random()
    }

    fn omega(&mut self) -> ReplicaId {
        self.outer.omega()
    }

    fn omega_for(&mut self, lane: u32) -> ReplicaId {
        self.outer.omega_for(lane)
    }
}

/// The cross-step *flush-deferral* state machine: owns a step
/// coalescer's per-peer buffers between handler steps and decides, at
/// each step end, whether the step's frames leave now or stay *parked*
/// so the next step's sends can share them.
///
/// With a budget, the first park fixes a deadline one budget ahead and
/// arms a flush timer; subsequent steps keep appending until a step
/// closes at-or-past the deadline ([`StepDeferral::close`]) or the timer
/// fires with the owner idle ([`StepDeferral::flush`]), at which point
/// everything parked flushes as one set of per-peer frames. Parking
/// sends nothing: the coalescer's buffers simply come back here intact.
/// Without a budget (`None`) every step flushes at its end, and so does
/// an *urgent* step — one the owner knows an operation is waiting on —
/// taking everything parked with it. Either way a frame waits here at
/// most one budget, and never wedges.
///
/// The owner — the process hosting a replica's groups, parking once for
/// all of them — keeps its write-ahead contract by settling the step's
/// storage sync *before* calling `close`/`flush`: nothing leaves the
/// process from anywhere else.
#[derive(Debug)]
pub struct StepDeferral<M> {
    /// The coalescer's reusable backing store; carries parked frames
    /// across steps until their deadline.
    frames: StepBuffers<M>,
    /// How long frames may stay parked; `None` flushes every step.
    budget: Option<VirtualTime>,
    /// Deadline of the currently parked frames (set at first park).
    defer_deadline: Option<VirtualTime>,
    /// The timer guaranteeing parked frames flush even if the owner goes
    /// idle (no further steps before the deadline).
    defer_timer: Option<TimerId>,
}

impl<M> StepDeferral<M> {
    /// Creates the state machine with the given budget and nothing
    /// parked.
    pub fn new(budget: Option<VirtualTime>) -> Self {
        StepDeferral {
            frames: StepBuffers::default(),
            budget,
            defer_deadline: None,
            defer_timer: None,
        }
    }

    /// The flush-deferral budget, if any.
    pub fn budget(&self) -> Option<VirtualTime> {
        self.budget
    }

    /// Sets (or clears) the flush-deferral budget.
    pub fn set_budget(&mut self, budget: Option<VirtualTime>) {
        self.budget = budget;
    }

    /// Opens the step coalescer over `ctx` for one handler step, handing
    /// it the buffers (and whatever is parked in them) and the owner's
    /// wire-bytes meter, if any. The step must end in exactly one of
    /// [`StepDeferral::close`], [`StepDeferral::flush`] or
    /// [`StepDeferral::put_back`].
    pub fn open<'a>(
        &mut self,
        ctx: &'a mut dyn Context<M>,
        wrap: fn(Vec<M>) -> M,
        meter: Option<FrameMeter<M>>,
    ) -> StepCoalescer<'a, M> {
        StepCoalescer::new(ctx, wrap, meter, std::mem::take(&mut self.frames))
    }

    /// Closes a step that did work: flushes the step's frames, or parks
    /// them until the deadline (arming the flush timer on first park).
    ///
    /// An `urgent` step — one whose frames an operation is blocked on —
    /// never parks: it flushes everything parked plus its own frames
    /// now, exactly like [`StepDeferral::flush`], and forgets the armed
    /// timer (its later fire is no longer [`StepDeferral::owns_timer`]).
    pub fn close(&mut self, mut cctx: StepCoalescer<'_, M>, urgent: bool) {
        let budget = match self.budget {
            Some(budget) if !urgent => budget,
            _ => return self.flush(cctx),
        };
        if cctx.store.order.is_empty() {
            self.defer_deadline = None;
            self.frames = cctx.store;
            return;
        }
        let now = cctx.now();
        let deadline = *self.defer_deadline.get_or_insert(now + budget);
        if now >= deadline {
            self.defer_deadline = None;
            self.defer_timer = None;
            self.frames = cctx.finish();
        } else {
            if self.defer_timer.is_none() {
                self.defer_timer = Some(cctx.set_timer(deadline - now));
            }
            self.frames = cctx.store;
        }
    }

    /// Whether `timer` is the armed deferred-flush timer. Its fire must
    /// end in [`StepDeferral::flush`], not `close` — which would re-park
    /// the frames with a fresh deadline and defer forever.
    pub fn owns_timer(&self, timer: TimerId) -> bool {
        self.defer_timer == Some(timer)
    }

    /// The deferred-flush timer fired with the owner idle: flushes
    /// everything parked, unconditionally, and forgets deadline and timer.
    pub fn flush(&mut self, cctx: StepCoalescer<'_, M>) {
        self.defer_timer = None;
        self.defer_deadline = None;
        self.frames = cctx.finish();
    }

    /// Ends a *passive* step (a poll that found nothing to do): puts the
    /// buffers back untouched. The runtime refunds such a step and
    /// discards anything it buffered, so flushing parked frames or
    /// arming the timer here would lose them forever.
    pub fn put_back(&mut self, cctx: StepCoalescer<'_, M>) {
        self.frames = cctx.store;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Collect {
        sent: Vec<(ReplicaId, String)>,
        clock: i64,
        timers: u64,
        /// Delay of every armed timer, in arming order.
        armed: Vec<VirtualTime>,
        /// Offset added to the fixed 8 ms `now`.
        elapsed: VirtualTime,
    }

    impl Context<String> for Collect {
        fn id(&self) -> ReplicaId {
            ReplicaId::new(3)
        }
        fn cluster_size(&self) -> usize {
            5
        }
        fn now(&self) -> VirtualTime {
            VirtualTime::from_millis(8) + self.elapsed
        }
        fn clock(&mut self) -> Timestamp {
            self.clock += 1;
            Timestamp::new(self.clock)
        }
        fn send(&mut self, to: ReplicaId, msg: String) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, d: VirtualTime) -> TimerId {
            self.timers += 1;
            self.armed.push(d);
            TimerId::new(self.timers)
        }
        fn random(&mut self) -> u64 {
            99
        }
        fn omega(&mut self) -> ReplicaId {
            ReplicaId::new(0)
        }
    }

    #[test]
    fn wraps_sends_and_delegates_everything_else() {
        let mut outer = Collect::default();
        {
            let mut inner: MapCtx<'_, u32, String> =
                MapCtx::new(&mut outer, |v| format!("msg:{v}"));
            assert_eq!(inner.id(), ReplicaId::new(3));
            assert_eq!(inner.cluster_size(), 5);
            assert_eq!(inner.now(), VirtualTime::from_millis(8));
            assert_eq!(inner.clock(), Timestamp::new(1));
            assert_eq!(inner.random(), 99);
            assert_eq!(inner.omega(), ReplicaId::new(0));
            let t = inner.set_timer(VirtualTime::from_millis(1));
            assert_eq!(t, TimerId::new(1));
            inner.send(ReplicaId::new(1), 42);
        }
        assert_eq!(outer.sent, vec![(ReplicaId::new(1), "msg:42".to_string())]);
    }

    #[test]
    fn nested_mapping_composes() {
        let mut outer = Collect::default();
        {
            let mut mid: MapCtx<'_, u32, String> = MapCtx::new(&mut outer, |v| format!("L1:{v}"));
            let mut inner: MapCtx<'_, bool, u32> = MapCtx::new(&mut mid, |b| b as u32);
            inner.send(ReplicaId::new(2), true);
        }
        assert_eq!(outer.sent, vec![(ReplicaId::new(2), "L1:1".to_string())]);
    }

    fn join(msgs: Vec<String>) -> String {
        msgs.join("+")
    }

    // one step sending each `(to, msg)`, closed through `d`
    fn step_to(
        d: &mut StepDeferral<String>,
        outer: &mut Collect,
        sends: &[(u32, &str)],
        urgent: bool,
    ) {
        let mut cctx = d.open(outer, join, None);
        for (to, msg) in sends {
            cctx.send(ReplicaId::new(*to), msg.to_string());
        }
        d.close(cctx, urgent);
    }

    // one ordinary step sending `msg` to replica 1
    fn step(d: &mut StepDeferral<String>, outer: &mut Collect, msg: &str) {
        step_to(d, outer, &[(1, msg)], false);
    }

    fn sent_to(to: u32, frame: &str) -> (ReplicaId, String) {
        (ReplicaId::new(to), frame.to_string())
    }

    #[test]
    fn deferral_parks_to_the_deadline_and_flushes_on_the_idle_timer() {
        let us = VirtualTime::from_micros;
        let sent_to_1 = |frame: &str| sent_to(1, frame);
        let mut outer = Collect::default();
        let mut d = StepDeferral::new(Some(us(40)));

        // park -> deadline flush: the first park arms the timer once,
        // later steps inside the budget append, and the step that closes
        // at the deadline flushes everything as one frame
        step(&mut d, &mut outer, "a");
        outer.elapsed = us(10);
        step(&mut d, &mut outer, "b");
        assert!(outer.sent.is_empty(), "inside the budget: parked");
        assert_eq!(outer.armed, vec![us(40)]);
        outer.elapsed = us(40);
        step(&mut d, &mut outer, "c");
        assert_eq!(outer.sent, vec![sent_to_1("a+b+c")]);

        // a passive poll far past the next deadline puts the buffers back
        // untouched: nothing flushes, nothing is armed
        step(&mut d, &mut outer, "d");
        assert_eq!(outer.armed, vec![us(40), us(40)], "fresh park, fresh timer");
        let timer = TimerId::new(outer.timers);
        outer.elapsed = VirtualTime::from_millis(1);
        let cctx = d.open(&mut outer, join, None);
        d.put_back(cctx);
        assert_eq!((outer.sent.len(), outer.armed.len()), (1, 2));

        // idle -> timer flush: the owner went idle, the timer fires
        assert!(d.owns_timer(timer) && !d.owns_timer(TimerId::new(99)));
        let cctx = d.open(&mut outer, join, None);
        d.flush(cctx);
        assert_eq!(outer.sent[1..], [sent_to_1("d")]);
        assert!(!d.owns_timer(timer), "the fired timer is forgotten");

        // without a budget every step flushes at its end
        d.set_budget(None);
        step(&mut d, &mut outer, "e");
        step(&mut d, &mut outer, "f");
        assert_eq!(outer.sent[2..], [sent_to_1("e"), sent_to_1("f")]);
        assert_eq!(outer.armed.len(), 2);
    }

    #[test]
    fn urgent_close_flushes_everything_parked_and_forgets_the_timer() {
        let us = VirtualTime::from_micros;
        let mut outer = Collect::default();
        let mut d = StepDeferral::new(Some(us(40)));

        // an ordinary step parks frames for two peers and arms the timer
        step_to(&mut d, &mut outer, &[(1, "a"), (2, "b")], false);
        assert!(outer.sent.is_empty());
        assert_eq!(outer.armed, vec![us(40)]);
        let stale = TimerId::new(outer.timers);

        // an urgent step inside the budget sends the parked frames and its
        // own as one frame per peer, in first-send order
        outer.elapsed = us(10);
        step_to(&mut d, &mut outer, &[(2, "c"), (1, "d")], true);
        assert_eq!(outer.sent, vec![sent_to(1, "a+d"), sent_to(2, "b+c")]);
        assert!(!d.owns_timer(stale), "the urgent flush forgets the timer");

        // the stale timer fires: the owner no longer recognises it, so it
        // runs an ordinary step, which finds nothing to flush or arm
        outer.elapsed = us(40);
        step_to(&mut d, &mut outer, &[], false);
        assert_eq!((outer.sent.len(), outer.armed.len()), (2, 1));

        // the next park gets a fresh deadline, one budget from its own
        // time (a kept deadline would fire at +50 µs and arm a 5 µs timer)
        outer.elapsed = us(45);
        step(&mut d, &mut outer, "e");
        assert_eq!(outer.armed, vec![us(40), us(40)]);
        outer.elapsed = us(84);
        step(&mut d, &mut outer, "f");
        assert_eq!(outer.sent.len(), 2, "inside the fresh budget: parked");
        outer.elapsed = us(85);
        step(&mut d, &mut outer, "g");
        assert_eq!(outer.sent[2..], [sent_to(1, "e+f+g")]);

        // without a budget a close resets the same way: a frame parked
        // before the budget was cleared leaves with the next step, the
        // timer is forgotten, and a restored budget starts a fresh park
        step(&mut d, &mut outer, "h");
        let parked = TimerId::new(outer.timers);
        d.set_budget(None);
        step(&mut d, &mut outer, "i");
        assert_eq!(outer.sent[3..], [sent_to(1, "h+i")]);
        assert!(!d.owns_timer(parked));
        d.set_budget(Some(us(40)));
        outer.elapsed = us(200);
        step(&mut d, &mut outer, "j");
        assert_eq!(outer.sent.len(), 4, "parked under the restored budget");
        assert_eq!(outer.armed[3..], [us(40)]);
    }
}
