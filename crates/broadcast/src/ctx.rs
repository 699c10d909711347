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
/// [`StepCoalescer`] (attach at [`StepBuffers::open`]).
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

/// A *frame coalescer*: buffers every message the owner's handler steps
/// send, per destination, until the owner releases them as one wrapped
/// frame per destination.
///
/// This is the top layer of the batched commit pipeline's message
/// coalescing: runtimes apply a step's sends only once the step has
/// ended, so regrouping them per peer changes nothing semantically — but
/// it turns the per-slot message storms of a saturated cluster (64
/// `Accept`s to the same acceptor from one `Submit` batch, 64 `Decide`s
/// to the same follower from one `Accepted` frame, a retransmission
/// burst after a partition heals) into *one* wire message each, and
/// with it one delivery event, one handler step and one WAL sync at the
/// receiver.
///
/// Single-message buffers are sent unwrapped, so an idle cluster's
/// traffic is byte-for-byte what it would be without the coalescer.
///
/// Opened over a [`StepBuffers`], which owns the buffers between steps
/// and holds the frames until [`StepBuffers::release`] — steady-state
/// steps reuse capacity instead of allocating per step.
pub struct StepCoalescer<'a, M> {
    outer: &'a mut dyn Context<M>,
    store: StepBuffers<M>,
    meter: Option<FrameMeter<M>>,
}

/// A [`StepCoalescer`]'s backing store: per-destination buffers plus the
/// first-send destination order. It holds the frames of every step
/// opened over it until [`StepBuffers::release`] sends them — the owner
/// calls that once per unit of work its runtime ends
/// (`Process::release_frames`), so frames from all the unit's steps to
/// one peer leave as one frame.
#[derive(Debug)]
pub struct StepBuffers<M> {
    /// Per-destination buffers (indexed by replica).
    bufs: Vec<Vec<M>>,
    /// First-send order of destinations (deterministic release order);
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

impl<M> StepBuffers<M> {
    /// Opens a coalescer over `ctx` for one handler step, handing it the
    /// buffers — with whatever earlier steps left in them, so this
    /// step's sends append after theirs in the same per-peer order.
    /// With a wire-bytes `meter`, an out-of-range send, which passes
    /// straight through to `ctx`, is measured first; `None` costs
    /// nothing. The step must end in [`StepBuffers::put_back`].
    pub fn open<'a>(
        &mut self,
        ctx: &'a mut dyn Context<M>,
        meter: Option<FrameMeter<M>>,
    ) -> StepCoalescer<'a, M> {
        let mut store = std::mem::take(self);
        store.bufs.resize_with(ctx.cluster_size(), Vec::new);
        StepCoalescer {
            outer: ctx,
            store,
            meter,
        }
    }

    /// Ends a step: takes the buffers back, holding the step's frames
    /// for the next release.
    pub fn put_back(&mut self, cctx: StepCoalescer<'_, M>) {
        *self = cctx.store;
    }

    /// Sends every held frame through `ctx`, one per destination in
    /// first-send order, and keeps the emptied buffers for reuse. `wrap`
    /// builds a frame from a multi-message buffer; with a `meter`, every
    /// frame is measured first.
    pub fn release(
        &mut self,
        ctx: &mut dyn Context<M>,
        wrap: fn(Vec<M>) -> M,
        meter: Option<FrameMeter<M>>,
    ) {
        for to in self.order.drain(..) {
            let buf = &mut self.bufs[to.index()];
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
            ctx.send(to, frame);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Collect {
        sent: Vec<(ReplicaId, String)>,
        clock: i64,
        timers: u64,
    }

    impl Context<String> for Collect {
        fn id(&self) -> ReplicaId {
            ReplicaId::new(3)
        }
        fn cluster_size(&self) -> usize {
            5
        }
        fn now(&self) -> VirtualTime {
            VirtualTime::from_millis(8)
        }
        fn clock(&mut self) -> Timestamp {
            self.clock += 1;
            Timestamp::new(self.clock)
        }
        fn send(&mut self, to: ReplicaId, msg: String) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _delay: VirtualTime) -> TimerId {
            self.timers += 1;
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

    #[test]
    fn held_frames_leave_once_per_peer_in_first_send_order() {
        let join = |msgs: Vec<String>| msgs.join("+");
        let mut outer = Collect::default();
        let mut frames = StepBuffers::default();
        for sends in [&[(2, "a"), (1, "b")][..], &[(1, "c")][..]] {
            let mut cctx = frames.open(&mut outer, None);
            for (to, msg) in sends {
                cctx.send(ReplicaId::new(*to), msg.to_string());
            }
            frames.put_back(cctx);
        }
        assert!(outer.sent.is_empty(), "a step only holds its frames");
        frames.release(&mut outer, join, None);
        let sent = |to, frame: &str| (ReplicaId::new(to), frame.to_string());
        assert_eq!(outer.sent, [sent(2, "a"), sent(1, "b+c")]);
        frames.release(&mut outer, join, None);
        assert_eq!(outer.sent.len(), 2, "a release empties the buffers");
    }
}
