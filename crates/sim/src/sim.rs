//! The simulation engine.

use crate::clock::{Clock, ClockConfig};
use crate::cpu::{Cpu, CpuConfig};
use crate::event::{Event, EventKind, EventQueue};
use crate::metrics::Metrics;
use crate::network::NetworkConfig;
use crate::omega::{OmegaOracle, Stability};
use bayou_types::{Context, Process, ReplicaId, TimerId, Timestamp, VirtualTime};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Configuration of a simulated run. A run is a pure function of the
/// configuration (including the seed) — rerunning with the same values
/// yields the identical trace.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of replicas.
    pub n: usize,
    /// Master random seed.
    pub seed: u64,
    /// Network delays and partitions.
    pub net: NetworkConfig,
    /// Per-replica clock models (empty = all default).
    pub clocks: Vec<ClockConfig>,
    /// Per-replica CPU models (empty = all default).
    pub cpus: Vec<CpuConfig>,
    /// Stable or asynchronous run (controls the Ω oracle).
    pub stability: Stability,
    /// Crash schedule: `(time, replica)` pairs.
    pub crashes: Vec<(VirtualTime, ReplicaId)>,
    /// Restart schedule: `(time, replica)` pairs. At each point the
    /// replica's process is rebuilt through the simulator's factory
    /// (which may recover it from durable storage) and started again; a
    /// crashed replica comes back to life, a live one is bounced.
    pub restarts: Vec<(VirtualTime, ReplicaId)>,
    /// Hard stop: events after this time are not processed.
    pub max_time: VirtualTime,
    /// Hard stop: maximum number of dispatched events.
    pub max_events: u64,
    /// Adversarial internal-step deferral windows `(replica, from,
    /// until)`: internal steps (e.g. Bayou's rollback/execute) that would
    /// run on `replica` during `[from, until)` are deferred to `until`.
    /// Models the paper's "local execution is for some reason delayed"
    /// used by the Figure 1 and Figure 2 schedules; message handling is
    /// unaffected.
    pub internal_defer: Vec<(ReplicaId, VirtualTime, VirtualTime)>,
}

impl SimConfig {
    /// A default configuration for `n` replicas with the given seed:
    /// ~1 ms network delay, perfect clocks, nominal CPUs, stable from the
    /// start, no crashes, 60 simulated seconds.
    pub fn new(n: usize, seed: u64) -> Self {
        SimConfig {
            n,
            seed,
            net: NetworkConfig::default(),
            clocks: Vec::new(),
            cpus: Vec::new(),
            stability: Stability::default(),
            crashes: Vec::new(),
            restarts: Vec::new(),
            max_time: VirtualTime::from_secs(60),
            max_events: 50_000_000,
            internal_defer: Vec::new(),
        }
    }

    /// Sets the network configuration (builder style).
    pub fn with_net(mut self, net: NetworkConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the stability mode (builder style).
    pub fn with_stability(mut self, s: Stability) -> Self {
        self.stability = s;
        self
    }

    /// Sets one replica's clock (builder style).
    pub fn with_clock(mut self, r: ReplicaId, c: ClockConfig) -> Self {
        if self.clocks.is_empty() {
            self.clocks = vec![ClockConfig::default(); self.n];
        }
        self.clocks[r.index()] = c;
        self
    }

    /// Sets one replica's CPU (builder style).
    pub fn with_cpu(mut self, r: ReplicaId, c: CpuConfig) -> Self {
        if self.cpus.is_empty() {
            self.cpus = vec![CpuConfig::default(); self.n];
        }
        self.cpus[r.index()] = c;
        self
    }

    /// Sets the maximum simulated time (builder style).
    pub fn with_max_time(mut self, t: VirtualTime) -> Self {
        self.max_time = t;
        self
    }

    /// Schedules a crash (builder style).
    pub fn with_crash(mut self, at: VirtualTime, r: ReplicaId) -> Self {
        self.crashes.push((at, r));
        self
    }

    /// Schedules a restart (builder style): the replica's process is
    /// rebuilt via the factory at `at` and started again.
    pub fn with_restart(mut self, at: VirtualTime, r: ReplicaId) -> Self {
        self.restarts.push((at, r));
        self
    }

    /// Defers internal steps on `r` during `[from, until)` to `until`
    /// (builder style).
    pub fn with_internal_defer(
        mut self,
        r: ReplicaId,
        from: VirtualTime,
        until: VirtualTime,
    ) -> Self {
        self.internal_defer.push((r, from, until));
        self
    }
}

/// A client-visible output together with when and where it was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// Completion time of the handler that produced the output.
    pub time: VirtualTime,
    /// The replica that produced it.
    pub replica: ReplicaId,
    /// The output itself.
    pub output: O,
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport<O> {
    /// All outputs, in production order.
    pub outputs: Vec<OutputRecord<O>>,
    /// Counters.
    pub metrics: Metrics,
    /// Virtual time when the run ended.
    pub end_time: VirtualTime,
    /// Number of events dispatched.
    pub events: u64,
    /// Whether the run ended because the event queue drained (quiescence)
    /// rather than hitting a limit.
    pub quiescent: bool,
}

/// The discrete-event simulator driving `n` instances of a [`Process`].
///
/// See the crate-level docs for an overview and an example.
pub struct Sim<P: Process> {
    config: SimConfig,
    /// The process factory, retained so scheduled restarts can rebuild a
    /// replica mid-run (recovering it from durable storage when the
    /// factory wires one).
    make: Box<dyn FnMut(ReplicaId) -> P>,
    processes: Vec<P>,
    queue: EventQueue<P::Msg, P::Input>,
    cpus: Vec<Cpu>,
    clocks: Vec<Clock>,
    crashed: Vec<bool>,
    pending_crashes: Vec<(VirtualTime, ReplicaId)>,
    omega: OmegaOracle,
    net_rng: StdRng,
    replica_rngs: Vec<StdRng>,
    timer_counters: Vec<u64>,
    internal_pending: Vec<bool>,
    /// Events that arrived while the replica's CPU was busy, FIFO.
    parked: Vec<std::collections::VecDeque<Event<P::Msg, P::Input>>>,
    /// Whether a `CpuFree` wake-up is already scheduled per replica.
    cpu_wake: Vec<bool>,
    metrics: Metrics,
    now: VirtualTime,
    events: u64,
    outputs: Vec<OutputRecord<P::Output>>,
    started: bool,
}

impl<P: Process> Sim<P> {
    /// Creates a simulator; `make` constructs the process for each
    /// replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration names zero replicas or has per-replica
    /// vectors of the wrong length.
    pub fn new(config: SimConfig, make: impl FnMut(ReplicaId) -> P + 'static) -> Self {
        let mut make = make;
        assert!(config.n > 0, "cluster must contain at least one replica");
        assert!(
            config.clocks.is_empty() || config.clocks.len() == config.n,
            "clocks must be empty or length n"
        );
        assert!(
            config.cpus.is_empty() || config.cpus.len() == config.n,
            "cpus must be empty or length n"
        );
        let n = config.n;
        let processes: Vec<P> = ReplicaId::all(n).map(&mut make).collect();
        let cpus = (0..n)
            .map(|i| Cpu::new(config.cpus.get(i).copied().unwrap_or_default()))
            .collect();
        let clocks = (0..n)
            .map(|i| Clock::new(config.clocks.get(i).copied().unwrap_or_default()))
            .collect();
        let mut master = StdRng::seed_from_u64(config.seed);
        let net_rng = StdRng::seed_from_u64(master.gen());
        let replica_rngs = (0..n)
            .map(|_| StdRng::seed_from_u64(master.gen()))
            .collect();
        let omega = OmegaOracle::new(config.stability, master.gen(), n);
        let mut pending_crashes = config.crashes.clone();
        pending_crashes.sort_by_key(|(t, r)| (*t, *r));
        pending_crashes.reverse(); // pop from the back = earliest first

        let mut queue = EventQueue::new();
        for r in ReplicaId::all(n) {
            queue.push(VirtualTime::ZERO, r, EventKind::Start);
        }
        let mut restarts = config.restarts.clone();
        restarts.sort_by_key(|(t, r)| (*t, *r));
        for (t, r) in restarts {
            queue.push(t, r, EventKind::Restart);
        }

        Sim {
            metrics: Metrics::new(n),
            config,
            make: Box::new(make),
            processes,
            queue,
            cpus,
            clocks,
            crashed: vec![false; n],
            pending_crashes,
            omega,
            net_rng,
            replica_rngs,
            timer_counters: vec![0; n],
            internal_pending: vec![false; n],
            parked: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            cpu_wake: vec![false; n],
            now: VirtualTime::ZERO,
            events: 0,
            outputs: Vec::new(),
            started: false,
        }
    }

    /// Schedules a client input on `replica` at virtual time `at`.
    pub fn schedule_input(&mut self, at: VirtualTime, replica: ReplicaId, input: P::Input) {
        assert!(replica.index() < self.config.n, "unknown replica {replica}");
        self.queue.push(at, replica, EventKind::Input { input });
    }

    /// Current virtual time (the time of the most recently dispatched
    /// event).
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Read access to a replica's process (for instrumentation and state
    /// inspection).
    pub fn process(&self, r: ReplicaId) -> &P {
        &self.processes[r.index()]
    }

    /// Mutable access to a replica's process — a test control hook
    /// (e.g. muting one replication group on one host between runs).
    /// Mutating protocol state mid-run forfeits schedule determinism;
    /// use only at run boundaries.
    pub fn process_mut(&mut self, r: ReplicaId) -> &mut P {
        &mut self.processes[r.index()]
    }

    /// Consumes the simulator, returning the processes.
    pub fn into_processes(self) -> Vec<P> {
        self.processes
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether `r` has crashed.
    pub fn is_crashed(&self, r: ReplicaId) -> bool {
        self.crashed[r.index()]
    }

    /// The per-replica CPU backlog at the current time (how much queued
    /// work the CPU has committed to), used by the §2.3 experiment.
    pub fn backlog(&self, r: ReplicaId) -> VirtualTime {
        self.cpus[r.index()].backlog(self.now)
    }

    /// The replica the next event is addressed to, and the client input
    /// it carries if it is one: what a caller recording invocations
    /// reads before [`Sim::step_until`] hands the input to the process.
    pub fn peek_next(&self) -> Option<(ReplicaId, Option<&P::Input>)> {
        self.queue.peek().map(|ev| {
            let input = match &ev.kind {
                EventKind::Input { input } => Some(input),
                _ => None,
            };
            (ev.replica, input)
        })
    }

    /// Takes the outputs produced since the previous call.
    pub fn take_outputs(&mut self) -> Vec<OutputRecord<P::Output>> {
        std::mem::take(&mut self.outputs)
    }

    /// The time of the next scheduled event, if any.
    pub fn next_event_time(&mut self) -> Option<VirtualTime> {
        // EventQueue has no peek; emulate by pop/reschedule-free approach:
        // maintain via pop + push would disturb seq ordering, so expose
        // through a peeked copy of the heap top instead.
        self.queue.peek_time()
    }

    /// Dispatches exactly one event. Returns `false` when the queue is
    /// empty or a limit was reached.
    pub fn step_one(&mut self) -> bool {
        self.step_until(VirtualTime::MAX) == Some(true)
    }

    /// Dispatches the next event if it is due by `deadline` and no limit
    /// holds it back. `Some(true)`: one event ran; `Some(false)`: the
    /// deadline or a limit stopped the run; `None`: the queue drained
    /// (quiescence). The step-wise form of [`Sim::run_until`], for
    /// callers that must look at every step's outputs before the next
    /// step changes the process that produced them.
    pub fn step_until(&mut self, deadline: VirtualTime) -> Option<bool> {
        let next = self.queue.peek_time()?;
        if next > deadline || next > self.config.max_time || self.events >= self.config.max_events {
            return Some(false);
        }
        let ev = self.queue.pop().expect("peeked event vanished");
        self.apply_crashes(ev.at);
        self.dispatch(ev);
        Some(true)
    }

    /// Runs until the queue drains or a limit is hit; returns the report.
    pub fn run(&mut self) -> RunReport<P::Output> {
        self.run_until(VirtualTime::MAX)
    }

    /// Runs until virtual time `deadline`, the queue drains, or a limit is
    /// hit.
    pub fn run_until(&mut self, deadline: VirtualTime) -> RunReport<P::Output> {
        let quiescent = loop {
            match self.step_until(deadline) {
                Some(true) => {}
                Some(false) => break false,
                None => break true,
            }
        };
        RunReport {
            outputs: self.take_outputs(),
            metrics: self.metrics.clone(),
            end_time: self.now,
            events: self.events,
            quiescent,
        }
    }

    fn apply_crashes(&mut self, upto: VirtualTime) {
        while let Some((t, r)) = self.pending_crashes.last().copied() {
            if t <= upto {
                self.pending_crashes.pop();
                self.crashed[r.index()] = true;
            } else {
                break;
            }
        }
    }

    fn dispatch(&mut self, ev: Event<P::Msg, P::Input>) {
        let mut ev = ev;
        let r = ev.replica;
        let i = r.index();
        self.now = self.now.max(ev.at);

        if matches!(ev.kind, EventKind::Restart) {
            // rebuild the process through the factory (recovering it
            // from durable storage when the factory wires one) and wipe
            // the dead incarnation's runtime residue; then run the new
            // process's on_start through the normal Start path
            self.crashed[i] = false;
            self.processes[i] = (self.make)(r);
            self.cpus[i] = Cpu::new(self.config.cpus.get(i).copied().unwrap_or_default());
            self.parked[i].clear();
            self.internal_pending[i] = false;
            self.cpu_wake[i] = false;
            self.metrics.restarts += 1;
            ev.kind = EventKind::Start;
        }

        if self.crashed[i] {
            if matches!(ev.kind, EventKind::Deliver { .. }) {
                self.metrics.messages_dropped_crash += 1;
            }
            if matches!(ev.kind, EventKind::CpuFree) {
                self.cpu_wake[i] = false;
            }
            // drop the dead replica's parked backlog, keeping counts
            for pev in self.parked[i].drain(..) {
                if matches!(pev.kind, EventKind::Deliver { .. }) {
                    self.metrics.messages_dropped_crash += 1;
                }
            }
            return; // crashed replicas execute nothing
        }

        if matches!(ev.kind, EventKind::CpuFree) {
            self.cpu_wake[i] = false;
            if !self.cpus[i].free_at(ev.at) {
                // a same-instant handler got in first; wake again later
                self.ensure_cpu_wake(r);
            } else if let Some(pev) = self.parked[i].pop_front() {
                // release exactly one parked event, keeping its original
                // sequence number (if it loses a same-instant CPU race it
                // re-parks at its old FIFO position, not the back); the
                // post-handler hook re-arms the wake for the rest
                self.queue.release(pev, ev.at);
            }
            return;
        }

        // CPU gating: if the replica is busy, park the event until the
        // CPU frees up. Parking is O(1) per event per busy period — a
        // saturated replica must not re-cycle its whole backlog through
        // the event heap after every handler. (Internal polls stay in the
        // heap: they collapse into a single pending poll instead.)
        if !self.cpus[i].free_at(ev.at) {
            let resume = self.cpus[i].busy_until;
            if matches!(ev.kind, EventKind::Internal) {
                // collapse redundant internal polls
                self.internal_pending[i] = false;
                self.schedule_internal(r, resume);
            } else {
                // arrivals carry increasing seq, so the parked queue is
                // seq-sorted; a released event that lost a same-instant
                // CPU race keeps its (older) seq and re-parks in front
                if self.parked[i].front().is_some_and(|f| f.seq > ev.seq) {
                    self.parked[i].push_front(ev);
                } else {
                    self.parked[i].push_back(ev);
                }
                self.ensure_cpu_wake(r);
            }
            return;
        }

        let start = ev.at;
        let cpu_snapshot = (self.cpus[i].busy_until, self.cpus[i].steps);
        let done = self.cpus[i].run(start);
        self.events += 1;
        self.metrics.count_step(r);

        let mut effects = Effects::default();
        let mut executed_internal_step = true;
        {
            let mut ctx = SimCtx {
                id: r,
                n: self.config.n,
                now: start,
                clock: &mut self.clocks[i],
                rng: &mut self.replica_rngs[i],
                timer_counter: &mut self.timer_counters[i],
                omega: &self.omega,
                crashed: &self.crashed,
                effects: &mut effects,
            };
            let p = &mut self.processes[i];
            match ev.kind {
                EventKind::Start => {
                    self.started = true;
                    p.on_start(&mut ctx);
                }
                EventKind::Deliver { from, msg } => {
                    self.metrics.messages_delivered += 1;
                    p.on_message(from, msg, &mut ctx);
                }
                EventKind::Timer { timer } => {
                    self.metrics.timers_fired += 1;
                    p.on_timer(timer, &mut ctx);
                }
                EventKind::Input { input } => {
                    self.metrics.inputs += 1;
                    p.on_input(input, &mut ctx);
                }
                EventKind::Internal => {
                    self.internal_pending[i] = false;
                    executed_internal_step = p.on_internal(&mut ctx);
                    if executed_internal_step {
                        self.metrics.internal_steps += 1;
                    }
                }
                EventKind::CpuFree => unreachable!("CpuFree handled before dispatch"),
                EventKind::Restart => unreachable!("Restart rewritten to Start above"),
            }
        }

        if !executed_internal_step {
            // The poll found the process passive: refund the CPU time and
            // the step (a passive check is not a protocol step).
            self.cpus[i].busy_until = cpu_snapshot.0;
            self.cpus[i].steps = cpu_snapshot.1;
            self.events -= 1;
            self.metrics.steps[i] -= 1;
            return;
        }

        // Charge the handler's simulated storage stalls (fsync latency)
        // to the replica's CPU: the disk write blocked the handler, so
        // everything the step produced — and every queued event behind
        // it — is delayed by exactly that much.
        self.metrics.fsyncs += self.processes[i].take_fsyncs();
        self.metrics.wire_bytes += self.processes[i].take_wire_bytes();
        let stall = self.processes[i].take_storage_stall();
        let done = if stall > VirtualTime::ZERO {
            self.metrics.storage_stall += stall;
            self.cpus[i].busy_until += stall;
            self.cpus[i].busy_until
        } else {
            done
        };

        // A handler that crash-stopped its process mid-step (storage
        // failure) must leave no trace: the facts backing its buffered
        // sends/outputs never became durable, so letting them escape
        // would, e.g., report a compaction cursor for deliveries that
        // were never logged. The whole step un-happens, like a crash.
        if self.processes[i].has_failed() {
            effects.sends.clear();
            effects.timers.clear();
            let _ = self.processes[i].drain_outputs();
            return;
        }

        // Apply side effects stamped at handler completion time.
        for (to, msg) in effects.sends {
            self.metrics.messages_sent += 1;
            if self.config.net.partitions.separated(r, to, done) {
                self.metrics.messages_dropped_partition += 1;
                continue;
            }
            if to == r {
                // loopback: immune to partitions, loss and duplication
                self.queue
                    .push(done, to, EventKind::Deliver { from: r, msg });
                continue;
            }
            if self.config.net.sample_loss(done, &mut self.net_rng) {
                self.metrics.messages_dropped_loss += 1;
                continue;
            }
            if self.config.net.sample_duplicate(done, &mut self.net_rng) {
                // the duplicate takes an independently sampled delay, so
                // the two copies may arrive in either order
                self.metrics.messages_duplicated += 1;
                let delay = self.config.net.sample_link_delay(r, to, &mut self.net_rng);
                self.queue.push(
                    done + delay,
                    to,
                    EventKind::Deliver {
                        from: r,
                        msg: msg.clone(),
                    },
                );
            }
            let delay = self.config.net.sample_link_delay(r, to, &mut self.net_rng);
            self.queue
                .push(done + delay, to, EventKind::Deliver { from: r, msg });
        }
        for (delay, timer) in effects.timers {
            self.queue.push(done + delay, r, EventKind::Timer { timer });
        }
        for out in self.processes[i].drain_outputs() {
            self.outputs.push(OutputRecord {
                time: done,
                replica: r,
                output: out,
            });
        }

        // Input-driven processing: after every executed handler, poll for
        // internal work.
        self.schedule_internal(r, done);
        // ... and keep feeding parked events as the CPU frees up.
        if !self.parked[i].is_empty() {
            self.ensure_cpu_wake(r);
        }
    }

    fn ensure_cpu_wake(&mut self, r: ReplicaId) {
        let i = r.index();
        if !self.cpu_wake[i] {
            self.cpu_wake[i] = true;
            let at = self.cpus[i].busy_until.max(self.now);
            self.queue.push(at, r, EventKind::CpuFree);
        }
    }

    fn schedule_internal(&mut self, r: ReplicaId, at: VirtualTime) {
        let i = r.index();
        // Internal steps yield to input events queued for the same
        // instant (fair FIFO, as in the paper's model): under saturation
        // a replica's executions can starve behind its message backlog —
        // the root of the §2.3 unbounded-wait-freedom argument.
        let mut at = at + VirtualTime::from_nanos(1);
        for (dr, from, until) in &self.config.internal_defer {
            if *dr == r && at >= *from && at < *until {
                at = *until;
            }
        }
        if !self.internal_pending[i] {
            self.internal_pending[i] = true;
            self.queue.push(at, r, EventKind::Internal);
        }
    }
}

/// Side effects buffered during one handler execution.
#[derive(Debug)]
struct Effects<M> {
    sends: Vec<(ReplicaId, M)>,
    timers: Vec<(VirtualTime, TimerId)>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }
}

struct SimCtx<'a, M> {
    id: ReplicaId,
    n: usize,
    now: VirtualTime,
    clock: &'a mut Clock,
    rng: &'a mut StdRng,
    timer_counter: &'a mut u64,
    omega: &'a OmegaOracle,
    crashed: &'a [bool],
    effects: &'a mut Effects<M>,
}

impl<M> Context<M> for SimCtx<'_, M> {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn cluster_size(&self) -> usize {
        self.n
    }

    fn now(&self) -> VirtualTime {
        self.now
    }

    fn clock(&mut self) -> Timestamp {
        self.clock.read(self.now)
    }

    fn send(&mut self, to: ReplicaId, msg: M) {
        self.effects.sends.push((to, msg));
    }

    fn set_timer(&mut self, delay: VirtualTime) -> TimerId {
        *self.timer_counter += 1;
        let id = TimerId::new(*self.timer_counter);
        self.effects.timers.push((delay, id));
        id
    }

    fn random(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn omega(&mut self) -> ReplicaId {
        self.omega.query(self.now, self.crashed)
    }

    fn omega_for(&mut self, lane: u32) -> ReplicaId {
        self.omega.query_for(self.now, self.crashed, lane)
    }
}

// -- queue peek support -------------------------------------------------

impl<M, I> EventQueue<M, I> {
    pub(crate) fn peek_time(&mut self) -> Option<VirtualTime> {
        self.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong: on input, send to peer; peer echoes back; origin
    /// outputs the round-trip count.
    #[derive(Debug)]
    struct PingPong {
        rounds: u32,
        out: Vec<u32>,
    }

    impl Process for PingPong {
        type Msg = u32;
        type Input = u32;
        type Output = u32;

        fn on_message(&mut self, from: ReplicaId, msg: u32, ctx: &mut dyn Context<u32>) {
            if msg == 0 {
                self.out.push(self.rounds);
            } else {
                self.rounds += 1;
                ctx.send(from, msg - 1);
            }
        }

        fn on_input(&mut self, input: u32, ctx: &mut dyn Context<u32>) {
            let peer = ReplicaId::new(1 - ctx.id().as_u32());
            ctx.send(peer, input);
        }

        fn drain_outputs(&mut self) -> Vec<u32> {
            std::mem::take(&mut self.out)
        }
    }

    fn pingpong_sim(seed: u64) -> Sim<PingPong> {
        Sim::new(SimConfig::new(2, seed), |_| PingPong {
            rounds: 0,
            out: vec![],
        })
    }

    #[test]
    fn messages_flow_and_outputs_are_recorded() {
        let mut sim = pingpong_sim(1);
        sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 4);
        let report = sim.run();
        assert!(report.quiescent);
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.metrics.messages_delivered, 5);
        assert!(report.end_time > VirtualTime::from_millis(1));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut sim = pingpong_sim(seed);
            sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 10);
            let r = sim.run();
            (r.end_time, r.events, r.metrics)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds give different delays");
    }

    #[test]
    fn crashed_replica_stops_responding() {
        let cfg = SimConfig::new(2, 3).with_crash(VirtualTime::from_millis(5), ReplicaId::new(1));
        let mut sim = Sim::new(cfg, move |_| PingPong {
            rounds: 0,
            out: vec![],
        });
        // start the volley well after the crash
        sim.schedule_input(VirtualTime::from_millis(10), ReplicaId::new(0), 4);
        let report = sim.run();
        assert_eq!(report.outputs.len(), 0);
        assert!(report.metrics.messages_dropped_crash >= 1);
    }

    #[test]
    fn partition_drops_messages() {
        use crate::network::{Partition, PartitionSchedule};
        let net = NetworkConfig {
            partitions: PartitionSchedule::new(vec![Partition::split_at(
                VirtualTime::ZERO,
                VirtualTime::from_secs(10),
                1,
                2,
            )]),
            ..Default::default()
        };
        let mut sim = Sim::new(SimConfig::new(2, 3).with_net(net), |_| PingPong {
            rounds: 0,
            out: vec![],
        });
        sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 4);
        let report = sim.run();
        assert_eq!(report.outputs.len(), 0);
        assert_eq!(report.metrics.messages_dropped_partition, 1);
    }

    #[test]
    fn loss_burst_drops_messages_and_duplication_injects_copies() {
        use crate::network::LinkFault;
        // certain loss for the whole run: the volley dies on hop 1
        let net = NetworkConfig::default().with_fault(LinkFault::new(
            VirtualTime::ZERO,
            VirtualTime::from_secs(10),
            1.0,
            0.0,
        ));
        let mut sim = Sim::new(SimConfig::new(2, 3).with_net(net), |_| PingPong {
            rounds: 0,
            out: vec![],
        });
        sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 4);
        let report = sim.run();
        assert_eq!(report.outputs.len(), 0);
        assert_eq!(report.metrics.messages_dropped_loss, 1);

        // certain duplication: every hop is delivered twice, and the
        // ping-pong protocol (not idempotent by design) counts doubles
        let net = NetworkConfig::default().with_fault(LinkFault::new(
            VirtualTime::ZERO,
            VirtualTime::from_secs(10),
            0.0,
            1.0,
        ));
        let mut sim = Sim::new(SimConfig::new(2, 3).with_net(net), |_| PingPong {
            rounds: 0,
            out: vec![],
        });
        sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 1);
        let report = sim.run();
        assert!(report.metrics.messages_duplicated >= 1);
        assert!(report.metrics.messages_delivered > report.metrics.messages_sent);
    }

    #[test]
    fn fault_free_runs_are_unchanged_by_fault_support() {
        // a burst outside the run's lifetime must not change the trace
        let run = |with_fault: bool| {
            use crate::network::LinkFault;
            let mut net = NetworkConfig::default();
            if with_fault {
                net = net.with_fault(LinkFault::new(
                    VirtualTime::from_secs(50),
                    VirtualTime::from_secs(60),
                    0.9,
                    0.9,
                ));
            }
            let mut sim = Sim::new(SimConfig::new(2, 7).with_net(net), |_| PingPong {
                rounds: 0,
                out: vec![],
            });
            sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 10);
            let r = sim.run();
            (r.end_time, r.events)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn slow_cpu_accumulates_backlog() {
        let slow = CpuConfig {
            base_cost: VirtualTime::from_millis(10),
            slowdown: 1.0,
        };
        let cfg = SimConfig::new(2, 3).with_cpu(ReplicaId::new(1), slow);
        let mut sim = Sim::new(cfg, move |_| PingPong {
            rounds: 0,
            out: vec![],
        });
        // bombard replica 1 with inputs at the same instant
        for k in 0..10 {
            sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(1), 2 + k % 2);
        }
        let report = sim.run();
        assert!(report.quiescent);
        // each handler on R1 took 10ms; the volley must have stretched out
        assert!(report.end_time >= VirtualTime::from_millis(100));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = pingpong_sim(5);
        sim.schedule_input(VirtualTime::from_millis(100), ReplicaId::new(0), 2);
        let report = sim.run_until(VirtualTime::from_millis(50));
        assert!(!report.quiescent);
        assert_eq!(report.metrics.inputs, 0);
        let report = sim.run_until(VirtualTime::MAX);
        assert!(report.quiescent);
        assert_eq!(report.metrics.inputs, 1);
    }

    #[test]
    fn step_one_advances_one_event() {
        let mut sim = pingpong_sim(5);
        sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 1);
        let mut steps = 0;
        while sim.step_one() {
            steps += 1;
            assert!(steps < 1000, "runaway loop");
        }
        assert!(steps >= 3); // 2 starts + input + deliveries
    }

    /// A process with internal work: on input `k`, perform `k` internal
    /// steps, each producing an output.
    #[derive(Debug)]
    struct Grinder {
        pending: u32,
        out: Vec<u32>,
    }

    impl Process for Grinder {
        type Msg = ();
        type Input = u32;
        type Output = u32;

        fn on_message(&mut self, _f: ReplicaId, _m: (), _c: &mut dyn Context<()>) {}

        fn on_input(&mut self, input: u32, _ctx: &mut dyn Context<()>) {
            self.pending = input;
        }

        fn on_internal(&mut self, _ctx: &mut dyn Context<()>) -> bool {
            if self.pending > 0 {
                self.pending -= 1;
                self.out.push(self.pending);
                true
            } else {
                false
            }
        }

        fn drain_outputs(&mut self) -> Vec<u32> {
            std::mem::take(&mut self.out)
        }
    }

    #[test]
    fn internal_steps_run_until_passive() {
        let mut sim = Sim::new(SimConfig::new(1, 1), |_| Grinder {
            pending: 0,
            out: vec![],
        });
        sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 5);
        let report = sim.run();
        assert!(report.quiescent);
        assert_eq!(report.outputs.len(), 5);
        assert_eq!(report.metrics.internal_steps, 5);
        // outputs happen strictly after the input, spaced by CPU cost
        let times: Vec<_> = report.outputs.iter().map(|o| o.time).collect();
        for w in times.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn internal_steps_consume_cpu_time() {
        let cfg = SimConfig::new(1, 1).with_cpu(
            ReplicaId::new(0),
            CpuConfig {
                base_cost: VirtualTime::from_millis(1),
                slowdown: 1.0,
            },
        );
        let mut sim = Sim::new(cfg, move |_| Grinder {
            pending: 0,
            out: vec![],
        });
        sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 10);
        let report = sim.run();
        // 1 input + 10 internal steps at 1ms each
        assert!(report.end_time >= VirtualTime::from_millis(11));
    }

    #[test]
    fn restart_rebuilds_the_process_via_the_factory() {
        use std::cell::Cell;
        use std::rc::Rc;
        let built = Rc::new(Cell::new(0u32));
        let built2 = Rc::clone(&built);
        let cfg = SimConfig::new(2, 1)
            .with_crash(VirtualTime::from_millis(5), ReplicaId::new(1))
            .with_restart(VirtualTime::from_millis(20), ReplicaId::new(1));
        let mut sim = Sim::new(cfg, move |_| {
            built2.set(built2.get() + 1);
            PingPong {
                rounds: 0,
                out: vec![],
            }
        });
        // volley while R1 is down: dies at R1
        sim.schedule_input(VirtualTime::from_millis(10), ReplicaId::new(0), 4);
        // volley after the restart: completes
        sim.schedule_input(VirtualTime::from_millis(30), ReplicaId::new(0), 4);
        let report = sim.run();
        assert_eq!(built.get(), 3, "2 initial + 1 restart");
        assert_eq!(report.metrics.restarts, 1);
        assert!(report.metrics.messages_dropped_crash >= 1);
        assert_eq!(
            report.outputs.len(),
            1,
            "only the post-restart volley returns"
        );
        // the rebuilt process started from scratch
        assert_eq!(sim.process(ReplicaId::new(1)).rounds, 2);
    }

    #[test]
    fn restart_of_a_live_replica_bounces_its_state() {
        let cfg =
            SimConfig::new(1, 1).with_restart(VirtualTime::from_millis(50), ReplicaId::new(0));
        let mut sim = Sim::new(cfg, move |_| Grinder {
            pending: 0,
            out: vec![],
        });
        sim.schedule_input(VirtualTime::from_millis(1), ReplicaId::new(0), 3);
        let report = sim.run();
        assert_eq!(report.metrics.restarts, 1);
        assert_eq!(report.outputs.len(), 3);
        assert_eq!(sim.process(ReplicaId::new(0)).pending, 0);
    }

    #[test]
    fn omega_is_queryable_from_handlers() {
        struct OmegaProbe {
            out: Vec<u32>,
        }
        impl Process for OmegaProbe {
            type Msg = ();
            type Input = ();
            type Output = u32;
            fn on_message(&mut self, _f: ReplicaId, _m: (), _c: &mut dyn Context<()>) {}
            fn on_input(&mut self, _i: (), ctx: &mut dyn Context<()>) {
                self.out.push(ctx.omega().as_u32());
            }
            fn drain_outputs(&mut self) -> Vec<u32> {
                std::mem::take(&mut self.out)
            }
        }
        let cfg = SimConfig::new(3, 2).with_stability(Stability::Stable {
            gst: VirtualTime::ZERO,
        });
        let mut sim = Sim::new(cfg, move |_| OmegaProbe { out: vec![] });
        sim.schedule_input(VirtualTime::from_millis(5), ReplicaId::new(2), ());
        let report = sim.run();
        assert_eq!(report.outputs[0].output, 0, "stable run trusts R0");
    }
}
