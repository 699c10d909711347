//! The busy period's contract, the simulator's half of the live
//! runtime's mailbox contract: a handler's frames leave no earlier than
//! the barrier that closes it, once per busy period (a run of at most
//! [`WAKE_DRAIN`] handlers with no idle CPU between them) and with no
//! timer; a host that crashes or crash-stops in the middle of a busy
//! period releases none of the frames it held.

use bayou_sim::{NetworkConfig, Sim, SimConfig};
use bayou_types::{Context, Process, ReplicaId, VirtualTime, WAKE_DRAIN};

/// Holds a frame for replica 1 per input until the simulator asks for
/// its frames; reports the frames it receives.
#[derive(Default)]
struct Holder {
    held: Vec<u32>,
    /// Inputs handled, and inputs a barrier covered.
    handled: u32,
    settled: u32,
    /// The barrier after this many inputs fails.
    fail_at: Option<u32>,
    failed: bool,
    /// Each release that carried frames: when, and how many.
    releases: Vec<(VirtualTime, usize)>,
    got: Vec<u32>,
}

impl Process for Holder {
    type Msg = u32;
    type Input = u32;
    type Output = u32;

    fn on_message(&mut self, _from: ReplicaId, k: u32, _ctx: &mut dyn Context<u32>) {
        self.got.push(k);
    }

    fn on_input(&mut self, k: u32, _ctx: &mut dyn Context<u32>) {
        self.handled += 1;
        self.held.push(k);
    }

    fn release_frames(&mut self, ctx: &mut dyn Context<u32>) {
        assert_eq!(
            self.settled, self.handled,
            "a frame left before the barrier of the handler that produced it"
        );
        if !self.held.is_empty() {
            self.releases.push((ctx.now(), self.held.len()));
        }
        for k in self.held.drain(..) {
            ctx.send(ReplicaId::new(1), k);
        }
    }

    fn barrier(&mut self) {
        if self.fail_at == Some(self.handled) {
            self.failed = true;
        } else {
            self.settled = self.handled;
        }
    }

    fn has_failed(&self) -> bool {
        self.failed
    }

    fn drain_outputs(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.got)
    }
}

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

fn us(v: u64) -> VirtualTime {
    VirtualTime::from_micros(v)
}

/// Two holders over 1 ms links; replica 0 gets `bursts` of inputs, each
/// burst at one instant, numbered in schedule order.
fn holders(config: SimConfig, fail_at: Option<u32>, bursts: &[(VirtualTime, u32)]) -> Sim<Holder> {
    let config = config.with_net(NetworkConfig::fixed(ms(1)));
    let mut sim = Sim::new(config, move |r| Holder {
        fail_at: fail_at.filter(|_| r == ReplicaId::new(0)),
        ..Holder::default()
    });
    let mut k = 0;
    for &(at, count) in bursts {
        for _ in 0..count {
            sim.schedule_input(at, ReplicaId::new(0), k);
            k += 1;
        }
    }
    sim
}

#[test]
fn no_frame_leaves_before_its_handlers_barrier_and_a_busy_period_releases_once() {
    // three inputs at one instant share a busy period; a lone input is
    // a busy period of one step; a burst longer than WAKE_DRAIN releases
    // after its WAKE_DRAIN-th handler and at its end
    let burst = WAKE_DRAIN as u32 + 36;
    let mut sim = holders(
        SimConfig::new(2, 1),
        None,
        &[(ms(1), 3), (ms(5), 1), (ms(10), burst)],
    );
    let report = sim.run();
    assert!(report.quiescent);
    let step = |handlers: u64| us(10 * handlers);
    assert_eq!(
        sim.process(ReplicaId::new(0)).releases,
        [
            (ms(1) + step(3), 3),
            (ms(5) + step(1), 1),
            (ms(10) + step(WAKE_DRAIN as u64), WAKE_DRAIN),
            (ms(10) + step(u64::from(burst)), 36),
        ]
    );
    // one frame per input, in the order the inputs arrived
    let got: Vec<u32> = report.outputs.iter().map(|o| o.output).collect();
    assert_eq!(got, (0..4 + burst).collect::<Vec<_>>());
    assert_eq!(report.metrics.timers_fired, 0);
}

#[test]
fn a_host_that_crash_stops_mid_busy_period_releases_none_of_its_held_frames() {
    // the barrier after the third input of the burst fails
    let mut sim = holders(SimConfig::new(2, 1), Some(3), &[(ms(1), 5)]);
    let report = sim.run();
    assert!(sim.process(ReplicaId::new(0)).failed);
    assert!(sim.process(ReplicaId::new(0)).releases.is_empty());
    assert_eq!(report.metrics.messages_sent, 0);

    // an injected crash after two of the burst's handlers ran
    let config = SimConfig::new(2, 1).with_crash(ms(1) + us(15), ReplicaId::new(0));
    let mut sim = holders(config, None, &[(ms(1), 5)]);
    let report = sim.run();
    assert_eq!(sim.process(ReplicaId::new(0)).handled, 2);
    assert!(sim.process(ReplicaId::new(0)).releases.is_empty());
    assert_eq!(report.metrics.messages_sent, 0);
    assert!(report.outputs.is_empty());
}

#[test]
fn an_arrival_at_the_instant_the_cpu_frees_waits_behind_the_parked_events() {
    // input 0 holds the CPU until 1 ms + 10 µs; input 1 arrives meanwhile
    // and parks; input 2 arrives at the very instant the CPU frees, and
    // was scheduled before the wake-up that releases input 1 — it must
    // still run after input 1
    let mut sim = holders(
        SimConfig::new(2, 1),
        None,
        &[(ms(1), 1), (ms(1) + us(5), 1), (ms(1) + us(10), 1)],
    );
    let report = sim.run();
    assert!(report.quiescent);
    assert_eq!(
        sim.process(ReplicaId::new(0)).releases,
        [(ms(1) + us(30), 3)]
    );
    let got: Vec<u32> = report.outputs.iter().map(|o| o.output).collect();
    assert_eq!(got, [0, 1, 2]);
}
