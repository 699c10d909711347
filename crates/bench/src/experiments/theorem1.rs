//! **E6 — Theorem 1**: the impossibility, demonstrated end-to-end.
//!
//! The paper proves that no system (for arbitrary `F`) can guarantee
//! `BEC(weak, F)` in asynchronous runs together with
//! `BEC(weak, F) ∧ Seq(strong, F)`. We demonstrate it constructively:
//!
//! 1. run the [`bayou_core::NaiveMixed`] protocol — a plausible design
//!    that *attempts* exactly that combination — through the adversarial
//!    schedule from the proof of Theorem 1 (weak updates `a`, `b` that
//!    both reach an observer `k`, while the strong operation's replica
//!    never learns of `a`);
//! 2. extract the observable history;
//! 3. prove, by exhaustive search over all arbitration orders and
//!    visibility relations, that **no** abstract execution over that
//!    history satisfies `BEC(weak) ∧ Seq(strong)` — while the weak-only
//!    sub-history is satisfiable.

use bayou_core::{Invocation, NaiveMixed, RunTrace};
use bayou_data::{AppendList, ListOp};
use bayou_sim::{NetworkConfig, Partition, PartitionSchedule, Sim, SimConfig};
use bayou_spec::{solve_bec_weak_seq_strong, History, SolveOutcome};
use bayou_types::{Level, ReplicaId, Value, VirtualTime};

/// Outcome of the Theorem 1 demonstration.
#[derive(Debug, Clone)]
pub struct Theorem1Result {
    /// rval of the weak `append("b")` on the strong op's replica.
    pub rval_b: Value,
    /// rval of the weak `append("a")`.
    pub rval_a: Value,
    /// rval of the weak read on the observer replica (paper: sees both,
    /// `"ab"`).
    pub rval_read: Value,
    /// rval of the strong read (paper: sees only `b`).
    pub rval_strong: Value,
    /// Solver verdict on the full history.
    pub full_satisfiable: bool,
    /// Arbitration orders the solver exhausted.
    pub ar_examined: usize,
    /// Solver verdict on the weak-only sub-history.
    pub weak_only_satisfiable: bool,
}

impl Theorem1Result {
    /// Whether the demonstration matches the theorem.
    pub fn matches_paper(&self) -> bool {
        self.rval_read == Value::from("ab")
            && self.rval_strong == Value::from("b")
            && !self.full_satisfiable
            && self.weak_only_satisfiable
    }

    /// Renders the demonstration summary.
    pub fn render(&self) -> String {
        format!(
            "append(b) [weak, R0]   -> {}\n\
             append(a) [weak, R1]   -> {}\n\
             read()    [weak, R2]   -> {}  (observes a before b)\n\
             read()    [strong, R0] -> {}  (observes b but not a)\n\
             BEC(weak) ∧ Seq(strong) satisfiable: {} ({} arbitration orders exhausted)\n\
             weak-only sub-history satisfiable:   {}\n\
             impossibility demonstrated: {}",
            self.rval_b,
            self.rval_a,
            self.rval_read,
            self.rval_strong,
            self.full_satisfiable,
            self.ar_examined,
            self.weak_only_satisfiable,
            self.matches_paper()
        )
    }
}

/// Runs the adversarial schedule against `NaiveMixed` and solves the
/// resulting history.
///
/// Schedule (n = 5, R0 = `j`, R1 = `i`, R2 = `k`, R3/R4 = quorum
/// helpers):
/// * links `R0 → R1` and `R0 → R2` are slow (10 ms), so `b`'s frames are
///   in flight when the partition `{R1, R2} | {R0, R3, R4}` activates at
///   1.5 ms (early enough that the quorum helpers R3/R4 cannot relay `b`
///   across before the cut);
/// * `b` (weak) on R0 at 1 ms; `a` (weak) on R1 at 3 ms — `a` reaches R2
///   first, then `b` arrives over the slow link: the observer's read at
///   50 ms returns `"ab"`;
/// * `a` is confined to `{R1, R2}`: R0 never learns it;
/// * the strong read on R0 at 60 ms completes through the TOB quorum
///   `{R0, R3, R4}` and returns `"b"`.
pub fn theorem1() -> Theorem1Result {
    let ms = VirtualTime::from_millis;
    let us = VirtualTime::from_micros;
    let n = 5;
    let r0 = ReplicaId::new(0);
    let r1 = ReplicaId::new(1);
    let r2 = ReplicaId::new(2);

    let mut net = NetworkConfig::fixed(ms(1))
        .with_link_delay(r0, r1, ms(10))
        .with_link_delay(r0, r2, ms(10));
    net.partitions = PartitionSchedule::new(vec![Partition::new(
        us(1_500),
        VirtualTime::from_secs(600),
        vec![vec![r1, r2], vec![r0, ReplicaId::new(3), ReplicaId::new(4)]],
    )]);
    let mut sim_cfg = SimConfig::new(n, 0x71).with_net(net);
    sim_cfg.max_time = ms(3_000);
    let mut sim = Sim::new(sim_cfg, move |_| NaiveMixed::<AppendList>::new(n));

    sim.schedule_input(ms(1), r0, Invocation::weak(ListOp::append("b")));
    sim.schedule_input(ms(3), r1, Invocation::weak(ListOp::append("a")));
    sim.schedule_input(ms(50), r2, Invocation::weak(ListOp::Read));
    sim.schedule_input(ms(60), r0, Invocation::strong(ListOp::Read));
    let report = sim.run_until(ms(3_000));

    // assemble the four-event history from the responses
    let find = |r: ReplicaId, lvl: Level| -> Option<&bayou_sim::OutputRecord<_>> {
        report
            .outputs
            .iter()
            .find(|o| o.replica == r && o.output.meta.level == lvl)
    };
    let b = find(r0, Level::Weak).expect("b responded");
    let a = find(r1, Level::Weak).expect("a responded");
    let read = find(r2, Level::Weak).expect("read responded");
    let strong = find(r0, Level::Strong).expect("strong read responded");

    // Build the RunTrace-equivalent events for the history. Invocation
    // times are the schedule times; the dispatch order per session keeps
    // the history well-formed.
    let mk =
        |out: &bayou_sim::OutputRecord<bayou_core::Response>, op: ListOp, invoked: VirtualTime| {
            bayou_core::EventRecord {
                meta: out.output.meta,
                op,
                replica: out.replica,
                invoked_at: invoked,
                returned_at: Some(out.time),
                value: Some(out.output.value.clone()),
                exec_trace: Some(out.output.exec_trace.ids().to_vec()),
                tob_cast: out.output.meta.level == Level::Strong,
                served: Some(out.output.served),
            }
        };
    let trace: RunTrace<ListOp> = RunTrace {
        events: vec![
            mk(b, ListOp::append("b"), ms(1)),
            mk(a, ListOp::append("a"), ms(3)),
            mk(read, ListOp::Read, ms(50)),
            mk(strong, ListOp::Read, ms(60)),
        ],
        tob_order: vec![strong.output.meta.id()],
        end_time: report.end_time,
        quiescent: false,
    };
    let history = History::from_trace::<AppendList>(&trace).expect("well-formed");

    let full = solve_bec_weak_seq_strong::<AppendList>(&history).expect("small history");
    let (full_satisfiable, ar_examined) = match full {
        SolveOutcome::Satisfiable { .. } => (true, 0),
        SolveOutcome::Unsatisfiable { ar_examined } => (false, ar_examined),
    };

    // weak-only sub-history (drop the strong read)
    let weak_trace = RunTrace {
        events: trace.events[..3].to_vec(),
        tob_order: vec![],
        end_time: trace.end_time,
        quiescent: false,
    };
    let weak_history = History::from_trace::<AppendList>(&weak_trace).expect("well-formed");
    let weak_only_satisfiable = solve_bec_weak_seq_strong::<AppendList>(&weak_history)
        .expect("small history")
        .is_satisfiable();

    Theorem1Result {
        rval_b: b.output.value.clone(),
        rval_a: a.output.value.clone(),
        rval_read: read.output.value.clone(),
        rval_strong: strong.output.value.clone(),
        full_satisfiable,
        ar_examined,
        weak_only_satisfiable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impossibility_is_demonstrated_end_to_end() {
        let r = theorem1();
        assert_eq!(r.rval_b, Value::from("b"), "{}", r.render());
        assert_eq!(r.rval_a, Value::from("a"), "{}", r.render());
        assert_eq!(r.rval_read, Value::from("ab"), "{}", r.render());
        assert_eq!(r.rval_strong, Value::from("b"), "{}", r.render());
        assert!(!r.full_satisfiable, "{}", r.render());
        assert!(r.weak_only_satisfiable, "{}", r.render());
        assert_eq!(r.ar_examined, 24);
        assert!(r.matches_paper());
    }
}
