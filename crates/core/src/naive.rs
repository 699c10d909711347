//! The `NaiveMixed` comparator: a system that *tries* to provide
//! `BEC(weak, F)` together with `Seq(strong, F)` — which Theorem 1 proves
//! impossible for arbitrary `F`.

use crate::api::{ExecTrace, Invocation, Response, Served};
use bayou_broadcast::{LinkMsg, MapCtx, PaxosTob, RbMsg, ReliableBroadcast, Tob};
use bayou_data::DataType;
use bayou_types::{
    Context, Dot, Level, Process, ReplicaId, Req, ReqId, TimerId, Value, VirtualTime,
};
use std::collections::HashSet;

/// Wire messages of [`NaiveMixed`].
#[derive(Debug, Clone)]
pub enum NaiveMsg<Op> {
    /// Reliable broadcast of a weak update.
    Rb(LinkMsg<RbMsg<Req<Op>>>),
    /// Total order broadcast of a strong operation.
    Tob(bayou_broadcast::PaxosMsg<Req<Op>>),
}

/// A "common sense" mixed-consistency store with **no speculation and no
/// rollbacks**:
///
/// * weak updating operations apply locally at once, are RB-cast, and
///   apply at other replicas in arrival order — each replica thus commits
///   to a single, never-revised local order (this is what would make weak
///   operations `BEC`: every return value is explained by the local
///   arbitration, and there is no second, conflicting order to fluctuate
///   against);
/// * weak read-only operations read the local state;
/// * strong operations go through TOB and respond from the local state
///   once delivered, like state-machine replication (aiming at
///   `Seq(strong, F)`).
///
/// Theorem 1 says these aims are jointly unachievable, and this protocol
/// shows *how* they fail: replicas apply non-commuting weak updates in
/// different arrival orders and, having forsworn rollbacks, **diverge
/// permanently** — eventual visibility forces each replica's responses to
/// reflect an arbitration order that cannot be reconciled with the strong
/// operations' total order. `tests/theorem1.rs` drives this protocol
/// through the paper's adversarial schedule and lets the brute-force
/// checker verify that the resulting history admits no
/// `BEC(weak) ∧ Seq(strong)` abstract execution.
pub struct NaiveMixed<F: DataType> {
    state: F::State,
    /// Operations applied, in local application order (the local
    /// arbitration witness).
    applied: Vec<ReqId>,
    curr_event_no: u64,
    rb: ReliableBroadcast<Req<F::Op>>,
    tob: PaxosTob<Req<F::Op>>,
    tob_seq: u64,
    awaiting: HashSet<ReqId>,
    outputs: Vec<Response>,
}

impl<F: DataType> NaiveMixed<F> {
    /// Creates a replica for a cluster of `n` replicas.
    pub fn new(n: usize) -> Self {
        NaiveMixed {
            state: F::State::default(),
            applied: Vec::new(),
            curr_event_no: 0,
            rb: ReliableBroadcast::new(n, VirtualTime::from_millis(60)),
            tob: PaxosTob::with_defaults(n),
            tob_seq: 0,
            awaiting: HashSet::new(),
            outputs: Vec::new(),
        }
    }

    /// The local application order (ids).
    pub fn applied_ids(&self) -> &[ReqId] {
        &self.applied
    }

    /// Materialises the local state.
    pub fn materialize(&self) -> F::State {
        self.state.clone()
    }

    fn apply(&mut self, r: &Req<F::Op>) -> Value {
        self.applied.push(r.id());
        F::apply(&mut self.state, &r.op)
    }

    fn respond(&mut self, r: &Req<F::Op>, value: Value, trace: Vec<ReqId>) {
        let served = match r.level {
            Level::Weak => Served::Speculative,
            Level::Strong => Served::Committed,
        };
        self.outputs.push(Response {
            meta: r.meta(),
            value,
            exec_trace: ExecTrace::full(trace),
            tag: None,
            served,
        });
    }
}

impl<F: DataType> Process for NaiveMixed<F> {
    type Msg = NaiveMsg<F::Op>;
    type Input = Invocation<F::Op>;
    type Output = Response;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        let mut tctx = MapCtx::new(ctx, NaiveMsg::Tob);
        self.tob.on_start(&mut tctx);
    }

    fn on_input(&mut self, inv: Invocation<F::Op>, ctx: &mut dyn Context<Self::Msg>) {
        self.curr_event_no += 1;
        let r = Req::new(
            ctx.clock(),
            Dot::new(ctx.id(), self.curr_event_no),
            inv.level,
            inv.op,
        );
        match r.level {
            Level::Weak => {
                let trace = self.applied.clone();
                if F::is_read_only(&r.op) {
                    let value = F::apply(&mut self.state, &r.op);
                    self.respond(&r, value, trace);
                } else {
                    let value = self.apply(&r);
                    self.respond(&r, value, trace);
                    let mut rctx = MapCtx::new(ctx, NaiveMsg::Rb);
                    self.rb.broadcast(r, &mut rctx);
                }
            }
            Level::Strong => {
                self.awaiting.insert(r.id());
                let seq = self.tob_seq;
                self.tob_seq += 1;
                let mut tctx = MapCtx::new(ctx, NaiveMsg::Tob);
                self.tob.cast(seq, r, &mut tctx);
            }
        }
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>) {
        match msg {
            NaiveMsg::Rb(frame) => {
                let delivered = {
                    let mut rctx = MapCtx::new(ctx, NaiveMsg::Rb);
                    self.rb.on_message(from, frame, &mut rctx)
                };
                for (_id, r) in delivered {
                    if r.origin() != ctx.id() {
                        self.apply(&r);
                    }
                }
            }
            NaiveMsg::Tob(tm) => {
                let batch = {
                    let mut tctx = MapCtx::new(ctx, NaiveMsg::Tob);
                    self.tob.on_message(from, tm, &mut tctx)
                };
                for d in batch {
                    let r = d.payload;
                    let trace = self.applied.clone();
                    let value = self.apply(&r);
                    if self.awaiting.remove(&r.id()) {
                        self.respond(&r, value, trace);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Self::Msg>) {
        let mine = {
            let mut rctx = MapCtx::new(ctx, NaiveMsg::Rb);
            self.rb.on_timer(timer, &mut rctx)
        };
        if mine {
            return;
        }
        if self.tob.owns_timer(timer) {
            let batch = {
                let mut tctx = MapCtx::new(ctx, NaiveMsg::Tob);
                self.tob.on_timer(timer, &mut tctx)
            };
            for d in batch {
                let r = d.payload;
                let trace = self.applied.clone();
                let value = self.apply(&r);
                if self.awaiting.remove(&r.id()) {
                    self.respond(&r, value, trace);
                }
            }
        }
    }

    fn drain_outputs(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_data::{AppendList, ListOp};
    use bayou_sim::{NetworkConfig, Sim, SimConfig};

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    #[test]
    fn weak_ops_respond_immediately_and_propagate() {
        let n = 2;
        let cfg = SimConfig::new(n, 3).with_max_time(ms(3_000));
        let mut sim = Sim::new(cfg, move |_| NaiveMixed::<AppendList>::new(n));
        sim.schedule_input(
            ms(1),
            ReplicaId::new(0),
            Invocation::weak(ListOp::append("a")),
        );
        let report = sim.run_until(ms(3_000));
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.outputs[0].output.value, Value::from("a"));
        assert_eq!(
            sim.process(ReplicaId::new(1)).materialize(),
            vec!["a".to_string()]
        );
    }

    #[test]
    fn concurrent_weak_updates_diverge_permanently() {
        // the protocol's fatal flaw: no rollbacks means arrival order is
        // final, and arrival orders differ.
        let n = 2;
        let cfg = SimConfig::new(n, 3)
            .with_net(NetworkConfig::fixed(ms(5)))
            .with_max_time(ms(3_000));
        let mut sim = Sim::new(cfg, move |_| NaiveMixed::<AppendList>::new(n));
        sim.schedule_input(
            ms(1),
            ReplicaId::new(0),
            Invocation::weak(ListOp::append("a")),
        );
        sim.schedule_input(
            ms(1),
            ReplicaId::new(1),
            Invocation::weak(ListOp::append("b")),
        );
        sim.run_until(ms(3_000));
        let s0 = sim.process(ReplicaId::new(0)).materialize();
        let s1 = sim.process(ReplicaId::new(1)).materialize();
        assert_eq!(s0, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s1, vec!["b".to_string(), "a".to_string()]);
        assert_ne!(s0, s1, "no mechanism ever reconciles the orders");
    }

    #[test]
    fn strong_ops_are_totally_ordered() {
        let n = 3;
        let cfg = SimConfig::new(n, 8).with_max_time(ms(5_000));
        let mut sim = Sim::new(cfg, move |_| NaiveMixed::<AppendList>::new(n));
        sim.schedule_input(
            ms(1),
            ReplicaId::new(0),
            Invocation::strong(ListOp::append("x")),
        );
        sim.schedule_input(
            ms(2),
            ReplicaId::new(1),
            Invocation::strong(ListOp::append("y")),
        );
        let report = sim.run_until(ms(5_000));
        assert_eq!(report.outputs.len(), 2);
        // all replicas applied the strong ops in the same TOB order
        let orders: Vec<Vec<ReqId>> = (0..n as u32)
            .map(|i| sim.process(ReplicaId::new(i)).applied_ids().to_vec())
            .collect();
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
    }
}
