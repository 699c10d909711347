//! Property-based tests of the broadcast substrate: RB and TOB contracts
//! under randomized schedules, delays and partitions, plus round-trips
//! of the Paxos/link frame codecs through pooled (dirty-reuse) buffers.

use bayou_broadcast::{
    Ballot, Entry, FifoRelease, LinkMsg, PaxosMsg, PaxosTob, RbId, RbMsg, Tob, TobDelivery,
};
use bayou_sim::{NetworkConfig, Partition, PartitionSchedule, Sim, SimConfig};
use bayou_types::{BufPool, Context, Process, ReplicaId, TimerId, VirtualTime, Wire};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

// -- a minimal process exposing PaxosTob over u64 payloads ---------------

#[derive(Debug)]
struct TobProc {
    tob: PaxosTob<u64>,
    next_seq: u64,
    delivered: Vec<TobDelivery<u64>>,
}

impl TobProc {
    fn new(n: usize) -> Self {
        TobProc {
            tob: PaxosTob::with_defaults(n),
            next_seq: 0,
            delivered: Vec::new(),
        }
    }
}

impl Process for TobProc {
    type Msg = PaxosMsg<u64>;
    type Input = u64;
    type Output = ();

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.tob.on_start(ctx);
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>) {
        let batch = self.tob.on_message(from, msg, ctx);
        self.delivered.extend(batch);
    }

    fn on_timer(&mut self, t: TimerId, ctx: &mut dyn Context<Self::Msg>) {
        if self.tob.owns_timer(t) {
            let batch = self.tob.on_timer(t, ctx);
            self.delivered.extend(batch);
        }
    }

    fn on_input(&mut self, payload: u64, ctx: &mut dyn Context<Self::Msg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tob.cast(seq, payload, ctx);
    }

    fn drain_outputs(&mut self) -> Vec<()> {
        Vec::new()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// TOB agreement + total order + FIFO, under random loads and jitter.
    #[test]
    fn paxos_total_order_and_fifo(
        seed in 0u64..5_000,
        casts in proptest::collection::vec((0u64..100, 0u32..3), 1..12),
    ) {
        let n = 3;
        let cfg = SimConfig::new(n, seed).with_max_time(ms(20_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        for (k, (t, r)) in casts.iter().enumerate() {
            sim.schedule_input(ms(1 + t), ReplicaId::new(*r), k as u64);
        }
        sim.run_until(ms(20_000));

        let orders: Vec<Vec<(ReplicaId, u64)>> = (0..n as u32)
            .map(|i| {
                sim.process(ReplicaId::new(i))
                    .delivered
                    .iter()
                    .map(|d| (d.sender, d.seq))
                    .collect()
            })
            .collect();
        // everyone delivered everything, in the identical order
        prop_assert_eq!(orders[0].len(), casts.len());
        prop_assert_eq!(&orders[0], &orders[1]);
        prop_assert_eq!(&orders[1], &orders[2]);
        // FIFO per sender: seqs of each sender appear in increasing order
        for r in 0..n as u32 {
            let seqs: Vec<u64> = orders[0]
                .iter()
                .filter(|(s, _)| *s == ReplicaId::new(r))
                .map(|(_, q)| *q)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort();
            prop_assert_eq!(seqs, sorted, "sender FIFO violated");
        }
    }

    /// TOB safety across a random partition: the delivery sequences of
    /// any two replicas are prefix-compatible at all times, and after the
    /// heal everything converges.
    #[test]
    fn paxos_safe_across_partitions(
        seed in 0u64..5_000,
        cut_start in 5u64..50,
        cut_len in 50u64..500,
        k in 1usize..3,
    ) {
        let n = 3;
        let net = NetworkConfig {
            partitions: PartitionSchedule::new(vec![Partition::split_at(
            ms(cut_start),
            ms(cut_start + cut_len),
            k,
            n,
        )]),
            ..Default::default()
        };
        let cfg = SimConfig::new(n, seed).with_net(net).with_max_time(ms(30_000));
        let mut sim = Sim::new(cfg, move |_| TobProc::new(n));
        for i in 0..6u64 {
            sim.schedule_input(ms(1 + i * 20), ReplicaId::new((i % 3) as u32), i);
        }
        sim.run_until(ms(30_000));
        let orders: Vec<Vec<u64>> = (0..n as u32)
            .map(|i| {
                sim.process(ReplicaId::new(i))
                    .delivered
                    .iter()
                    .map(|d| d.payload)
                    .collect()
            })
            .collect();
        prop_assert_eq!(orders[0].len(), 6, "all deliver after heal: {:?}", orders);
        prop_assert_eq!(&orders[0], &orders[1]);
        prop_assert_eq!(&orders[1], &orders[2]);
    }

    /// Every Paxos frame variant survives pooled encode → decode, with
    /// the pooled buffer deliberately dirty: it previously carried a
    /// large `Catchup` frame plus trailing garbage, so a decode that
    /// read past the encoded length or assumed a fresh zeroed `Vec`
    /// would surface here.
    #[test]
    fn paxos_frames_round_trip_through_dirty_pool_buffers(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = BufPool::new();
        // dirty the pool's one buffer with a big frame + garbage
        let mut big = pool.checkout();
        PaxosMsg::Catchup {
            first: 0,
            entries: (0..48u64).map(|i| entry(i as u32 % 3, i, i * 13)).collect(),
            stable_upto: 48,
            floor: 7,
        }
        .encode(&mut big);
        big.extend_from_slice(&[0x5Au8; 192]);
        pool.checkin(big);

        for _ in 0..24 {
            let msg = random_paxos_msg(&mut rng);
            let buf = pool.encode(&msg);
            let back = PaxosMsg::<u64>::from_bytes(&buf).expect("pooled frame decodes");
            prop_assert_eq!(back, msg);
            pool.checkin(buf);
        }
        prop_assert_eq!(pool.misses(), 1, "one buffer serves the whole run");
    }

    /// The link/RB layers' frames under the same dirty-reuse regime.
    #[test]
    fn link_frames_round_trip_through_dirty_pool_buffers(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = BufPool::new();
        let mut big = pool.checkout();
        big.extend_from_slice(&[0xC3u8; 256]);
        pool.checkin(big);

        for _ in 0..24 {
            let msg: LinkMsg<RbMsg<u64>> = random_link_msg(&mut rng);
            let buf = pool.encode(&msg);
            let back = LinkMsg::<RbMsg<u64>>::from_bytes(&buf).expect("pooled frame decodes");
            prop_assert_eq!(back, msg);
            pool.checkin(buf);
        }
        prop_assert_eq!(pool.misses(), 1, "one buffer serves the whole run");
    }

    /// FifoRelease emits exactly the pushed entries, in per-sender seq
    /// order, regardless of the (duplicate-laden) push order.
    #[test]
    fn fifo_release_is_a_permutation_with_sender_order(
        pushes in proptest::collection::vec((0u32..3, 0u64..6), 1..40),
    ) {
        let mut f: FifoRelease<(u32, u64)> = FifoRelease::new(3);
        let mut out = Vec::new();
        for (s, q) in &pushes {
            out.extend(f.push(ReplicaId::new(*s), *q, (*s, *q)));
        }
        // no duplicates in the output
        let mut seen = std::collections::HashSet::new();
        for e in &out {
            prop_assert!(seen.insert(*e), "duplicate release {e:?}");
        }
        // per-sender: released seqs are exactly 0..k in order
        for s in 0u32..3 {
            let seqs: Vec<u64> = out.iter().filter(|(x, _)| *x == s).map(|(_, q)| *q).collect();
            let expect: Vec<u64> = (0..seqs.len() as u64).collect();
            prop_assert_eq!(seqs, expect);
        }
    }
}

// -- seed-driven frame generators for the codec round-trips ---------------

fn entry(sender: u32, seq: u64, payload: u64) -> Entry<u64> {
    Entry::new(ReplicaId::new(sender), seq, payload)
}

fn ballot(rng: &mut StdRng) -> Ballot {
    Ballot {
        round: rng.gen_range(0..1_000),
        leader: ReplicaId::new(rng.gen_range(0..5u32)),
    }
}

fn entries(rng: &mut StdRng) -> Vec<Entry<u64>> {
    (0..rng.gen_range(0..6u64))
        .map(|_| {
            entry(
                rng.gen_range(0..5u32),
                rng.gen_range(0..1_000),
                rng.gen_range(0..u64::MAX),
            )
        })
        .collect()
}

/// A random frame covering every `PaxosMsg` variant.
fn random_paxos_msg(rng: &mut StdRng) -> PaxosMsg<u64> {
    match rng.gen_range(0..11u8) {
        0 => PaxosMsg::Submit {
            entries: entries(rng),
            decided_upto: rng.gen_range(0..1_000),
            committed_upto: rng.gen_range(0..1_000),
        },
        1 => PaxosMsg::Prepare {
            ballot: ballot(rng),
            decided_upto: rng.gen_range(0..1_000),
        },
        2 => PaxosMsg::Promise {
            ballot: ballot(rng),
            accepted: (0..rng.gen_range(0..4u64))
                .map(|_| {
                    (
                        rng.gen_range(0..1_000),
                        ballot(rng),
                        entry(
                            rng.gen_range(0..5u32),
                            rng.gen_range(0..1_000),
                            rng.gen_range(0..u64::MAX),
                        ),
                    )
                })
                .collect(),
            decided_upto: rng.gen_range(0..1_000),
            committed_upto: rng.gen_range(0..1_000),
        },
        3 => PaxosMsg::Accept {
            ballot: ballot(rng),
            slot: rng.gen_range(0..1_000),
            entry: entry(
                rng.gen_range(0..5u32),
                rng.gen_range(0..1_000),
                rng.gen_range(0..u64::MAX),
            ),
        },
        4 => PaxosMsg::Accepted {
            ballot: ballot(rng),
            slot: rng.gen_range(0..1_000),
        },
        5 => PaxosMsg::Decide {
            slot: rng.gen_range(0..1_000),
            entry: entry(
                rng.gen_range(0..5u32),
                rng.gen_range(0..1_000),
                rng.gen_range(0..u64::MAX),
            ),
            stable_upto: rng.gen_range(0..1_000),
        },
        6 => PaxosMsg::DecideAck {
            upto: rng.gen_range(0..1_000),
            committed_upto: rng.gen_range(0..1_000),
            stable_upto: rng.gen_range(0..1_000),
        },
        7 => PaxosMsg::Catchup {
            first: rng.gen_range(0..1_000),
            entries: entries(rng),
            stable_upto: rng.gen_range(0..1_000),
            floor: rng.gen_range(0..1_000),
        },
        8 => PaxosMsg::LeaseGrant {
            ballot: ballot(rng),
            grant: rng.gen_range(0..1_000),
            duration_us: rng.gen_range(0..1_000_000),
        },
        9 => PaxosMsg::LeaseAck {
            ballot: ballot(rng),
            grant: rng.gen_range(0..1_000),
            clock: rng.gen_range(-1_000_000..1_000_000),
        },
        _ => PaxosMsg::Nack {
            promised: ballot(rng),
        },
    }
}

/// A random link frame (data frames carry RB payloads, as on the real
/// replica wire).
fn random_link_msg(rng: &mut StdRng) -> LinkMsg<RbMsg<u64>> {
    if rng.gen_range(0..2u8) == 0 {
        LinkMsg::Data {
            incarnation: rng.gen_range(0..u64::MAX),
            floor: rng.gen_range(0..1_000),
            seq: rng.gen_range(0..1_000),
            payloads: (0..rng.gen_range(0..5u64))
                .map(|_| RbMsg {
                    id: RbId {
                        origin: ReplicaId::new(rng.gen_range(0..5u32)),
                        seq: rng.gen_range(0..1_000),
                    },
                    floor: rng.gen_range(0..1_000),
                    payload: rng.gen_range(0..u64::MAX),
                })
                .collect(),
        }
    } else {
        LinkMsg::Ack {
            incarnation: rng.gen_range(0..u64::MAX),
            upto: rng.gen_range(0..1_000),
            sparse: (0..rng.gen_range(0..4u64))
                .map(|_| rng.gen_range(0..1_000))
                .collect(),
        }
    }
}
