//! The five workloads and their seeded operation streams.
//!
//! A workload is a fixed number of operations per connection, derived
//! from the round length and nothing the server does: throughput of this
//! system depends on history length, so both sides of a comparison must
//! run the same operations. The program under test sees only the
//! generated requests; seed, rates and counts live here.

use bayou_data::KvOp;
use bayou_types::Level;

/// Connections (and generator threads) per run. Two is the minimum that
/// homes operations on two replicas, which is what makes speculation
/// roll back, and it is the sandbox's core count.
pub const CONNS: usize = 2;

/// Keys the strong and mixed streams range over (`k0`…`k1023`).
pub const KEYS: u16 = 1024;

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// On a schedule, `rate` operations per second over all connections
    /// on average, whether or not earlier replies have arrived. The
    /// arrivals are a Poisson process (see [`due_times`]).
    Open { rate: u32 },
    /// Each connection keeps `window` operations in flight; `nominal` is
    /// the operations per second of round length the fixed count is
    /// sized with. `fenced`: a strong operation is a flush, sent alone.
    Closed {
        window: usize,
        nominal: u32,
        fenced: bool,
    },
}

/// Which operations of the stream are strong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Every `n`-th operation is strong; puts and gets by coin flip.
    StrongEvery(u32),
    /// Weak puts and gets by coin flip, and every `n`-th operation a
    /// strong flush, put and get by turns.
    WeakFlushEvery(u32),
    /// Of every ten operations one is a strong put, one is weak (put
    /// and get by turns, the puts on keys of their own) and eight are
    /// strong gets.
    ReadMostly,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub pacing: Pacing,
    pub mix: Mix,
    /// Server-side leader lease (400 ms, ε 40 ms).
    pub lease: bool,
    /// Replica 0 is crashed and restarted twice during a round.
    pub crash: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "mixed_open",
        why: "open loop, Poisson arrivals at 1500 ops/s, every 8th strong: the paper's mix below saturation, so latency is the pipeline (replica steps, one broadcast round, WAL and snapshots), not queueing",
        pacing: Pacing::Open { rate: 1500 },
        mix: Mix::StrongEvery(8),
        lease: false,
        crash: false,
    },
    Spec {
        name: "mixed_closed",
        why: "closed loop, 2 connections with 2 in flight each, every 8th strong: the same stream from callers that wait, where strong ops fill the windows and commit latency under load sets throughput",
        pacing: Pacing::Closed {
            window: 2,
            nominal: 6000,
            fenced: false,
        },
        mix: Mix::StrongEvery(8),
        lease: false,
        crash: false,
    },
    Spec {
        name: "weak_closed",
        why: "closed loop 2x2 of weak ops, flushed by a lone strong op every 100: bursts outrun TOB, so throughput is time per op in core, codecs, net and storage, and the flush is the commit lag",
        pacing: Pacing::Closed {
            window: 2,
            nominal: 8000,
            fenced: true,
        },
        mix: Mix::WeakFlushEvery(100),
        lease: false,
        crash: false,
    },
    Spec {
        name: "read_lease",
        why: "open loop, Poisson arrivals at 1500 ops/s, 80% strong gets under a 400 ms lease beside 10% strong puts and 10% weak: reads bypass broadcast and storage while writes pay both",
        pacing: Pacing::Open { rate: 1500 },
        mix: Mix::ReadMostly,
        lease: true,
        crash: false,
    },
    Spec {
        name: "crash_cycle",
        why: "open loop, Poisson arrivals at 1000 ops/s, every 4th strong, while replica 0 (the presumed leader) is crashed and recovered from its WAL twice a round: failover and recovery under scheduled arrivals",
        pacing: Pacing::Open { rate: 1000 },
        mix: Mix::StrongEvery(4),
        lease: false,
        crash: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Operations per second the run is sized with: the open-loop rate,
    /// or the nominal rate of a closed loop.
    pub fn per_second(&self) -> u32 {
        match self.pacing {
            Pacing::Open { rate } => rate,
            Pacing::Closed { nominal, .. } => nominal,
        }
    }

    /// Operations of a round, over all connections, for a length given
    /// in tenths of a second; a multiple of [`CONNS`].
    pub fn total_ops(&self, tenths: u64) -> usize {
        (u64::from(self.per_second()) * tenths / 10) as usize / CONNS * CONNS
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
}

/// One generated operation, compact enough to keep a whole run's stream
/// in memory beside its measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub level: Level,
    pub kind: Kind,
    /// `k<key>`; keys at or above [`KEYS`] are only ever written weakly.
    pub key: u16,
}

impl Op {
    /// The request for the `idx`-th operation of connection `conn`. The
    /// value of a put is its op number, unique over the run and rising
    /// along a connection.
    pub fn to_kv(self, conn: usize, idx: usize) -> KvOp {
        match self.kind {
            Kind::Put => KvOp::put(key_name(self.key), put_value(conn, idx)),
            Kind::Get => KvOp::get(key_name(self.key)),
        }
    }
}

pub fn key_name(key: u16) -> String {
    format!("k{key}")
}

pub fn put_value(conn: usize, idx: usize) -> i64 {
    (idx * CONNS + conn) as i64
}

/// The connection and index a put value names.
pub fn value_origin(value: i64) -> (usize, usize) {
    let v = value as usize;
    (v % CONNS, v / CONNS)
}

/// xorshift64*, seeded through splitmix64 so nearby seeds give unrelated
/// streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The random stream of connection `conn`'s due times, apart from the
/// streams its operations are drawn from.
const DUE_STREAM: u64 = 1 << 32;

/// Operations per second at which the simulated cluster is fed a
/// closed-loop workload: what it commits without a growing backlog
/// (its links take 1 ms), where the real closed loops' 10 000 would
/// bury it.
const SIM_CLOSED_RATE: u32 = 2000;

/// When each of connection `conn`'s first `count` operations is due,
/// nanoseconds after the start, rising.
///
/// An open loop's arrivals are a Poisson process of its rate, split
/// evenly over the connections: gaps are exponential, drawn from the
/// seed. Evenly spaced arrivals would beat against the replicas' event
/// loops, which poll on a fixed period: the share of a period a request
/// waits then depends on how the two periods happen to align in a run,
/// and the median latency with it. Random arrivals see the average wait.
///
/// A closed loop has no schedule; the ladder's simulated rung replays
/// it evenly at [`SIM_CLOSED_RATE`].
pub fn due_times(spec: &Spec, seed: u64, conn: usize, count: usize) -> Vec<u64> {
    let rate = match spec.pacing {
        Pacing::Open { rate } => rate,
        Pacing::Closed { .. } => SIM_CLOSED_RATE,
    };
    let mean_gap_ns = CONNS as f64 * 1e9 / f64::from(rate);
    match spec.pacing {
        Pacing::Open { .. } => {
            let mut rng = Rng::new(seed, DUE_STREAM + conn as u64);
            let mut at = 0.0;
            (0..count)
                .map(|_| {
                    // uniform in (0, 1), so the logarithm is finite
                    let u = ((rng.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                    at += -u.ln() * mean_gap_ns;
                    at as u64
                })
                .collect()
        }
        Pacing::Closed { .. } => (0..count)
            .map(|i| ((i * CONNS + conn) as f64 * mean_gap_ns / CONNS as f64) as u64)
            .collect(),
    }
}

/// A key uniform over `0..KEYS` that is congruent to `conn` modulo
/// [`CONNS`]: connection *i* writes only such keys, so every key has one
/// writer and its values rise in the order that writer sent them.
fn own_key(rng: &mut Rng, conn: usize) -> u16 {
    let slot = (rng.next() >> 33) as u16 % (KEYS / CONNS as u16);
    slot * CONNS as u16 + conn as u16
}

fn any_key(rng: &mut Rng) -> u16 {
    (rng.next() >> 33) as u16 % KEYS
}

/// The operation stream of connection `conn`: a function of the
/// workload, the seed and the count only.
pub fn generate(spec: &Spec, seed: u64, conn: usize, count: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, conn as u64);
    (0..count)
        .map(|i| {
            let coin = rng.next() & 1 == 0;
            let (level, kind, weak_own_keys) = match spec.mix {
                Mix::WeakFlushEvery(n) if i as u32 % n == n - 1 => {
                    (Level::Strong, (i as u32 / n).is_multiple_of(2), false)
                }
                Mix::WeakFlushEvery(_) => (Level::Weak, coin, false),
                Mix::StrongEvery(n) => {
                    let strong = i as u32 % n == n - 1;
                    (
                        if strong { Level::Strong } else { Level::Weak },
                        coin,
                        false,
                    )
                }
                Mix::ReadMostly => match i % 10 {
                    9 => (Level::Strong, true, false),
                    4 => (Level::Weak, (i / 10) % 2 == 0, true),
                    _ => (Level::Strong, false, false),
                },
            };
            let kind = if kind { Kind::Put } else { Kind::Get };
            let key = match kind {
                // weak puts of the read-mostly mix stay off the keys
                // strong gets read, so the freshness predicate has only
                // strong puts to reason about
                Kind::Put if weak_own_keys => KEYS + own_key(&mut rng, conn),
                Kind::Put => own_key(&mut rng, conn),
                Kind::Get => any_key(&mut rng),
            };
            Op { level, kind, key }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in &WORKLOADS {
            for conn in 0..CONNS {
                let a = generate(spec, 7, conn, 2_000);
                assert_eq!(a, generate(spec, 7, conn, 2_000), "{}", spec.name);
                assert_ne!(a, generate(spec, 8, conn, 2_000), "{}", spec.name);
            }
            assert_ne!(
                generate(spec, 7, 0, 2_000),
                generate(spec, 7, 1, 2_000),
                "connections draw from streams of their own"
            );
            // a longer run is the shorter one continued
            assert_eq!(
                generate(spec, 7, 0, 500)[..],
                generate(spec, 7, 0, 2_000)[..500]
            );
        }
    }

    #[test]
    fn open_loop_arrivals_are_poisson_and_seeded() {
        let spec = find("mixed_open").unwrap();
        let due = due_times(spec, 7, 0, 20_000);
        assert_eq!(due, due_times(spec, 7, 0, 20_000));
        assert_ne!(due, due_times(spec, 8, 0, 20_000));
        assert_ne!(due, due_times(spec, 7, 1, 20_000));
        assert_eq!(due[..500], due_times(spec, 7, 0, 500)[..]);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        // 750 ops/s per connection: a mean gap of 1333 us, and as many
        // gaps beyond the mean as an exponential has (e^-1 = 36.8 %)
        let gaps: Vec<u64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((1_300_000.0..1_366_000.0).contains(&mean), "{mean}");
        let long = gaps.iter().filter(|g| **g as f64 > mean).count();
        let share = long as f64 / gaps.len() as f64;
        assert!((0.35..0.385).contains(&share), "{share}");
        // a closed loop's nominal schedule is even and interleaved
        let closed = find("mixed_closed").unwrap();
        assert_eq!(due_times(closed, 7, 1, 3), [500_000, 1_500_000, 2_500_000]);
    }

    #[test]
    fn every_key_has_one_writer() {
        for spec in &WORKLOADS {
            for conn in 0..CONNS {
                for op in generate(spec, 3, conn, 5_000) {
                    if op.kind == Kind::Put {
                        assert_eq!(op.key as usize % CONNS, conn);
                    }
                    if op.level == Level::Strong {
                        assert!(op.key < KEYS);
                    }
                }
            }
        }
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let count = |spec: &Spec, f: &dyn Fn(&Op) -> bool| {
            generate(spec, 1, 0, 8_000).iter().filter(|o| f(o)).count()
        };
        let strong = |o: &Op| o.level == Level::Strong;
        assert_eq!(count(find("mixed_open").unwrap(), &strong), 1_000);
        assert_eq!(count(find("crash_cycle").unwrap(), &strong), 2_000);
        assert_eq!(count(find("weak_closed").unwrap(), &strong), 80);
        let lease = find("read_lease").unwrap();
        assert_eq!(count(lease, &strong), 7_200);
        assert_eq!(count(lease, &|o| strong(o) && o.kind == Kind::Put), 800);
        let puts = count(find("weak_closed").unwrap(), &|o| o.kind == Kind::Put);
        assert!((3_700..4_300).contains(&puts), "coin flip gave {puts} puts");
    }

    #[test]
    fn put_values_name_their_origin() {
        for (conn, idx) in [(0, 0), (1, 0), (0, 17), (1, 59_999)] {
            assert_eq!(value_origin(put_value(conn, idx)), (conn, idx));
        }
    }
}
