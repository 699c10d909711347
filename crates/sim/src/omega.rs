//! The Ω failure-detector oracle and run stability.

use bayou_types::{ReplicaId, VirtualTime};

/// Whether a run is *stable* or *asynchronous*, in the paper's sense
/// (Appendix A.2.1).
///
/// Replicas are not aware which kind of run they are executing. The
/// distinction only controls the Ω oracle: in a stable run the oracle's
/// output converges, after the global stabilisation time, on the eventual
/// leader (the lowest-id correct replica); in an asynchronous run the
/// output may change forever. Consensus-based mechanisms (Total Order
/// Broadcast) therefore achieve liveness only in stable runs — their
/// *safety* never depends on Ω.
///
/// # Examples
///
/// ```
/// use bayou_sim::Stability;
/// use bayou_types::VirtualTime;
///
/// let stable = Stability::Stable {
///     gst: VirtualTime::from_millis(50),
/// };
/// assert!(matches!(stable, Stability::Stable { .. }));
/// let unstable = Stability::Asynchronous;
/// assert!(matches!(unstable, Stability::Asynchronous));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Enough synchrony for Ω to stabilise after `gst` (global
    /// stabilisation time).
    Stable {
        /// The time after which Ω output stops changing.
        gst: VirtualTime,
    },
    /// Timing assumptions consistently broken; Ω may never stabilise.
    Asynchronous,
}

impl Default for Stability {
    fn default() -> Self {
        Stability::Stable {
            gst: VirtualTime::ZERO,
        }
    }
}

/// The Ω oracle: a deterministic function of (time, seed, crash state).
#[derive(Debug, Clone)]
pub(crate) struct OmegaOracle {
    stability: Stability,
    seed: u64,
    n: usize,
    /// How often the pre-stabilisation output may rotate.
    rotation_period: VirtualTime,
}

impl OmegaOracle {
    pub fn new(stability: Stability, seed: u64, n: usize) -> Self {
        OmegaOracle {
            stability,
            seed,
            n,
            rotation_period: VirtualTime::from_millis(25),
        }
    }

    /// The oracle's output at time `t`. `crashed` flags currently-crashed
    /// replicas; the eventual leader in stable runs is the lowest-id
    /// non-crashed replica.
    pub fn query(&self, t: VirtualTime, crashed: &[bool]) -> ReplicaId {
        self.query_for(t, crashed, 0)
    }

    /// The oracle's output at time `t` for protocol *lane* `lane` (a
    /// replication group in a sharded host). Lane 0 is exactly
    /// [`OmegaOracle::query`]; in stable runs past GST the lanes'
    /// eventual leaders round-robin over the non-crashed replicas, so N
    /// co-hosted groups spread their leader work over the live cluster
    /// instead of funnelling it through the lowest id. Each lane still
    /// honours the Ω contract on its own: its output stabilises on a
    /// single correct replica.
    pub fn query_for(&self, t: VirtualTime, crashed: &[bool], lane: u32) -> ReplicaId {
        match self.stability {
            Stability::Stable { gst } if t >= gst => {
                let live: Vec<u32> = crashed
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !**c)
                    .map(|(i, _)| i as u32)
                    .collect();
                match live.is_empty() {
                    true => ReplicaId::new(0),
                    false => ReplicaId::new(live[lane as usize % live.len()]),
                }
            }
            _ => {
                // Rotate pseudo-randomly among all replicas (crashed or
                // not — a suspicious failure detector may even nominate a
                // dead replica; protocols must stay safe regardless).
                // Lanes decorrelate through the hash (lane 0 adds
                // nothing, keeping single-lane runs bit-identical).
                let epoch = t.as_nanos() / self.rotation_period.as_nanos().max(1);
                let h = epoch
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(self.seed)
                    .wrapping_add((lane as u64).wrapping_mul(0xA076_1D64_78BD_642F))
                    .rotate_left(17)
                    .wrapping_mul(0xD134_2543_DE82_EF95);
                ReplicaId::new((h % self.n as u64) as u32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    #[test]
    fn stable_run_converges_to_lowest_correct() {
        let o = OmegaOracle::new(Stability::Stable { gst: ms(100) }, 42, 3);
        let crashed = vec![false, false, false];
        for t in [100u64, 150, 1_000, 100_000] {
            assert_eq!(o.query(ms(t), &crashed), ReplicaId::new(0));
        }
    }

    #[test]
    fn stable_run_skips_crashed_leader() {
        let o = OmegaOracle::new(Stability::Stable { gst: ms(0) }, 42, 3);
        let crashed = vec![true, false, false];
        assert_eq!(o.query(ms(10), &crashed), ReplicaId::new(1));
    }

    #[test]
    fn output_before_gst_is_within_cluster() {
        let o = OmegaOracle::new(Stability::Stable { gst: ms(10_000) }, 7, 5);
        let crashed = vec![false; 5];
        for t in 0..200u64 {
            let l = o.query(ms(t * 13), &crashed);
            assert!(l.index() < 5);
        }
    }

    #[test]
    fn asynchronous_oracle_keeps_rotating() {
        let o = OmegaOracle::new(Stability::Asynchronous, 7, 4);
        let crashed = vec![false; 4];
        let outputs: std::collections::HashSet<u32> = (0..100u64)
            .map(|t| o.query(ms(t * 40), &crashed).as_u32())
            .collect();
        assert!(
            outputs.len() > 1,
            "asynchronous oracle should not stabilise, got {outputs:?}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = OmegaOracle::new(Stability::Asynchronous, 9, 4);
        let b = OmegaOracle::new(Stability::Asynchronous, 9, 4);
        let crashed = vec![false; 4];
        for t in 0..50u64 {
            assert_eq!(o_q(&a, t, &crashed), o_q(&b, t, &crashed));
        }
        fn o_q(o: &OmegaOracle, t: u64, c: &[bool]) -> ReplicaId {
            o.query(VirtualTime::from_millis(t * 17), c)
        }
    }
}
