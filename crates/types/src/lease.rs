//! Leader-lease and session-read guard types.
//!
//! [`LeaseConfig`] parameterizes the time-bounded leader lease the TOB
//! layer can maintain: a leader that holds a quorum-acknowledged lease
//! serves linearizable reads locally from committed state, skipping the
//! TOB round entirely. Leases are measured on each replica's *local*
//! clock (which the simulator may skew and drift), so the window a
//! follower promises — `duration` on its own clock — and the window the
//! leader trusts — `duration − epsilon` on its clock — differ by an
//! explicit clock-uncertainty margin `epsilon`. The leader additionally
//! excludes any follower whose observed clock rate (relative to the
//! leader's) exceeds `duration / (duration − epsilon)`, so drift beyond
//! the margin disables the fast path rather than violating it; see
//! `docs/ARCHITECTURE.md` ("The read path") for the full argument.
//!
//! [`ReadGuard`] is the client-facing session cursor for follower reads:
//! a weak read tagged with a guard is answered only by a replica that has
//! already executed the session's writes up to `min_seq` (read-your-
//! writes) and holds at least `min_commit` committed operations
//! (monotonic reads across replica switches); a lagging replica rejects
//! the read with a typed retry instead of serving a stale value.

/// Parameters of the leader lease (all in microseconds of local clock).
///
/// # Examples
///
/// ```
/// use bayou_types::LeaseConfig;
/// let cfg = LeaseConfig::default();
/// assert!(cfg.epsilon_us < cfg.duration_us);
/// let short = LeaseConfig::new(100_000, 10_000);
/// assert_eq!(short.duration_us, 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Lease duration promised by each follower on its own clock.
    pub duration_us: u64,
    /// Clock-uncertainty margin subtracted from the window the leader
    /// trusts. Must be strictly less than `duration_us`.
    pub epsilon_us: u64,
}

impl LeaseConfig {
    /// Creates a config, panicking on a degenerate margin.
    pub fn new(duration_us: u64, epsilon_us: u64) -> Self {
        assert!(
            epsilon_us < duration_us,
            "lease epsilon ({epsilon_us}µs) must be below the duration ({duration_us}µs)"
        );
        LeaseConfig {
            duration_us,
            epsilon_us,
        }
    }
}

impl Default for LeaseConfig {
    /// 400 ms leases with a 40 ms uncertainty margin: long enough to
    /// span many 40 ms grant rounds, tight enough that expiry races are
    /// exercised by the DST within a few simulated seconds.
    fn default() -> Self {
        LeaseConfig::new(400_000, 40_000)
    }
}

/// A session cursor carried on weak reads over the client protocol.
///
/// `min_seq` is the highest per-session operation counter the session
/// has had acknowledged; `min_commit` is the highest committed-operation
/// count any previous read of the session observed. A replica serves a
/// guarded read only when it has executed the session's writes up to
/// `min_seq` *and* its committed count has reached `min_commit`;
/// otherwise it answers with a typed retry carrying its own cursor.
///
/// # Examples
///
/// ```
/// use bayou_types::{ReadGuard, Wire};
/// let g = ReadGuard { session: 7, min_seq: 3, min_commit: 12 };
/// assert_eq!(ReadGuard::from_bytes(&g.to_bytes()).unwrap(), g);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadGuard {
    /// Client session the cursor belongs to.
    pub session: u64,
    /// Read-your-writes floor: per-session write counter that must
    /// already be executed at the serving replica.
    pub min_seq: u64,
    /// Monotonic-reads floor: committed-operation count that must
    /// already be reached at the serving replica.
    pub min_commit: u64,
}

crate::wire! { ReadGuard { session, min_seq, min_commit } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Wire;

    #[test]
    #[should_panic(expected = "must be below")]
    fn degenerate_lease_config_panics_on_construction() {
        let _ = LeaseConfig::new(1_000, 1_000);
    }

    #[test]
    fn read_guard_round_trips() {
        let g = ReadGuard {
            session: u64::MAX,
            min_seq: 42,
            min_commit: 0,
        };
        assert_eq!(ReadGuard::from_bytes(&g.to_bytes()).unwrap(), g);
        let truncated = &g.to_bytes()[..10];
        assert!(ReadGuard::from_bytes(truncated).is_err());
    }
}
