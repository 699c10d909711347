//! Consistency levels of operations.

use std::fmt;

/// The consistency level of an operation (the `lvl` attribute of a history
/// event in the paper's framework).
///
/// * [`Level::Weak`] operations are executed in a highly-available fashion:
///   a (tentative) response is returned before the final execution order is
///   established.
/// * [`Level::Strong`] operations return only after Total Order Broadcast
///   establishes the final execution order, so their responses are stable.
///
/// # Examples
///
/// ```
/// use bayou_types::Level;
/// assert!(Level::Weak.is_weak());
/// assert!(Level::Strong.is_strong());
/// assert_ne!(Level::Weak, Level::Strong);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Highly-available, eventually-consistent execution.
    Weak,
    /// Consensus-backed, sequentially-consistent execution.
    Strong,
}

impl Level {
    /// Returns `true` for [`Level::Weak`].
    pub const fn is_weak(self) -> bool {
        matches!(self, Level::Weak)
    }

    /// Returns `true` for [`Level::Strong`].
    pub const fn is_strong(self) -> bool {
        matches!(self, Level::Strong)
    }

    /// Both levels, in declaration order.
    pub const ALL: [Level; 2] = [Level::Weak, Level::Strong];
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Weak => f.write_str("weak"),
            Level::Strong => f.write_str("strong"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(Level::Weak.is_weak());
        assert!(!Level::Weak.is_strong());
        assert!(Level::Strong.is_strong());
        assert!(!Level::Strong.is_weak());
    }

    #[test]
    fn display() {
        assert_eq!(Level::Weak.to_string(), "weak");
        assert_eq!(Level::Strong.to_string(), "strong");
    }

    #[test]
    fn all_contains_both() {
        assert_eq!(Level::ALL.len(), 2);
        assert!(Level::ALL.contains(&Level::Weak));
        assert!(Level::ALL.contains(&Level::Strong));
    }
}
