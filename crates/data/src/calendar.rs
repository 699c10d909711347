//! A meeting-room calendar — Bayou's original motivating application.

use crate::datatype::{DataType, RandomOp};
use bayou_types::Value;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// A meeting-room reservation calendar.
///
/// The original Bayou paper (Terry et al., SOSP '95) was motivated by a
/// meeting-room scheduler for weakly-connected laptops: users make
/// *tentative* reservations that may later be rearranged when replicas
/// reconcile. In this reproduction, `reserve` issued as a weak operation
/// gives exactly that behaviour (the tentative success may be revoked by
/// the final order), while a strong `reserve` is a confirmed booking.
///
/// A slot is identified by `(room, slot)`; a reservation stores the
/// attendee name. `reserve` fails if the slot is already taken — this is
/// the application-level "dependency check" of the original Bayou,
/// emulated on the level of operation specification as the paper's §2.1
/// prescribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Calendar;

/// A fully-qualified slot key.
fn slot_key(room: &str, slot: u32) -> String {
    format!("{room}#{slot:04}")
}

/// Operations of [`Calendar`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CalendarOp {
    /// Reserves `(room, slot)` for `who`; returns `true` iff the slot was
    /// free.
    Reserve {
        /// Room name.
        room: String,
        /// Slot index (e.g. hour of week).
        slot: u32,
        /// Attendee making the reservation.
        who: String,
    },
    /// Cancels a reservation if held by `who`; returns `true` on success.
    Cancel {
        /// Room name.
        room: String,
        /// Slot index.
        slot: u32,
        /// Attendee cancelling.
        who: String,
    },
    /// Returns the holder of `(room, slot)` or [`Value::None`].
    Holder {
        /// Room name.
        room: String,
        /// Slot index.
        slot: u32,
    },
    /// Returns all `room#slot → who` bindings of one room.
    Schedule(String),
}

impl CalendarOp {
    /// Convenience constructor for [`CalendarOp::Reserve`].
    pub fn reserve(room: impl Into<String>, slot: u32, who: impl Into<String>) -> CalendarOp {
        CalendarOp::Reserve {
            room: room.into(),
            slot,
            who: who.into(),
        }
    }

    /// Convenience constructor for [`CalendarOp::Cancel`].
    pub fn cancel(room: impl Into<String>, slot: u32, who: impl Into<String>) -> CalendarOp {
        CalendarOp::Cancel {
            room: room.into(),
            slot,
            who: who.into(),
        }
    }

    /// Convenience constructor for [`CalendarOp::Holder`].
    pub fn holder(room: impl Into<String>, slot: u32) -> CalendarOp {
        CalendarOp::Holder {
            room: room.into(),
            slot,
        }
    }
}

impl fmt::Display for CalendarOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalendarOp::Reserve { room, slot, who } => {
                write!(f, "reserve({room}, {slot}, {who})")
            }
            CalendarOp::Cancel { room, slot, who } => write!(f, "cancel({room}, {slot}, {who})"),
            CalendarOp::Holder { room, slot } => write!(f, "holder({room}, {slot})"),
            CalendarOp::Schedule(room) => write!(f, "schedule({room})"),
        }
    }
}

impl DataType for Calendar {
    type State = BTreeMap<String, String>;
    type Op = CalendarOp;

    const NAME: &'static str = "calendar";

    fn apply(state: &mut Self::State, op: &Self::Op) -> Value {
        match op {
            CalendarOp::Reserve { room, slot, who } => {
                let key = slot_key(room, *slot);
                if let std::collections::btree_map::Entry::Vacant(e) = state.entry(key) {
                    e.insert(who.clone());
                    Value::Bool(true)
                } else {
                    Value::Bool(false)
                }
            }
            CalendarOp::Cancel { room, slot, who } => {
                let key = slot_key(room, *slot);
                if state.get(&key) == Some(who) {
                    state.remove(&key);
                    Value::Bool(true)
                } else {
                    Value::Bool(false)
                }
            }
            CalendarOp::Holder { room, slot } => state
                .get(&slot_key(room, *slot))
                .map(|w| Value::Str(w.clone()))
                .unwrap_or(Value::None),
            CalendarOp::Schedule(room) => {
                let prefix = format!("{room}#");
                Value::Map(
                    state
                        .iter()
                        .filter(|(k, _)| k.starts_with(&prefix))
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                )
            }
        }
    }

    fn is_read_only(op: &Self::Op) -> bool {
        matches!(op, CalendarOp::Holder { .. } | CalendarOp::Schedule(_))
    }
}

/// Inverse record of one [`Calendar`] operation: at most one slot
/// binding (`room#slot → who`) to restore.
pub type CalendarUndo = crate::delta::MapRestore<String>;

impl crate::InvertibleDataType for Calendar {
    type Undo = CalendarUndo;

    fn apply_undoable(state: &mut Self::State, op: &Self::Op) -> Option<(Value, Self::Undo)> {
        Some(match op {
            CalendarOp::Reserve { room, slot, who } => {
                let key = slot_key(room, *slot);
                if state.contains_key(&key) {
                    (Value::Bool(false), CalendarUndo::Nothing)
                } else {
                    state.insert(key.clone(), who.clone());
                    (Value::Bool(true), CalendarUndo::Restore(key, None))
                }
            }
            CalendarOp::Cancel { room, slot, who } => {
                let key = slot_key(room, *slot);
                if state.get(&key) == Some(who) {
                    let prev = state.remove(&key);
                    (Value::Bool(true), CalendarUndo::Restore(key, prev))
                } else {
                    (Value::Bool(false), CalendarUndo::Nothing)
                }
            }
            CalendarOp::Holder { .. } | CalendarOp::Schedule(_) => {
                (Self::apply(state, op), CalendarUndo::Nothing)
            }
        })
    }

    fn undo(state: &mut Self::State, undo: Self::Undo) {
        undo.apply_to(state);
    }
}

const ROOMS: [&str; 2] = ["atrium", "library"];
const PEOPLE: [&str; 4] = ["ann", "ben", "cyd", "dan"];

impl RandomOp for Calendar {
    fn random_op<R: Rng + ?Sized>(rng: &mut R) -> CalendarOp {
        let room = ROOMS[rng.gen_range(0..ROOMS.len())];
        let slot = rng.gen_range(0..6);
        let who = PEOPLE[rng.gen_range(0..PEOPLE.len())];
        match rng.gen_range(0..8) {
            0..=4 => CalendarOp::reserve(room, slot, who),
            5 => CalendarOp::cancel(room, slot, who),
            6 => CalendarOp::holder(room, slot),
            _ => CalendarOp::Schedule(room.to_string()),
        }
    }

    fn random_update<R: Rng + ?Sized>(rng: &mut R) -> CalendarOp {
        let room = ROOMS[rng.gen_range(0..ROOMS.len())];
        let slot = rng.gen_range(0..6);
        let who = PEOPLE[rng.gen_range(0..PEOPLE.len())];
        if rng.gen_bool(0.8) {
            CalendarOp::reserve(room, slot, who)
        } else {
            CalendarOp::cancel(room, slot, who)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_conflicts_on_same_slot() {
        let mut s = BTreeMap::new();
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::reserve("atrium", 9, "ann")),
            Value::Bool(true)
        );
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::reserve("atrium", 9, "ben")),
            Value::Bool(false)
        );
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::holder("atrium", 9)),
            Value::from("ann")
        );
    }

    #[test]
    fn different_slots_do_not_conflict() {
        let mut s = BTreeMap::new();
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::reserve("atrium", 1, "ann")),
            Value::Bool(true)
        );
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::reserve("atrium", 2, "ben")),
            Value::Bool(true)
        );
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::reserve("library", 1, "cyd")),
            Value::Bool(true)
        );
    }

    #[test]
    fn cancel_only_by_holder() {
        let mut s = BTreeMap::new();
        Calendar::apply(&mut s, &CalendarOp::reserve("atrium", 3, "ann"));
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::cancel("atrium", 3, "ben")),
            Value::Bool(false)
        );
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::cancel("atrium", 3, "ann")),
            Value::Bool(true)
        );
        assert_eq!(
            Calendar::apply(&mut s, &CalendarOp::holder("atrium", 3)),
            Value::None
        );
    }

    #[test]
    fn schedule_filters_by_room() {
        let mut s = BTreeMap::new();
        Calendar::apply(&mut s, &CalendarOp::reserve("atrium", 1, "ann"));
        Calendar::apply(&mut s, &CalendarOp::reserve("library", 2, "ben"));
        let sched = Calendar::apply(&mut s, &CalendarOp::Schedule("atrium".to_string()));
        let mut expect = BTreeMap::new();
        expect.insert("atrium#0001".to_string(), Value::Str("ann".to_string()));
        assert_eq!(sched, Value::Map(expect));
        assert_eq!(sched.as_map().map(|m| m.len()), Some(1));
    }

    #[test]
    fn concurrent_reservations_conflict_detected_by_commutes() {
        use crate::datatype::commutes;
        assert!(!commutes::<Calendar>(
            &[],
            &CalendarOp::reserve("atrium", 9, "ann"),
            &CalendarOp::reserve("atrium", 9, "ben")
        ));
    }

    #[test]
    fn read_only_classification() {
        assert!(Calendar::is_read_only(&CalendarOp::holder("a", 0)));
        assert!(Calendar::is_read_only(&CalendarOp::Schedule("a".into())));
        assert!(!Calendar::is_read_only(&CalendarOp::reserve("a", 0, "x")));
    }
}
