//! A stable, versioned byte format for durable storage and wire framing.
//!
//! Nothing in this workspace serializes through serde, so anything that
//! must survive a crash or cross a socket — WAL records, snapshots,
//! manifests, peer and client frames — uses an explicit, stable byte
//! encoding. The [`Wire`] trait is that encoding: little-endian
//! fixed-width integers, `u32`-length-prefixed strings and collections,
//! and one tag byte per enum variant. Composite types state their layout
//! once, in a [`wire!`] invocation. The format is *stable by contract*:
//! changing an existing impl's layout is a breaking change to every byte
//! already on disk, so new fields must come with a new record kind or a
//! format version bump in the container (see `docs/STORAGE.md`).
//!
//! Decoding is strict: every read is bounds-checked, unknown enum tags are
//! errors, and [`Wire::from_bytes`] rejects trailing garbage. Decoders
//! never panic on corrupt input — corruption surfaces as [`WireError`] so
//! the storage layer can treat a torn WAL tail as end-of-log rather than
//! aborting recovery.
//!
//! # Examples
//!
//! ```
//! use bayou_types::{Dot, Level, ReplicaId, Req, Timestamp, Wire};
//!
//! let req = Req::new(Timestamp::new(7), Dot::new(ReplicaId::new(1), 3), Level::Weak, 42u64);
//! let bytes = req.to_bytes();
//! let back = Req::<u64>::from_bytes(&bytes).unwrap();
//! assert_eq!(back, req);
//! assert_eq!(back.op, 42);
//! ```

use crate::{Dot, GroupId, Level, ReplicaId, Req, ReqMeta, Timestamp, Value, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors produced when decoding the stable byte format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The input ended before a value was fully decoded.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix was implausibly large for the remaining input.
    BadLength {
        /// The declared element count.
        declared: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Decoding finished with bytes left over ([`Wire::from_bytes`]).
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::BadTag { ty, tag } => write!(f, "unknown tag {tag} while decoding {ty}"),
            WireError::BadLength {
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} exceeds the {remaining} remaining bytes"
            ),
            WireError::BadUtf8 => f.write_str("string field is not valid utf-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after a complete value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over a byte slice being decoded.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Decodes a `u32` element count, sanity-checking it against the
    /// remaining input (every element costs at least one byte).
    pub fn take_len(&mut self) -> Result<usize, WireError> {
        let n = u32::decode(self)? as usize;
        if n > self.remaining() {
            return Err(WireError::BadLength {
                declared: n,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }
}

/// Types with a stable byte encoding (see the module docs for the format
/// contract).
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader, advancing it.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must span the entire input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

/// Derives [`Wire`] from a layout stated once: the workspace convention
/// of one `u8` tag per enum variant, then the fields in the order they
/// are written.
///
/// An enum lists `tag => Variant` entries, with the variant's fields
/// named `Variant(a, b)` or `Variant { f, g }` (or absent for a unit
/// variant); a struct lists its fields. Every type parameter gets a
/// `Wire` bound, and only the `impl Wire` is emitted: the type's
/// declaration, docs and derives stay where they are. Decoding builds
/// the value in one literal, `Wire::decode` per field, so field types
/// are inferred and bytes are read in the written order; an unknown tag
/// is [`WireError::BadTag`] naming the type. Tags are append-only: a new
/// variant takes the next free tag, and a retired tag is never reused.
///
/// `Owned<G> & Borrowed { … }` additionally gives `Borrowed<'_, G>` —
/// an enum with the same variants holding some fields by reference — an
/// inherent `encode` writing the same bytes from the same entries, so a
/// hot path can log live state without cloning it.
///
/// # Examples
///
/// ```
/// use bayou_types::{wire, Wire, WireError};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// wire! { Point { x, y } }
///
/// #[derive(Debug, PartialEq)]
/// enum Shape<T> { Dot(T), Line { from: T, to: T }, Empty }
/// wire! {
///     Shape<T> {
///         0 => Dot(at),
///         1 => Line { from, to },
///         2 => Empty,
///     }
/// }
///
/// let line = Shape::Line { from: Point { x: 1, y: 2 }, to: Point { x: 3, y: 4 } };
/// let bytes = line.to_bytes();
/// assert_eq!(bytes[0], 1); // the tag, then the fields in order
/// assert_eq!(Shape::from_bytes(&bytes), Ok(line));
/// assert_eq!(
///     Shape::<Point>::from_bytes(&[3]),
///     Err(WireError::BadTag { ty: "Shape", tag: 3 })
/// );
/// ```
#[macro_export]
macro_rules! wire {
    (@encode $s:tt $out:ident $($tag:literal => $var:ident
        $(($($a:ident),+))? $({$($f:ident),+})?),+ $(,)?) => {{
        // method calls, so a twin's `&&T` fields auto-deref; the caller
        // may have imported `Wire` already
        #[allow(unused_imports)]
        use $crate::Wire as _;
        match $s {
            $(Self::$var $(($($a),+))? $({$($f),+})? => {
                $out.push($tag);
                $($($a.encode($out);)+)?
                $($($f.encode($out);)+)?
            })+
        }
    }};
    (@decode $ty:ident $r:ident $($tag:literal => $var:ident
        $(($($a:ident),+))? $({$($f:ident),+})?),+ $(,)?) => {
        match <u8 as $crate::Wire>::decode($r)? {
            $($tag => Ok(Self::$var
                $(($($crate::wire!(@field $r $a)),+))?
                $({$($f: $crate::Wire::decode($r)?),+})?),)+
            tag => Err($crate::WireError::BadTag { ty: stringify!($ty), tag }),
        }
    };
    (@field $r:ident $a:ident) => { $crate::Wire::decode($r)? };
    ($(#[$m:meta])* $ty:ident $(<$($g:ident),+>)? { $($f:ident),+ $(,)? }) => {
        $(#[$m])*
        impl<$($($g: $crate::Wire),+)?> $crate::Wire for $ty<$($($g),+)?> {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::Wire::encode(&self.$f, out);)+
            }
            fn decode(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
                Ok(Self { $($f: $crate::Wire::decode(r)?),+ })
            }
        }
    };
    ($(#[$m:meta])* $ty:ident $(<$($g:ident),+>)? { $($body:tt)+ }) => {
        $(#[$m])*
        impl<$($($g: $crate::Wire),+)?> $crate::Wire for $ty<$($($g),+)?> {
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::wire!(@encode self out $($body)+)
            }
            fn decode(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
                $crate::wire!(@decode $ty r $($body)+)
            }
        }
    };
    ($(#[$m:meta])* $ty:ident $(<$($g:ident),+>)? & $twin:ident { $($body:tt)+ }) => {
        $crate::wire! { $(#[$m])* $ty $(<$($g),+>)? { $($body)+ } }
        impl<$($($g: $crate::Wire),+)?> $twin<'_, $($($g),+)?> {
            /// Appends the encoding, byte-identical to the owned form's,
            /// to `out`.
            pub fn encode(&self, out: &mut Vec<u8>) {
                $crate::wire!(@encode self out $($body)+)
            }
        }
    };
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64, i64);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { ty: "bool", tag }),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.take_len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.take_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag { ty: "Option", tag }),
        }
    }
}

impl<T: Wire> Wire for std::sync::Arc<T> {
    /// Encodes the pointee; decoding rebuilds a fresh (unshared) `Arc`.
    /// This is what lets shared request handles (`SharedReq`) appear
    /// inside larger wire enums without a copy at encode time.
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::decode(r)?))
    }
}

macro_rules! tuple_wire {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$n.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    )+};
}

tuple_wire!(
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 G)
);

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.take_len()?;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            m.insert(k, v);
        }
        Ok(m)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.take_len()?;
        let mut s = BTreeSet::new();
        for _ in 0..n {
            s.insert(T::decode(r)?);
        }
        Ok(s)
    }
}

impl Wire for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.value().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Timestamp::new(i64::decode(r)?))
    }
}

impl Wire for VirtualTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(VirtualTime::from_nanos(u64::decode(r)?))
    }
}

impl Wire for ReplicaId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_u32().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ReplicaId::new(u32::decode(r)?))
    }
}

impl Wire for GroupId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_u32().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(GroupId::new(u32::decode(r)?))
    }
}

impl Wire for Dot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.replica().encode(out);
        self.event_no().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let replica = ReplicaId::decode(r)?;
        let event_no = u64::decode(r)?;
        Ok(Dot::new(replica, event_no))
    }
}

wire! {
    Level {
        0 => Weak,
        1 => Strong,
    }
}

wire! {
    Value {
        0 => Unit,
        1 => Bool(b),
        2 => Int(i),
        3 => Str(s),
        4 => List(items),
        5 => Map(m),
        6 => None,
    }
}

wire! { ReqMeta { timestamp, dot, level } }

impl<Op: Wire> Wire for Req<Op> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.timestamp.encode(out);
        self.dot.encode(out);
        self.level.encode(out);
        self.op.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let timestamp = Timestamp::decode(r)?;
        let dot = Dot::decode(r)?;
        let level = Level::decode(r)?;
        let op = Op::decode(r)?;
        Ok(Req::new(timestamp, dot, level, op))
    }
}

/// A pool of reusable encode buffers with *grow-and-keep* semantics.
///
/// [`Wire::to_bytes`] allocates a fresh `Vec` per call — fine for
/// recovery and snapshots, but a steady hot-path cost when every WAL
/// record or wire frame pays it. A `BufPool` amortizes that: checked-in
/// buffers keep their capacity, so after warm-up every
/// [`BufPool::checkout`] returns an already-grown buffer and the encode
/// path performs zero heap allocations per frame (asserted by the
/// counting-allocator regression tests).
///
/// Owners hold one pool per independent encode site (per link, per peer,
/// per store) rather than sharing globally — checkout order then stays
/// deterministic and buffers stay sized to their site's frames.
///
/// A checked-out buffer is always *cleared*: pooling can never leak
/// stale bytes from a previous frame into the next (the proptests
/// include decode-from-dirty-reused-buffer cases).
///
/// # Examples
///
/// ```
/// use bayou_types::{BufPool, Wire};
/// let mut pool = BufPool::new();
/// let mut buf = pool.checkout();
/// 7u64.encode(&mut buf);
/// let bytes = buf.clone();
/// pool.checkin(buf);
/// // the next checkout reuses the capacity and starts empty
/// let again = pool.checkout();
/// assert!(again.is_empty() && again.capacity() >= bytes.len());
/// ```
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    checkouts: u64,
    misses: u64,
}

impl BufPool {
    /// Creates an empty pool.
    pub const fn new() -> Self {
        BufPool {
            free: Vec::new(),
            checkouts: 0,
            misses: 0,
        }
    }

    /// Takes a cleared buffer from the pool (allocating a fresh one only
    /// when the pool is empty — a *miss*, counted for diagnostics).
    pub fn checkout(&mut self) -> Vec<u8> {
        self.checkouts += 1;
        match self.free.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "checked-in buffers are cleared");
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool, clearing it but keeping its
    /// capacity for the next checkout.
    pub fn checkin(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Encodes `v` into a pooled buffer (checkout + encode in one step).
    pub fn encode<T: Wire>(&mut self, v: &T) -> Vec<u8> {
        let mut buf = self.checkout();
        v.encode(&mut buf);
        buf
    }

    /// Total checkouts served.
    pub fn checkouts(&self) -> u64 {
        self.checkouts
    }

    /// Checkouts that had to allocate a fresh buffer. In steady state
    /// this stops growing: every frame reuses pooled capacity.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Buffers currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

/// Borrow-decoding: the read-path companion of [`Wire`].
///
/// A *view* decodes from a received frame's bytes without materializing
/// owned `String`s — string fields come out as `&str` slices of the
/// input buffer. Conversion to the owned type ([`WireView::into_owned`])
/// happens only at the point a value is retained. Views serve the
/// server's client request frames (`RequestView` over `KvOpView`), so a
/// request is routed with no allocation; peer frames and WAL records
/// decode owned.
///
/// Every view decodes the **same byte layout** as its `Owned` type's
/// [`Wire`] impl — `decode_view` then `into_owned` must equal
/// `Owned::decode` on all inputs.
pub trait WireView<'a>: Sized {
    /// The owning type this view borrows from the input for.
    type Owned;

    /// Decodes one view from the reader, advancing it.
    fn decode_view(r: &mut WireReader<'a>) -> Result<Self, WireError>;

    /// Converts the view into its owned equivalent (the allocation the
    /// view deferred).
    fn into_owned(self) -> Self::Owned;

    /// Decodes a view that must span the entire input.
    fn view_from_bytes(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode_view(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

impl<'a> WireView<'a> for &'a str {
    type Owned = String;
    fn decode_view(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let n = r.take_len()?;
        let bytes = r.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }
    fn into_owned(self) -> String {
        self.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(true);
        round_trip(String::from("héllo"));
        round_trip(String::new());
    }

    #[test]
    fn collections_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7i64));
        round_trip(Option::<i64>::None);
        round_trip((1u32, String::from("x")));
        round_trip(
            [("a".to_string(), 1i64), ("b".to_string(), 2)]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
        );
        round_trip(
            ["x".to_string(), "y".to_string()]
                .into_iter()
                .collect::<BTreeSet<_>>(),
        );
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(Timestamp::new(-5));
        round_trip(VirtualTime::from_millis(17));
        round_trip(ReplicaId::new(3));
        round_trip(Dot::new(ReplicaId::new(2), 99));
        round_trip(Level::Weak);
        round_trip(Level::Strong);
        round_trip(ReqMeta {
            timestamp: Timestamp::new(4),
            dot: Dot::new(ReplicaId::new(0), 1),
            level: Level::Strong,
        });
        round_trip(Req::new(
            Timestamp::new(9),
            Dot::new(ReplicaId::new(1), 2),
            Level::Weak,
            String::from("op"),
        ));
    }

    #[test]
    fn values_round_trip() {
        round_trip(Value::Unit);
        round_trip(Value::None);
        round_trip(Value::Bool(false));
        round_trip(Value::Int(i64::MIN));
        round_trip(Value::Str("s".into()));
        round_trip(Value::ints([1, 2, 3]));
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::List(vec![Value::Unit]));
        round_trip(Value::Map(m));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let full = Req::new(
            Timestamp::new(1),
            Dot::new(ReplicaId::new(0), 1),
            Level::Weak,
            String::from("payload"),
        )
        .to_bytes();
        for cut in 0..full.len() {
            let err = Req::<String>::from_bytes(&full[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(
            Level::from_bytes(&[9]),
            Err(WireError::BadTag {
                ty: "Level",
                tag: 9
            })
        );
        assert!(matches!(
            Value::from_bytes(&[200]),
            Err(WireError::BadTag { ty: "Value", .. })
        ));
        assert_eq!(
            bool::from_bytes(&[2]),
            Err(WireError::BadTag { ty: "bool", tag: 2 })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0);
        assert_eq!(u64::from_bytes(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocation() {
        // a 4 GiB element count with 4 bytes of payload must fail fast
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn encoding_is_byte_stable() {
        // the on-disk format contract: these exact bytes must never change
        let req = Req::new(
            Timestamp::new(0x0102),
            Dot::new(ReplicaId::new(3), 4),
            Level::Strong,
            String::from("ab"),
        );
        assert_eq!(
            req.to_bytes(),
            vec![
                0x02, 0x01, 0, 0, 0, 0, 0, 0, // timestamp i64 LE
                3, 0, 0, 0, // replica u32 LE
                4, 0, 0, 0, 0, 0, 0, 0, // event_no u64 LE
                1, // Level::Strong
                2, 0, 0, 0, // string length u32 LE
                b'a', b'b',
            ]
        );
    }

    #[test]
    fn buf_pool_reuses_capacity_and_clears() {
        let mut pool = BufPool::new();
        let mut a = pool.checkout();
        assert_eq!(pool.misses(), 1, "first checkout allocates");
        Value::Str("a long enough string to force growth".into()).encode(&mut a);
        let cap = a.capacity();
        pool.checkin(a);
        let b = pool.checkout();
        assert!(b.is_empty(), "checked-out buffers are cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.misses(), 1, "second checkout reuses");
        assert_eq!(pool.checkouts(), 2);
        pool.checkin(b);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn pooled_encode_matches_to_bytes() {
        let mut pool = BufPool::new();
        let req = Req::new(
            Timestamp::new(7),
            Dot::new(ReplicaId::new(1), 3),
            Level::Weak,
            String::from("payload"),
        );
        let pooled = pool.encode(&req);
        assert_eq!(pooled, req.to_bytes());
        pool.checkin(pooled);
        // a dirty-reuse round: a longer value first, a shorter one after
        let long = pool.encode(&String::from("a much longer previous frame body"));
        pool.checkin(long);
        let short = pool.encode(&String::from("x"));
        assert_eq!(short, String::from("x").to_bytes(), "no stale bytes leak");
    }

    fn view_round_trip<'a, V>(bytes: &'a [u8], expect: &V::Owned)
    where
        V: WireView<'a>,
        V::Owned: PartialEq + fmt::Debug,
    {
        let view = V::view_from_bytes(bytes).unwrap();
        assert_eq!(&view.into_owned(), expect);
    }

    #[test]
    fn views_decode_the_owned_layout() {
        let s = String::from("héllo");
        view_round_trip::<&str>(&s.to_bytes(), &s);
    }

    #[test]
    fn string_view_borrows_from_the_input() {
        let bytes = String::from("borrowed").to_bytes();
        let view = <&str>::view_from_bytes(&bytes).unwrap();
        let input_range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(
            input_range.contains(&(view.as_ptr() as usize)),
            "the view must point into the input buffer"
        );
    }

    #[test]
    fn views_reject_bad_input_like_owned_decode() {
        let full = String::from("payload").to_bytes();
        for cut in 0..full.len() {
            assert!(
                <&str>::view_from_bytes(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not decode as a view"
            );
        }
        // invalid UTF-8 in a string field
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(<&str>::view_from_bytes(&bytes), Err(WireError::BadUtf8));
        // trailing bytes are rejected
        let mut ok = String::from("x").to_bytes();
        ok.push(0);
        assert!(matches!(
            <&str>::view_from_bytes(&ok),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            WireError::UnexpectedEof {
                needed: 4,
                remaining: 1,
            },
            WireError::BadTag {
                ty: "Level",
                tag: 7,
            },
            WireError::BadLength {
                declared: 10,
                remaining: 2,
            },
            WireError::BadUtf8,
            WireError::TrailingBytes(3),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
