#![warn(missing_docs)]

//! Deterministic binary state codec for machine snapshots.
//!
//! Every piece of simulation state that participates in a checkpoint or a
//! state commitment is funnelled through this crate: a [`SnapWriter`]
//! produces one flat, fully deterministic byte stream (fixed-width
//! little-endian integers, length-prefixed containers, maps spilled in
//! sorted-key order), and a [`SnapReader`] decodes the same stream back.
//! The byte stream serves double duty:
//!
//! * hashed, it is the **state commitment** recorded at epoch boundaries
//!   (`chats_machine::commit`);
//! * stored, it is the body of a **checkpoint** that
//!   `Machine::restore` resumes from.
//!
//! Determinism rules (see DESIGN §16):
//!
//! * integers are fixed-width little-endian; `usize` travels as `u64`;
//! * dense structures are written in index order;
//! * hash maps and sets are written in **sorted key order** — iteration
//!   order of the underlying table must never leak into the stream;
//! * every container is length-prefixed, so streams are self-delimiting
//!   and a reader can't silently misalign.
//!
//! # Example
//!
//! ```
//! use chats_snap::{Snap, SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! (42u64, vec![1u32, 2, 3]).save(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut r = SnapReader::new(&bytes);
//! let back: (u64, Vec<u32>) = Snap::load(&mut r).unwrap();
//! assert_eq!(back, (42, vec![1, 2, 3]));
//! assert!(r.is_empty());
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::ops::Range;

/// A decode failure: where in the stream it happened and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Byte offset the reader was at when the failure was detected.
    pub at: usize,
    /// Human-readable description of the mismatch.
    pub what: String,
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot decode error at byte {}: {}",
            self.at, self.what
        )
    }
}

impl std::error::Error for SnapError {}

/// Deterministic byte-stream encoder with named section marks.
///
/// Sections exist so a machine-state stream can be sub-hashed per
/// subsystem: `mark("cores")` records the current offset under that name,
/// and [`SnapWriter::sections`] later yields each named byte range. The
/// marks are bookkeeping on the side — they do not appear in the byte
/// stream itself, so marked and unmarked writers produce identical bytes.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    marks: Vec<(&'static str, usize)>,
}

impl SnapWriter {
    /// Fresh empty writer.
    #[must_use]
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Opens a named section at the current offset. The previous section
    /// (if any) ends here.
    pub fn mark(&mut self, name: &'static str) {
        self.marks.push((name, self.buf.len()));
    }

    /// Named byte ranges, in mark order. Each section runs from its mark
    /// to the next mark (or the end of the stream for the last one).
    #[must_use]
    pub fn sections(&self) -> Vec<(&'static str, Range<usize>)> {
        let mut out = Vec::with_capacity(self.marks.len());
        for (i, &(name, start)) in self.marks.iter().enumerate() {
            let end = self
                .marks
                .get(i + 1)
                .map_or(self.buf.len(), |&(_, next)| next);
            out.push((name, start..end));
        }
        out
    }

    /// The bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the byte stream.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current stream length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Empties the writer (bytes and section marks), keeping its buffer's
    /// capacity for reuse as scratch space.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.marks.clear();
    }

    /// Appends one raw byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn bytes_prefixed(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Deterministic byte-stream decoder, the mirror of [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps a byte stream for decoding from its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Current read offset.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left in the stream.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once the whole stream has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Builds a [`SnapError`] at the current offset.
    #[must_use]
    pub fn err(&self, what: impl Into<String>) -> SnapError {
        SnapError {
            at: self.pos,
            what: what.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "need {n} bytes, only {} remain (truncated snapshot?)",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Fails if the stream is exhausted.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails if the stream is exhausted.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails if the stream is exhausted.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` length prefix, sanity-checked so a corrupt stream
    /// can't provoke a huge allocation: each element of the upcoming
    /// container needs at least `min_elem_bytes` bytes of stream.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an implausible length.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| self.err(format!("length {n} overflows usize")))?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(self.err(format!(
                "length {n} larger than the remaining {} bytes allow",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a `u64`-length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an implausible length.
    pub fn bytes_prefixed(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len_prefix(1)?;
        self.take(n)
    }
}

/// State that can round-trip through the deterministic byte codec.
///
/// `save` followed by `load` must reproduce an equivalent value, and two
/// equal values must always produce identical bytes (no iteration-order
/// or capacity leakage) — the stream is hashed for state commitments.
pub trait Snap: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes a value from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncated or malformed input.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.u64(*self as u64);
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let v = r.u64()?;
                <$t>::try_from(v).map_err(|_| r.err(format!(
                    "value {v} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

snap_int!(u16, u32, u64, usize);

impl Snap for u8 {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for i64 {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u64()? as i64)
    }
}

impl Snap for bool {
    #[inline]
    fn save(&self, w: &mut SnapWriter) {
        w.u8(u8::from(*self));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(r.err(format!("bool byte must be 0 or 1, got {b}"))),
        }
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.bytes_prefixed(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let b = r.bytes_prefixed()?;
        String::from_utf8(b.to_vec()).map_err(|e| r.err(format!("invalid utf-8 string: {e}")))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(r.err(format!("Option tag must be 0 or 1, got {b}"))),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix(1)?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix(2)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord> Snap for BTreeSet<K> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.len() as u64);
        for k in self {
            k.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix(1)?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(K::load(r)?);
        }
        Ok(out)
    }
}

// Hash maps and sets are spilled in sorted-key order so that the byte
// stream never depends on table iteration order (commitment rule).
impl<K, V, S> Snap for HashMap<K, V, S>
where
    K: Snap + Ord + Hash + Eq,
    V: Snap,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort_unstable();
        w.u64(keys.len() as u64);
        for k in keys {
            k.save(w);
            self[k].save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix(2)?;
        let mut out = HashMap::with_capacity_and_hasher(n, S::default());
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K, S> Snap for HashSet<K, S>
where
    K: Snap + Ord + Hash + Eq,
    S: BuildHasher + Default,
{
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.iter().collect();
        keys.sort_unstable();
        w.u64(keys.len() as u64);
        for k in keys {
            k.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix(1)?;
        let mut out = HashSet::with_capacity_and_hasher(n, S::default());
        for _ in 0..n {
            out.insert(K::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap + Copy + Default, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::load(r)?;
        }
        Ok(out)
    }
}

macro_rules! snap_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$idx.save(w);)+
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($name::load(r)?,)+))
            }
        }
    };
}

snap_tuple!(A: 0, B: 1);
snap_tuple!(A: 0, B: 1, C: 2);
snap_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::load(&mut r).expect("decode");
        assert_eq!(&back, v);
        assert!(r.is_empty(), "trailing bytes after {v:?}");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&u16::MAX);
        roundtrip(&u32::MAX);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&-1i64);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&String::from("héllo"));
        roundtrip(&Some(7u64));
        roundtrip(&Option::<u64>::None);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&VecDeque::from([1u32, 2, 3]));
        roundtrip(&BTreeMap::from([(1u64, 2u64), (3, 4)]));
        roundtrip(&BTreeSet::from([9u64, 1, 5]));
        roundtrip(&[1u64, 2, 3, 4]);
        roundtrip(&(1u64, true, String::from("x")));
        let mut hm: HashMap<u64, u64> = HashMap::new();
        for i in 0..100 {
            hm.insert(i * 7919 % 101, i);
        }
        roundtrip(&hm);
        let hs: HashSet<u64> = (0..50).map(|i| i * 31 % 97).collect();
        roundtrip(&hs);
    }

    #[test]
    fn hashmap_bytes_are_order_independent() {
        let mut a: HashMap<u64, u64> = HashMap::new();
        let mut b: HashMap<u64, u64> = HashMap::new();
        for i in 0..64u64 {
            a.insert(i, i * 2);
        }
        for i in (0..64u64).rev() {
            b.insert(i, i * 2);
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        a.save(&mut wa);
        b.save(&mut wb);
        assert_eq!(wa.bytes(), wb.bytes());
    }

    #[test]
    fn sections_cover_stream() {
        let mut w = SnapWriter::new();
        w.mark("a");
        1u64.save(&mut w);
        w.mark("b");
        2u64.save(&mut w);
        3u64.save(&mut w);
        let sections = w.sections();
        assert_eq!(
            sections,
            vec![("a", 0..8), ("b", 8..24)],
            "sections must tile the stream"
        );
    }

    #[test]
    fn corrupt_length_is_rejected_without_allocation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(Vec::<u64>::load(&mut r).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert!(Vec::<u64>::load(&mut r).is_err());
    }
}
