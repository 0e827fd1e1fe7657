//! Minimal little-endian binary codec helpers: the one byte codec for
//! journal records, cache entries and the front-end's wire bodies.
//!
//! Journal payloads must round-trip *byte-exactly*: a record decoded from
//! the journal stands in for the record a resumed run would otherwise
//! recompute, so any lossy step (notably float formatting) would break the
//! byte-identity guarantee of resumable runs. Floats therefore travel as
//! their IEEE-754 bit patterns via `to_bits`/`from_bits` — NaN payloads and
//! signed zeros included.
//!
//! Writers push through the `put_*` functions; readers pull through a
//! bounds-checked [`Reader`] that returns `None` instead of panicking on a
//! short or malformed buffer, which is exactly what the journal's salvage
//! pass needs to classify a torn tail.
//!
//! Conventions: counts and lengths are `u64`, optional values carry a
//! 0/1 tag byte, and bools are strict 0/1 bytes. Every decoder built from
//! these helpers is therefore canonical — `encode(decode(b)) == b`
//! whenever `decode` succeeds — as long as it ends with
//! [`Reader::is_done`].

/// Append one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `usize` as a `u64`.
pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Append an `f32` as its exact bit pattern.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    put_u32(buf, v.to_bits());
}

/// Append an `f64` as its exact bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a strict bool: one byte, 0 or 1.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

/// Append a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_usize(buf, bytes.len());
    buf.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Append an optional value: tag byte 0 for `None`, or 1 followed by the
/// value as `put` writes it.
pub fn put_opt<T>(buf: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    put_bool(buf, v.is_some());
    if let Some(v) = v {
        put(buf, v);
    }
}

/// Append a count-prefixed sequence: the item count, then each item as
/// `put` writes it.
pub fn put_seq<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_usize(buf, items.len());
    for item in items {
        put(buf, item);
    }
}

/// Bounds-checked cursor over an encoded payload. Every accessor returns
/// `None` once the buffer runs short, so decoders degrade to "record
/// malformed" instead of panicking mid-salvage.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a `u64` that must fit a `usize`.
    pub fn usize(&mut self) -> Option<usize> {
        self.u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Read an `f32` from its bit pattern.
    pub fn f32(&mut self) -> Option<f32> {
        self.u32().map(f32::from_bits)
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Read a strict bool: only 0 and 1 are valid, anything else is
    /// corruption.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }

    /// Read an optional value written by [`put_opt`]; a tag other than
    /// 0 or 1 is a malformation.
    pub fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.bool()? {
            get(self).map(Some)
        } else {
            Some(None)
        }
    }

    /// Read a sequence written by [`put_seq`]. Every item must take at
    /// least one byte, so a count above [`Reader::remaining`] is rejected
    /// before any item is read, and preallocation is capped besides: a
    /// corrupt count can neither spin nor balloon memory.
    pub fn seq<T>(&mut self, mut get: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.usize()?;
        if n > self.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(get(self)?);
        }
        Some(out)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True once every byte has been consumed. Decoders should check this
    /// last: trailing garbage means the payload is not the record it
    /// claims to be.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_exactly() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 3);
        put_f32(&mut buf, f32::NAN);
        put_f64(&mut buf, -0.0);
        put_str(&mut buf, "Performance: 0.0021");
        put_bool(&mut buf, true);
        put_opt(&mut buf, None::<u64>, put_u64);
        put_opt(&mut buf, Some(9u64), put_u64);
        put_seq(&mut buf, &[3u32, 4], |b, &v| put_u32(b, v));
        put_bytes(&mut buf, &[0xff, 0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.f32().map(f32::to_bits), Some(f32::NAN.to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.str().as_deref(), Some("Performance: 0.0021"));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.opt(Reader::u64), Some(None));
        assert_eq!(r.opt(Reader::u64), Some(Some(9)));
        assert_eq!(r.seq(Reader::u32), Some(vec![3, 4]));
        assert_eq!(r.remaining(), 8 + 2);
        assert_eq!(r.bytes(), Some(&[0xff, 0][..]));
        assert!(r.is_done());
    }

    #[test]
    fn short_buffers_yield_none_not_panics() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abc");
        // Truncate inside the string body.
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert_eq!(r.str(), None);
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u64(), None);
        // Bools and optional tags are strict 0/1.
        assert_eq!(Reader::new(&[2]).bool(), None);
        assert_eq!(Reader::new(&[2, 0]).opt(Reader::u8), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert_eq!(Reader::new(&buf).str(), None);
        // A count no remaining bytes could back fails before any item read.
        assert_eq!(Reader::new(&buf).seq(|_| Some(())), None);
    }
}
