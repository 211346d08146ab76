//! Offline stand-in for the parts of `bytes` 1.x this workspace uses:
//! [`Bytes`], [`BytesMut`], and the [`Buf`]/[`BufMut`] cursor traits with
//! the little-endian accessors the GTV wire format reads and writes.

use std::sync::Arc;

/// Read cursor over a contiguous byte buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Consumes `n` bytes.
    fn advance(&mut self, n: usize);

    /// `remaining() > 0`.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

/// Write cursor appending to a byte buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

/// Cheaply cloneable immutable byte buffer with a read cursor.
///
/// Like the real crate's, it takes over the allocation of the `Vec<u8>` or
/// [`BytesMut`] it is made from: `Bytes::from(vec)` and [`BytesMut::freeze`]
/// are O(1) and leave the bytes where they were written.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::from(Vec::new())
    }

    /// Wraps a static slice.
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::from(s.to_vec())
    }

    /// Length of the unread view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of the unread bytes (clone-free).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && self.start + range.end <= self.end,
            "slice out of bounds"
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Copies the unread view into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Converts into a [`BytesMut`] holding the view, without copying, if
    /// this is the only handle to the allocation; otherwise returns `self`.
    /// How a finished buffer is reclaimed for reuse.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Self { data, start, end } = self;
        match Arc::try_unwrap(data) {
            Ok(mut buf) => {
                buf.truncate(end);
                buf.drain(..start);
                Ok(BytesMut { buf })
            }
            Err(data) => Err(Self { data, start, end }),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self { data: Arc::new(v), start: 0, end }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_ref()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.start += n;
    }
}

/// Growable byte buffer; freeze into [`Bytes`] when done writing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Makes room for at least `additional` more bytes, so that writing
    /// them does not reallocate.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Converts into an immutable [`Bytes`] without copying: the result
    /// views the buffer that was written.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Takes the vector over: its bytes are the buffer's contents and its
/// capacity is the buffer's.
impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        Self { buf }
    }
}

/// Hands the buffer's allocation back as a vector, without copying.
impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Self {
        b.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsMut<[u8]> for BytesMut {
    #[inline]
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_scalars() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(7);
        b.put_u32_le(0xdead_beef);
        b.put_u64_le(0x0123_4567_89ab_cdef);
        b.put_f32_le(-1.5);
        let mut bytes = b.freeze();
        assert_eq!(bytes.len(), 1 + 4 + 8 + 4);
        assert_eq!(bytes.get_u8(), 7);
        assert_eq!(bytes.get_u32_le(), 0xdead_beef);
        assert_eq!(bytes.get_u64_le(), 0x0123_4567_89ab_cdef);
        assert_eq!(bytes.get_f32_le(), -1.5);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn slice_views_subrange() {
        let bytes = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = bytes.slice(1..4);
        assert_eq!(s.as_ref(), &[1, 2, 3]);
        assert_eq!(s.slice(1..2).as_ref(), &[2]);
        assert_eq!(bytes.len(), 6, "slicing must not consume the parent");
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_rejects_overrun() {
        let _ = Bytes::from(vec![1, 2]).slice(0..3);
    }

    #[test]
    fn freeze_keeps_the_buffer_where_it_was_written() {
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(&[1, 2, 3, 4]);
        let written = b.as_ref().as_ptr();
        let frozen = b.freeze();
        assert_eq!(frozen.as_ref().as_ptr(), written, "freeze must not copy");
        assert_eq!(frozen.as_ref(), &[1, 2, 3, 4]);
        // So does taking over a `Vec`, and clones and slices share it.
        let v = vec![9u8; 32];
        let at = v.as_ptr();
        let bytes = Bytes::from(v);
        assert_eq!(bytes.as_ref().as_ptr(), at, "From<Vec<u8>> must not copy");
        assert_eq!(bytes.clone().as_ref().as_ptr(), at);
        assert_eq!(bytes.slice(4..8).as_ref().as_ptr(), at.wrapping_add(4));
    }

    #[test]
    fn writes_within_reserved_capacity_do_not_move_the_buffer() {
        let mut b = BytesMut::with_capacity(1);
        b.put_u8(7);
        b.reserve(4096);
        let at = b.as_ref().as_ptr();
        for chunk in [[1u8; 1024], [2; 1024], [3; 1024], [4; 1024]] {
            b.put_slice(&chunk);
            assert_eq!(b.as_ref().as_ptr(), at, "put_slice within capacity reallocated");
        }
        assert_eq!(b.len(), 4097);
        assert_eq!(b.freeze().as_ref().as_ptr(), at);
    }

    #[test]
    fn a_unique_handle_gives_its_allocation_back() {
        let mut b = BytesMut::from(Vec::with_capacity(64));
        b.put_slice(&[1, 2, 3, 4]);
        let at = b.as_ref().as_ptr();
        let frozen = b.freeze();
        let shared = frozen.clone();
        let frozen = frozen.try_into_mut().expect_err("a second handle keeps it shared");
        drop(shared);
        let back = Vec::from(frozen.try_into_mut().expect("the last handle owns it"));
        assert_eq!((back.as_ptr(), back.capacity(), back.as_slice()), (at, 64, &[1, 2, 3, 4][..]));
        // A view keeps only its own bytes.
        let view = {
            let mut whole = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
            whole.advance(2);
            whole.slice(0..3)
        };
        assert_eq!(Vec::from(view.try_into_mut().expect("unique")), vec![2, 3, 4]);
    }

    #[test]
    fn equality_ignores_cursor_origin() {
        let a = Bytes::from(vec![9, 8, 7]).slice(1..3);
        let b = Bytes::from(vec![8, 7]);
        assert_eq!(a, b);
    }
}
