//! Zero-copy wire buffers: the hot-path currency of the whole stack.
//!
//! Every layer used to hand packets around as `Vec<u8>`, so forwarding a
//! packet through N path elements, recording it at a capture tap, and
//! feeding its payload into stream reassembly each deep-copied the bytes.
//! [`PacketBuf`] replaces that with a ref-counted fixed-length buffer
//! (`Arc<[u8]>`) plus a cheap `(start, end)` range view: cloning or
//! slicing is a refcount bump, and equality/hashing/deref all act on the
//! viewed bytes, so the rest of the code reads exactly as it did over
//! `Vec<u8>`. [`PacketBuf::build`] fills a new buffer in place, so a
//! packet built for the wire costs one allocation.
//!
//! Mutation goes through one explicit copy-on-write escape hatch,
//! [`PacketBuf::make_mut`], which overwrites bytes and never resizes (a
//! resized packet is a new `build`): unique full-range buffers are
//! patched in place (free); shared or sliced ones are first materialized
//! into a fresh buffer, and that copy is tallied — into the caller's
//! [`CopyTally`] (routed to the `payload-copies` / `payload-bytes-copied`
//! journal counters by journal-holding callers) and into a process-wide
//! census the `exp-hotpath` bench reads.
//!
//! The type lives here at the bottom of the stack so the tolerant parsers
//! can hand out payload *views* of the wire buffer instead of copies (see
//! [`WireBytes`]); `liberate_substrate::buf` re-exports everything for
//! the layers above.

use std::fmt;
use std::iter;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide deep-copy census (copies, bytes). Fed by every
/// materializing operation — CoW faults, payload views minted from raw
/// slices ([`WireBytes::tail_view`]), sanctioned egress copies — and
/// read by `tests/payload_copy_census.rs` to gate copies per replay.
/// Monotonic relaxed counters; never consulted by simulation logic, so
/// determinism holds.
static COPIES: AtomicU64 = AtomicU64::new(0);
static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);

fn census(bytes: usize) {
    COPIES.fetch_add(1, Ordering::Relaxed);
    BYTES_COPIED.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Snapshot of the process-wide deep-copy census: `(copies, bytes)`.
pub fn copy_census() -> (u64, u64) {
    (
        COPIES.load(Ordering::Relaxed),
        BYTES_COPIED.load(Ordering::Relaxed),
    )
}

/// Per-call-site copy tally, flushed into journal counters by callers
/// that hold one (the DPI device, router hops). Separate from the global
/// census so copies land in the right session's journal.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CopyTally {
    pub copies: u64,
    pub bytes: u64,
}

impl CopyTally {
    pub fn is_empty(&self) -> bool {
        self.copies == 0
    }
}

/// A ref-counted, immutable-by-default wire buffer with cheap range
/// views. See the module docs for the ownership rules.
pub struct PacketBuf {
    data: Arc<[u8]>,
    /// The view, `start <= end <= data.len()`. `u32` offsets keep a view
    /// at 24 bytes next to the buffer's fat pointer, which caps a buffer
    /// at 4 GiB.
    start: u32,
    end: u32,
}

impl PacketBuf {
    /// The empty buffer.
    pub fn empty() -> PacketBuf {
        PacketBuf::build(0, |_| {})
    }

    /// A new `len`-byte buffer, zero-filled and then written in place by
    /// `fill`: one allocation, no intermediate `Vec`.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> PacketBuf {
        let mut data: Arc<[u8]> = iter::repeat_n(0, len).collect();
        match Arc::get_mut(&mut data) {
            Some(bytes) => fill(bytes),
            // Unreachable: the buffer was allocated on the line above.
            // lint: allow(no-panic) documented invariant, not a runtime condition
            None => unreachable!("PacketBuf::build: fresh buffer not unique"),
        }
        PacketBuf::whole(data)
    }

    /// A view of all of `data`.
    fn whole(data: Arc<[u8]>) -> PacketBuf {
        let end = match u32::try_from(data.len()) {
            Ok(end) => end,
            // lint: allow(no-panic) documented limit: wire buffers are far below 4 GiB
            Err(_) => panic!("PacketBuf: {} bytes is over the 4 GiB cap", data.len()),
        };
        PacketBuf {
            data,
            start: 0,
            end,
        }
    }

    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }

    /// A cheap sub-view of this buffer (shares the backing allocation).
    /// Out-of-range bounds are clamped to the view.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> PacketBuf {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        }
        .min(len);
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        }
        .clamp(lo, len);
        PacketBuf {
            data: Arc::clone(&self.data),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }

    /// The copy-on-write escape hatch: the viewed bytes, writable. A
    /// uniquely-owned full-range buffer mutates in place; a shared or
    /// sliced one is first copied into a fresh buffer, and the copy is
    /// tallied (caller tally + global census). The length is fixed: a
    /// resized packet is a new [`PacketBuf::build`].
    pub fn make_mut(&mut self, tally: &mut CopyTally) -> &mut [u8] {
        self.make_unique(tally);
        match Arc::get_mut(&mut self.data) {
            Some(v) => v,
            // Unreachable: `make_unique` left this handle the sole owner,
            // and &mut self pins the refcount meanwhile.
            // lint: allow(no-panic) documented invariant, not a runtime condition
            None => unreachable!("PacketBuf::make_mut: buffer not unique after CoW"),
        }
    }

    /// The copy-on-write decision of [`PacketBuf::make_mut`] without the
    /// write access: a shared or sliced buffer is copied into a fresh one
    /// (tallied), a uniquely-owned full-range one is left alone. Plain
    /// loads decide, so a buffer that is already unique costs no atomic
    /// read-modify-write. A handle nobody can clone meanwhile stays
    /// unique, so a later `make_mut` on it never copies.
    pub fn make_unique(&mut self, tally: &mut CopyTally) {
        let full = self.start == 0 && self.end as usize == self.data.len();
        // With `&mut self` pinning this handle, no other can appear
        // between these loads and the copy.
        let unique = Arc::strong_count(&self.data) == 1 && Arc::weak_count(&self.data) == 0;
        if !full || !unique {
            let len = self.len();
            tally.copies += 1;
            tally.bytes += len as u64;
            census(len);
            *self = PacketBuf::from(self.as_slice());
        }
    }

    /// Sanctioned explicit deep copy (pcap export, golden captures).
    /// Counted in the global census but not in any journal tally — it is
    /// an intentional egress copy, not hot-path traffic.
    pub fn copy_to_vec(&self) -> Vec<u8> {
        let v = self.as_slice().to_vec();
        census(v.len());
        v
    }
}

/// Wire-byte input to the tolerant parsers: anything that exposes the
/// raw bytes and can mint a tail view for the payload. [`PacketBuf`]
/// inputs produce shared (zero-copy) payload views; raw slices and
/// `Vec<u8>` inputs materialize a fresh buffer (counted in the census),
/// so test code and legacy callers keep working unchanged.
pub trait WireBytes {
    /// The full wire bytes.
    fn wire(&self) -> &[u8];

    /// A view of the bytes from `start` (clamped) to the end.
    fn tail_view(&self, start: usize) -> PacketBuf;
}

impl WireBytes for PacketBuf {
    fn wire(&self) -> &[u8] {
        self.as_slice()
    }

    fn tail_view(&self, start: usize) -> PacketBuf {
        self.slice(start..)
    }
}

impl WireBytes for [u8] {
    fn wire(&self) -> &[u8] {
        self
    }

    /// Materializes the tail into a fresh buffer — a deep copy, counted
    /// in the census like every other one.
    fn tail_view(&self, start: usize) -> PacketBuf {
        let copied = self[start.min(self.len())..].to_vec();
        census(copied.len());
        PacketBuf::from(copied)
    }
}

impl WireBytes for Vec<u8> {
    fn wire(&self) -> &[u8] {
        self.as_slice()
    }

    fn tail_view(&self, start: usize) -> PacketBuf {
        self.as_slice().tail_view(start)
    }
}

impl<const N: usize> WireBytes for [u8; N] {
    fn wire(&self) -> &[u8] {
        self.as_slice()
    }

    fn tail_view(&self, start: usize) -> PacketBuf {
        self.as_slice().tail_view(start)
    }
}

impl<W: WireBytes + ?Sized> WireBytes for &W {
    fn wire(&self) -> &[u8] {
        (**self).wire()
    }

    fn tail_view(&self, start: usize) -> PacketBuf {
        (**self).tail_view(start)
    }
}

impl Clone for PacketBuf {
    fn clone(&self) -> PacketBuf {
        PacketBuf {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.end,
        }
    }
}

impl Deref for PacketBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PacketBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PacketBuf({} bytes)", self.len())
    }
}

/// Takes one copy of the bytes into the shared buffer; hot paths build
/// their buffers in place with [`PacketBuf::build`] instead.
impl From<Vec<u8>> for PacketBuf {
    fn from(v: Vec<u8>) -> PacketBuf {
        PacketBuf::from(v.as_slice())
    }
}

impl From<&[u8]> for PacketBuf {
    fn from(v: &[u8]) -> PacketBuf {
        PacketBuf::whole(Arc::from(v))
    }
}

impl From<&Vec<u8>> for PacketBuf {
    fn from(v: &Vec<u8>) -> PacketBuf {
        PacketBuf::from(v.as_slice())
    }
}

impl<const N: usize> From<&[u8; N]> for PacketBuf {
    fn from(v: &[u8; N]) -> PacketBuf {
        PacketBuf::from(v.as_slice())
    }
}

impl From<&PacketBuf> for PacketBuf {
    fn from(v: &PacketBuf) -> PacketBuf {
        v.clone()
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PacketBuf {}

impl PartialEq<[u8]> for PacketBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for PacketBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PacketBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PacketBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<PacketBuf> for [u8] {
    fn eq(&self, other: &PacketBuf) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for PacketBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<PacketBuf> for Vec<u8> {
    fn eq(&self, other: &PacketBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for PacketBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_the_backing_buffer() {
        let buf = PacketBuf::from(vec![1u8, 2, 3, 4, 5]);
        let view = buf.slice(1..4);
        assert_eq!(&*view, &[2, 3, 4]);
        assert_eq!(view.len(), 3);
        assert!(Arc::ptr_eq(&buf.data, &view.data));
        let sub = view.slice(1..);
        assert_eq!(&*sub, &[3, 4]);
        assert!(Arc::ptr_eq(&buf.data, &sub.data));
    }

    #[test]
    fn clone_is_a_refcount_bump() {
        let buf = PacketBuf::from(vec![9u8; 64]);
        let twin = buf.clone();
        assert!(Arc::ptr_eq(&buf.data, &twin.data));
        assert_eq!(buf, twin);
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        let mut buf = PacketBuf::from(vec![0u8; 8]);
        let mut tally = CopyTally::default();
        buf.make_mut(&mut tally)[0] = 7;
        assert!(tally.is_empty(), "unique full-range buffers mutate free");
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn make_mut_copies_when_shared_and_siblings_are_untouched() {
        let mut a = PacketBuf::from(vec![1u8, 2, 3]);
        let b = a.clone();
        let mut tally = CopyTally::default();
        a.make_mut(&mut tally)[1] = 99;
        assert_eq!(tally.copies, 1);
        assert_eq!(tally.bytes, 3);
        assert_eq!(&*a, &[1, 99, 3], "the writer sees its mutation");
        assert_eq!(&*b, &[1, 2, 3], "the sibling is untouched");
    }

    #[test]
    fn make_mut_materializes_slices() {
        let base = PacketBuf::from(vec![1u8, 2, 3, 4]);
        let mut view = base.slice(1..3);
        let mut tally = CopyTally::default();
        view.make_mut(&mut tally)[0] = 42;
        assert_eq!(tally.copies, 1);
        assert_eq!(&*view, &[42, 3]);
        assert_eq!(&*base, &[1, 2, 3, 4], "the source survives view mutation");
    }

    #[test]
    fn views_survive_source_mutation() {
        let mut src = PacketBuf::from(vec![5u8, 6, 7, 8]);
        let view = src.slice(2..);
        let mut tally = CopyTally::default();
        src.make_mut(&mut tally).fill(0);
        assert_eq!(&*view, &[7, 8], "views keep the pre-mutation bytes");
    }

    #[test]
    fn a_resize_is_a_new_build_and_old_views_survive() {
        let buf = PacketBuf::from(vec![1u8, 2]);
        let view = buf.slice(1..);
        let grown = PacketBuf::build(buf.len() + 2, |b| {
            b[..2].copy_from_slice(&buf);
            b[2..].copy_from_slice(&[3, 4]);
        });
        assert_eq!(&*grown, &[1, 2, 3, 4]);
        let shrunk = grown.slice(..1);
        assert_eq!(&*shrunk, &[1]);
        assert!(!Arc::ptr_eq(&buf.data, &grown.data));
        assert_eq!(&*buf, &[1, 2], "the old buffer is untouched");
        assert_eq!(&*view, &[2], "and so are its views");
    }

    #[test]
    fn build_fills_one_fresh_buffer_in_place() {
        let buf = PacketBuf::build(4, |b| {
            assert_eq!(b, &[0u8; 4], "the buffer starts zeroed");
            b[1] = 9;
        });
        assert_eq!(&*buf, &[0, 9, 0, 0]);
        assert_eq!(Arc::strong_count(&buf.data), 1);
        assert!(PacketBuf::empty().is_empty());
        assert_eq!(std::mem::size_of::<PacketBuf>(), 24, "as small as a Vec");
    }

    #[test]
    fn equality_is_by_bytes_not_identity() {
        let a = PacketBuf::from(vec![1u8, 2, 3]);
        let b = PacketBuf::from(vec![0u8, 1, 2, 3]).slice(1..);
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2, 3]);
        assert_eq!(vec![1u8, 2, 3], a);
    }

    #[test]
    fn slice_bounds_are_clamped() {
        let buf = PacketBuf::from(vec![1u8, 2]);
        assert_eq!(buf.slice(5..).len(), 0);
        assert_eq!(buf.slice(..10).len(), 2);
        assert_eq!(buf.slice(1..100), vec![2u8]);
    }

    #[test]
    fn copy_census_counts_cow_faults() {
        let (c0, b0) = copy_census();
        let mut a = PacketBuf::from(vec![1u8; 10]);
        let _b = a.clone();
        let mut tally = CopyTally::default();
        a.make_mut(&mut tally)[0] = 2;
        let (c1, b1) = copy_census();
        assert!(c1 >= c0 + 1);
        assert!(b1 >= b0 + 10);
    }

    #[test]
    fn copy_census_counts_slice_materializations() {
        let wire = [7u8; 12];
        let (c0, b0) = copy_census();
        let view = wire[..].tail_view(4);
        let (c1, b1) = copy_census();
        assert_eq!(&*view, &[7u8; 8]);
        assert!(c1 > c0);
        assert!(b1 >= b0 + 8);
    }
}
