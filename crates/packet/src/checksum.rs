//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header variants.
//!
//! Every header type in this crate lets the caller either compute the
//! correct checksum or force an arbitrary (possibly wrong) value — crafting
//! packets with deliberately bad checksums is one of lib·erate's inert-packet
//! insertion techniques (Table 3 of the paper).

use std::net::Ipv4Addr;

/// How a checksum field should be filled in when serializing a header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumSpec {
    /// Compute the correct RFC 1071 checksum.
    Auto,
    /// Force this exact value (used to craft invalid packets).
    Fixed(u16),
}

impl Default for ChecksumSpec {
    fn default() -> Self {
        ChecksumSpec::Auto
    }
}

impl ChecksumSpec {
    /// Resolve the spec given the correct checksum value.
    pub fn resolve(self, correct: u16) -> u16 {
        match self {
            ChecksumSpec::Auto => correct,
            ChecksumSpec::Fixed(v) => v,
        }
    }
}

/// One's-complement sum over `data`, folding carries, without the final
/// complement. Useful for composing sums over several byte ranges.
///
/// The one's-complement sum is byte-order independent (RFC 1071 §2(B)):
/// summing native-endian words and swapping the folded result once gives
/// the same value as summing big-endian words. So the bulk of `data` is
/// read as native-endian `u32` words into a `u64` accumulator, a loop
/// the compiler vectorizes, and blocks are folded often enough that no
/// input length can overflow it.
pub fn ones_complement_sum(data: &[u8], acc: u32) -> u32 {
    /// Bytes per block: a block sums at most 2^16 words of 32 bits, so
    /// its `u64` sum cannot overflow.
    const BLOCK: usize = 4 << 16;
    let mut native = 0u64;
    for block in data.chunks(BLOCK) {
        native = fold_add(native, native_sum(block));
    }
    let be = u16::from_be(fold16(native));
    u32::from(fold16(u64::from(acc) + u64::from(be)))
}

/// Sum of `data` read as native-endian words: whole `u32` words, then a
/// trailing 16-bit word and a zero-padded odd byte.
fn native_sum(data: &[u8]) -> u64 {
    let words = data.chunks_exact(4);
    let mut pairs = words.remainder().chunks_exact(2);
    let mut sum: u64 = words
        .map(|w| u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]])))
        .sum();
    for pair in &mut pairs {
        sum += u64::from(u16::from_ne_bytes([pair[0], pair[1]]));
    }
    if let [last] = pairs.remainder() {
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    sum
}

/// One's-complement (end-around carry) addition of two `u64` sums.
fn fold_add(a: u64, b: u64) -> u64 {
    let (sum, carry) = a.overflowing_add(b);
    sum + u64::from(carry)
}

/// Fold a one's-complement sum to 16 bits. Zero stays zero; any other
/// sum lands in `1..=0xffff`.
fn fold16(mut sum: u64) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Standard Internet checksum of a byte slice.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !(ones_complement_sum(data, 0) as u16)
}

/// Checksum of a TCP or UDP segment including the IPv4 pseudo-header.
///
/// `proto` is the IP protocol number (6 for TCP, 17 for UDP) and `segment`
/// is the transport header plus payload with the checksum field zeroed.
pub fn pseudo_header_checksum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, segment: &[u8]) -> u16 {
    let acc = ones_complement_sum(segment, pseudo_header_sum(src, dst, proto, segment.len()));
    checksum_of(acc.into())
}

/// The unfolded sum of the pseudo header of a `segment_len`-byte segment.
pub(crate) fn pseudo_header_sum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    segment_len: usize,
) -> u32 {
    let mut acc = 0u32;
    acc = ones_complement_sum(&src.octets(), acc);
    acc = ones_complement_sum(&dst.octets(), acc);
    acc += u32::from(proto);
    // UDP length / TCP length field of the pseudo header.
    acc + segment_len as u32
}

/// The checksum of data given as partial sums: `total` adds up sums of
/// even-length pieces ([`ones_complement_sum`] results or 16-bit words).
/// Equal to summing the data in one piece.
pub(crate) fn checksum_of(total: u64) -> u16 {
    !fold16(total)
}

/// `ones_complement_sum(joined, 0)` of the concatenation of `pieces`,
/// without joining them: a piece that starts at an odd offset of the
/// joined bytes contributes its own sum byte-swapped (RFC 1071 §2(B)).
pub(crate) fn ones_complement_sum_gather(pieces: &[&[u8]]) -> u16 {
    let mut acc = 0u64;
    let mut odd = false;
    for piece in pieces {
        let sum = ones_complement_sum(piece, 0) as u16;
        acc += u64::from(if odd { sum.swap_bytes() } else { sum });
        odd ^= piece.len() % 2 == 1;
    }
    fold16(acc)
}

/// Verify a checksum by summing over data that *includes* the checksum
/// field; a valid packet sums to `0xffff` before complementing.
pub fn verify_checksum(data: &[u8]) -> bool {
    ones_complement_sum(data, 0) == 0xffff
}

/// Verify the transport checksum of a segment (checksum field included)
/// against the pseudo header.
pub fn verify_pseudo_checksum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, segment: &[u8]) -> bool {
    // A UDP checksum of zero means "not computed" and is legal (RFC 768).
    if proto == 17 && segment.len() >= 8 && segment[6] == 0 && segment[7] == 0 {
        return true;
    }
    ones_complement_sum(segment, pseudo_header_sum(src, dst, proto, segment.len())) == 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar sum this module used before the word-width one: big-endian
    /// 16-bit words, two bytes at a time. Its accumulator is widened to
    /// `u64`, so it is a correct oracle for inputs of any test size.
    fn scalar_sum(data: &[u8], acc: u32) -> u32 {
        let mut acc = u64::from(acc);
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            acc += u64::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            acc += u64::from(u16::from_be_bytes([*last, 0]));
        }
        while acc > 0xffff {
            acc = (acc & 0xffff) + (acc >> 16);
        }
        acc as u32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn word_sum_matches_scalar_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..1_600),
            acc in any::<u32>(),
        ) {
            prop_assert_eq!(ones_complement_sum(&data, acc), scalar_sum(&data, acc));
            prop_assert_eq!(ones_complement_sum(&data, 0), scalar_sum(&data, 0));
        }

        #[test]
        fn word_sum_matches_oracle_on_every_alignment(
            data in proptest::collection::vec(any::<u8>(), 0..64),
            skip in 0usize..8,
        ) {
            let data = &data[skip.min(data.len())..];
            prop_assert_eq!(ones_complement_sum(data, 0), scalar_sum(data, 0));
        }

        #[test]
        fn gathered_sum_matches_the_joined_sum(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut at = 0;
            for c in cuts.into_iter().chain([data.len()]) {
                pieces.push(&data[at..c]);
                at = c;
            }
            prop_assert_eq!(
                u32::from(ones_complement_sum_gather(&pieces)),
                ones_complement_sum(&data, 0)
            );
        }

        #[test]
        fn partial_sums_give_the_whole_checksum(
            parts in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..5),
            zeros in any::<bool>(),
        ) {
            let parts: Vec<Vec<u8>> = parts
                .into_iter()
                .map(|p| if zeros { vec![0; p.len() & !1] } else { p[..p.len() & !1].to_vec() })
                .collect();
            let total = parts.iter().map(|p| u64::from(ones_complement_sum(p, 0))).sum();
            prop_assert_eq!(checksum_of(total), internet_checksum(&parts.concat()));
        }
    }

    #[test]
    fn word_sum_matches_oracle_on_every_small_length() {
        let bytes: Vec<u8> = (0..1_601u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..=bytes.len() {
            for acc in [0, 1, 0xffff, 0x1_0000, u32::MAX] {
                assert_eq!(
                    ones_complement_sum(&bytes[..len], acc),
                    scalar_sum(&bytes[..len], acc),
                    "len {len}, acc {acc:#x}"
                );
            }
        }
    }

    #[test]
    fn large_inputs_do_not_overflow() {
        // 200 KiB of 0xff words: the old u32 accumulator overflowed past
        // ~128 KiB. All-ones and all-zeros pin the 0 / 0xffff edge.
        for (len, byte) in [
            (200 * 1024, 0xffu8),
            (200 * 1024 + 1, 0xff),
            (200 * 1024, 0),
        ] {
            let data = vec![byte; len];
            assert_eq!(
                ones_complement_sum(&data, 0),
                scalar_sum(&data, 0),
                "len {len}"
            );
        }
        let data: Vec<u8> = (0..200 * 1024 + 3)
            .map(|i: u32| (i ^ (i >> 7)) as u8)
            .collect();
        for acc in [0, 0xabcd, u32::MAX] {
            assert_eq!(ones_complement_sum(&data, acc), scalar_sum(&data, acc));
        }
    }

    #[test]
    fn rfc1071_example() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let sum = ones_complement_sum(&data, 0);
        assert_eq!(sum, 0xddf2);
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(internet_checksum(&[0xab]), internet_checksum(&[0xab, 0x00]));
    }

    #[test]
    fn verify_roundtrip() {
        let mut header = vec![0x45u8, 0x00, 0x00, 0x14, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06];
        header.extend_from_slice(&[0, 0]); // checksum placeholder
        header.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let ck = internet_checksum(&header);
        header[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_checksum(&header));
        header[0] ^= 0x01;
        assert!(!verify_checksum(&header));
    }

    #[test]
    fn pseudo_roundtrip_tcp() {
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut seg = vec![
            0x1f, 0x90, 0x00, 0x50, // ports
            0, 0, 0, 1, 0, 0, 0, 0, // seq/ack
            0x50, 0x18, 0xff, 0xff, // offset/flags/window
            0x00, 0x00, 0x00, 0x00, // checksum + urgent
            b'h', b'i',
        ];
        let ck = pseudo_header_checksum(src, dst, 6, &seg);
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_pseudo_checksum(src, dst, 6, &seg));
        seg[20] ^= 0xff;
        assert!(!verify_pseudo_checksum(src, dst, 6, &seg));
    }

    #[test]
    fn udp_zero_checksum_is_valid() {
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let dst = Ipv4Addr::new(5, 6, 7, 8);
        let seg = vec![0x00, 0x35, 0x00, 0x35, 0x00, 0x09, 0x00, 0x00, b'x'];
        assert!(verify_pseudo_checksum(src, dst, 17, &seg));
    }

    #[test]
    fn fixed_spec_overrides() {
        assert_eq!(ChecksumSpec::Auto.resolve(0x1234), 0x1234);
        assert_eq!(ChecksumSpec::Fixed(0xdead).resolve(0x1234), 0xdead);
    }
}
