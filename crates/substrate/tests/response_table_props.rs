//! Property tests for response tables made by `ResponseTable::replacing`
//! (a server-blinded probe's responses): their segment payload sums,
//! which start from the base table's and re-sum only the segments a
//! replaced response touches, equal a fresh `segment_payload_sums` over
//! the replaced responses for any burst and MSS.

use std::sync::Arc;

use proptest::prelude::*;

use liberate_packet::packet::segment_payload_sums;
use liberate_substrate::buf::PacketBuf;
use liberate_substrate::script::ResponseTable;

/// `stream` cut at `cuts` into consecutive responses, empty ones included.
fn split(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    cuts.sort_unstable();
    let mut pieces = Vec::new();
    let mut at = 0;
    for c in cuts.into_iter().chain([stream.len()]) {
        pieces.push(stream[at..c].to_vec());
        at = c;
    }
    pieces
}

proptest! {
    /// Random responses, one-byte rewrites of random responses at their
    /// edges or inside (one response may be rewritten twice), any burst
    /// of consecutive responses and any MSS, with the base table's sums
    /// for that burst computed before or after the derived table asks
    /// for them. The base table's own sums stay those of its own
    /// responses, and a burst that no rewrite touches shares the base's
    /// sums.
    #[test]
    fn replaced_sums_match_a_fresh_sum(
        stream in proptest::collection::vec(any::<u8>(), 0..5000),
        cuts in proptest::collection::vec(0usize..5000, 0..10),
        rewrites in proptest::collection::vec((0usize..11, any::<u8>(), any::<u16>()), 0..4),
        burst in (0usize..11, 0usize..11),
        mss in prop_oneof![Just(1460usize), 1usize..=8, 1usize..=600],
        warm_base in any::<bool>(),
    ) {
        let mut responses = split(&stream, &cuts);
        let base = Arc::new(ResponseTable::lower(responses.iter().map(Vec::as_slice)));
        let n = responses.len();
        let start = burst.0 % (n + 1);
        let range = start..start + burst.1 % (n + 1 - start);
        if warm_base {
            base.segment_sums(range.clone(), mss);
        }

        let mut replaced = Vec::new();
        let mut touched = vec![false; n];
        for (i, xor, at) in rewrites {
            let i = i % n;
            let response = &mut responses[i];
            if !response.is_empty() {
                // A response's first and last bytes sit on segment edges
                // most often, so they are rewritten two times in three.
                let at = match at % 3 {
                    0 => 0,
                    1 => response.len() - 1,
                    _ => usize::from(at) % response.len(),
                };
                response[at] ^= xor | 1;
            }
            touched[i] = true;
            replaced.push((i, PacketBuf::from(&*response)));
        }
        let derived = base.replacing(replaced);
        prop_assert_eq!(derived.responses(), &responses[..]);

        let sums = derived.segment_sums(range.clone(), mss);
        prop_assert_eq!(&sums[..], &segment_payload_sums(&responses[range.clone()], mss)[..]);
        prop_assert!(Arc::ptr_eq(&sums, &derived.segment_sums(range.clone(), mss)));

        let base_sums = base.segment_sums(range.clone(), mss);
        prop_assert_eq!(
            &base_sums[..],
            &segment_payload_sums(&base.responses()[range.clone()], mss)[..]
        );
        if !touched[range].iter().any(|&t| t) {
            prop_assert!(Arc::ptr_eq(&sums, &base_sums));
        }
    }
}
