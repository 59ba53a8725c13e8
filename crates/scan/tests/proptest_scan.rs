//! Property tests: the automaton is exactly equivalent to the naive
//! lowercase-`contains` scan it replaced (over the ASCII case-folding
//! contract), for arbitrary pattern sets and haystacks — including
//! non-ASCII haystacks, where byte offsets must stay aligned.

use guillotine_scan::{naive, Match, Matcher, MatcherBuilder, ScanState};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

proptest! {
    /// The distinct-pattern set of one automaton pass equals the naive
    /// per-pattern `contains` sweep. A tight alphabet keeps collisions,
    /// overlaps and shared prefixes frequent.
    #[test]
    fn matched_ids_equal_naive_contains(
        patterns in collection::vec("[a-cA-C]{1,4}", 1..8),
        haystack in "[a-cA-C İß.]{0,80}",
    ) {
        let matcher = Matcher::compile(&patterns);
        let naive_hits = naive::matched_ids(&patterns, &haystack);
        let set = matcher.matched_ids(&haystack);
        for (id, &hit) in naive_hits.iter().enumerate() {
            prop_assert_eq!(
                set.contains(id),
                hit,
                "pattern {:?} vs haystack {:?}",
                &patterns[id],
                &haystack
            );
        }
        prop_assert_eq!(set.distinct_count(), naive_hits.iter().filter(|h| **h).count());
    }

    /// Every `(pattern, start)` occurrence matches the naive overlapping
    /// scan — spans land on the original bytes, never a lowercase shadow.
    #[test]
    fn spans_equal_naive_occurrences(
        patterns in collection::vec("[a-bA-B]{1,3}", 1..6),
        haystack in "[a-bA-B İ]{0,60}",
    ) {
        let matcher = Matcher::compile(&patterns);
        let got: BTreeSet<(usize, usize)> = matcher
            .find_all(&haystack)
            .into_iter()
            .map(|m| (m.pattern, m.start))
            .collect();
        let want: BTreeSet<(usize, usize)> =
            naive::all_occurrences(&patterns, &haystack).into_iter().collect();
        prop_assert_eq!(got, want, "patterns {:?} haystack {:?}", &patterns, &haystack);
    }

    /// Reported spans always slice the original haystack cleanly and the
    /// sliced text case-folds back to the pattern.
    #[test]
    fn spans_slice_the_original_text(
        patterns in collection::vec("[a-dA-D]{1,4}", 1..6),
        haystack in "[a-dA-D °ß]{0,60}",
    ) {
        let matcher = Matcher::compile(&patterns);
        for m in matcher.find_all(&haystack) {
            prop_assert!(haystack.is_char_boundary(m.start));
            prop_assert!(haystack.is_char_boundary(m.end));
            let sliced = &haystack[m.range()];
            prop_assert_eq!(
                sliced.to_ascii_lowercase(),
                patterns[m.pattern].to_ascii_lowercase()
            );
        }
    }

    /// Leftmost-longest iteration equals the naive position-by-position
    /// reference: same non-overlapping matches, same ids, same spans, in
    /// the same order — for arbitrary overlapping pattern sets.
    #[test]
    fn leftmost_longest_iteration_equals_naive(
        patterns in collection::vec("[a-bA-B]{1,4}", 1..8),
        haystack in "[a-bA-B İ.]{0,80}",
    ) {
        let matcher = Matcher::compile(&patterns);
        let got: Vec<(usize, usize, usize)> = matcher
            .leftmost_longest_matches(&haystack)
            .map(|m| (m.pattern, m.start, m.end))
            .collect();
        let want = naive::leftmost_longest(&patterns, &haystack);
        prop_assert_eq!(&got, &want, "patterns {:?} haystack {:?}", &patterns, &haystack);
        // The first iterated match is find_leftmost_longest.
        prop_assert_eq!(
            matcher.find_leftmost_longest(&haystack).map(|m| (m.pattern, m.start, m.end)),
            want.first().copied()
        );
        // Matches never overlap and advance strictly left to right.
        for pair in got.windows(2) {
            prop_assert!(pair[0].2 <= pair[1].1);
        }
    }

    /// Word-bounded matching is exactly the boundary-filtered subset of
    /// unbounded matching: same pattern registered both ways, the bounded
    /// copy fires iff the unbounded copy fires with non-word neighbours.
    #[test]
    fn word_bounding_filters_exactly_on_boundaries(
        pattern in "[a-c]{1,3}",
        haystack in "[a-c _.]{0,60}",
    ) {
        let mut builder = MatcherBuilder::new();
        let bounded = builder.add_word_bounded(&pattern);
        let unbounded = builder.add(&pattern);
        let matcher = builder.build();
        let matches = matcher.find_all(&haystack);
        let bounded_starts: BTreeSet<usize> = matches
            .iter()
            .filter(|m| m.pattern == bounded)
            .map(|m| m.start)
            .collect();
        let bytes = haystack.as_bytes();
        let expected: BTreeSet<usize> = matches
            .iter()
            .filter(|m| m.pattern == unbounded)
            .filter(|m| {
                let left_ok = m.start == 0 || !is_word_byte(bytes[m.start - 1]);
                let right_ok = m.end == bytes.len() || !is_word_byte(bytes[m.end]);
                left_ok && right_ok
            })
            .map(|m| m.start)
            .collect();
        prop_assert_eq!(bounded_starts, expected);
    }

    /// The full differential: word-bounded and unbounded patterns mixed,
    /// non-ASCII haystacks, `scan` against the naive occurrences filtered on
    /// their neighbours — and the resumable walk against `scan`: for every
    /// split point, the haystack fed as two windows with the automaton
    /// state carried across reports exactly the whole scan's matches, in
    /// order, whether the second window carries all of the first as context
    /// or only the `max_pattern_len - 1` bytes the contract asks for.
    #[test]
    fn a_scan_split_at_any_point_equals_the_whole_scan_and_naive(
        patterns in collection::vec(("[a-cA-C]{1,4}", any::<bool>()), 1..8),
        haystack in "[a-cA-C İß_.]{0,60}",
    ) {
        let mut builder = MatcherBuilder::new();
        for (pattern, bounded) in &patterns {
            if *bounded {
                builder.add_word_bounded(pattern);
            } else {
                builder.add(pattern);
            }
        }
        let matcher = builder.build();
        let bytes = haystack.as_bytes();
        let whole = matcher.find_all(&haystack);

        let sources: Vec<&str> = patterns.iter().map(|(pattern, _)| pattern.as_str()).collect();
        let want: BTreeSet<(usize, usize)> = naive::all_occurrences(&sources, &haystack)
            .into_iter()
            .filter(|&(id, start)| {
                let end = start + sources[id].len();
                let left_ok = start == 0 || !is_word_byte(bytes[start - 1]);
                let right_ok = end == bytes.len() || !is_word_byte(bytes[end]);
                !patterns[id].1 || (left_ok && right_ok)
            })
            .collect();
        let got: BTreeSet<(usize, usize)> = whole.iter().map(|m| (m.pattern, m.start)).collect();
        prop_assert_eq!(&got, &want, "patterns {:?} haystack {:?}", &patterns, &haystack);

        let keep = matcher.max_pattern_len().saturating_sub(1);
        for split in (0..=haystack.len()).filter(|&i| haystack.is_char_boundary(i)) {
            // First window: the stream so far, more to come.
            let mut first: Vec<(Match, bool)> = Vec::new();
            let state = matcher.scan_window(
                &haystack[..split],
                0,
                ScanState::default(),
                false,
                false,
                |m, tentative| {
                    first.push((m, tentative));
                    true
                },
            );
            // A seam-flush word-bounded match stands unless the next byte
            // extends the word.
            let extends = bytes.get(split).is_some_and(|&b| is_word_byte(b));
            let settled: Vec<Match> = first
                .into_iter()
                .filter(|&(_, tentative)| !(tentative && extends))
                .map(|(m, _)| m)
                .collect();

            // Second window, whole first window as context.
            let mut full = settled.clone();
            matcher.scan_window(&haystack, split, state, false, true, |m, tentative| {
                assert!(!tentative, "nothing is tentative at the end of the stream");
                full.push(m);
                true
            });
            prop_assert_eq!(&full, &whole, "split {} of {:?}", split, &haystack);

            // Second window, minimal context: what a streaming caller keeps.
            let mut cut = split.saturating_sub(keep);
            while !haystack.is_char_boundary(cut) {
                cut -= 1;
            }
            let left_word = cut > 0 && is_word_byte(bytes[cut - 1]);
            let mut trimmed = settled;
            matcher.scan_window(
                &haystack[cut..],
                split - cut,
                state,
                left_word,
                true,
                |m, _| {
                    trimmed.push(Match {
                        pattern: m.pattern,
                        start: m.start + cut,
                        end: m.end + cut,
                    });
                    true
                },
            );
            prop_assert_eq!(&trimmed, &whole, "split {} cut {} of {:?}", split, cut, &haystack);
        }
    }
}
