//! On-the-fly redaction for streaming responses.
//!
//! [`StreamingSanitizer`] is the chunk-at-a-time form of
//! [`OutputSanitizer::sanitize`]: feed it the decoded text in arbitrary
//! slices and it emits the same redacted text the whole-string sanitizer
//! would produce — byte-identical for *every* possible chunking, which the
//! seam proptest in the umbrella crate's `tests/streaming.rs` pins down.
//!
//! # The carry-over buffer
//!
//! A forbidden marker can straddle a chunk seam, so the sanitizer cannot
//! emit everything it has seen: it withholds a carry-over buffer at each
//! seam. The contract (shared with the umbrella crate's `streaming` module
//! docs) is that the buffer is bounded by `max_pattern_len - 1` bytes — any
//! match crossing a seam starts within that many bytes of it — with two small,
//! bounded exceptions: a *word-bounded* marker ending flush with the seam
//! stays buffered until the next byte decides its right boundary (at most
//! the longest word-bounded marker, under four bytes for the default
//! categories), and a seam landing inside a multi-byte UTF-8 character
//! keeps that character whole (at most three extra bytes).
//!
//! The buffer is withheld *text*, not unscanned text: the automaton's state
//! is carried across the seam ([`Matcher::scan_window`] resumes from it),
//! so every pushed byte is walked exactly once however small the chunks
//! are. The carried bytes stay only to be emitted later and to answer the
//! word-boundary and UTF-8 questions a match that began in them asks.
//!
//! A redaction *group* — overlapping marker spans merge into one redaction,
//! exactly as `sanitize` merges them — can grow longer than any single
//! pattern, but its bytes are not buffered: once a group's start is
//! settled, the sanitizer remembers only the group's current end (the text
//! is going to be replaced by one redaction marker regardless), so the
//! buffer stays bounded even while a chained overlap is in flight.
//!
//! # One buffer per stream, one pass per answer
//!
//! Settled text is *appended to a buffer the caller owns*
//! ([`StreamingSanitizer::push_into`] / [`StreamingSanitizer::finish_into`]):
//! a stream's chunks are ranges of that one buffer, not a `String` each.
//! And because the automaton has walked every byte by the time the stream
//! finishes, the finished sanitizer *is* the output screen's result — which
//! categories hit, how severe, and (in the buffer) the redacted text. A
//! [`ScreenedResponse`] carries that to the [`OutputSanitizer`] detector,
//! which builds its verdict from it instead of scanning the answer a second
//! time; a response nobody streamed is simply the one-chunk case.
//!
//! [`Matcher::scan_window`]: guillotine_scan::Matcher::scan_window

use crate::output_sanitizer::{CompiledCategories, ForbiddenCategory, OutputSanitizer};
use guillotine_scan::ScanState;
use std::sync::Arc;

/// True for bytes that extend an ASCII word, mirroring the automaton's
/// word-boundary rule.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Largest char-boundary position of `s` at or below `i`.
fn snap_down(s: &str, mut i: usize) -> usize {
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Chunk-at-a-time output sanitization with a bounded seam buffer.
///
/// ```
/// use guillotine_detect::{CompiledCategories, StreamingSanitizer};
/// use std::sync::Arc;
///
/// let compiled = Arc::new(CompiledCategories::standard());
/// let mut stream = StreamingSanitizer::new(Arc::clone(&compiled));
/// let mut out = stream.push("a common precu");
/// out.push_str(&stream.push("rsor ships today"));
/// out.push_str(&stream.finish());
/// assert_eq!(out, "a common [REDACTED BY GUILLOTINE] ships today");
///
/// // The same stream into one caller-owned buffer: a chunk is the range
/// // of bytes its push appended, not a `String` of its own.
/// let mut stream = StreamingSanitizer::new(compiled);
/// let mut buffer = String::new();
/// stream.push_into("a common precu", &mut buffer);
/// let seam = buffer.len();
/// stream.push_into("rsor ships today", &mut buffer);
/// stream.finish_into(&mut buffer);
/// assert_eq!(buffer, out);
/// assert!(!buffer[..seam].contains("precu"), "seam bytes are withheld");
/// ```
#[derive(Debug, Clone)]
pub struct StreamingSanitizer {
    compiled: Arc<CompiledCategories>,
    /// Withheld stream suffix: the bytes at absolute positions
    /// `[tail_offset, total)`, all of them already scanned.
    tail: String,
    /// Absolute stream offset of `tail`'s first byte.
    tail_offset: usize,
    /// Total bytes pushed so far.
    total: usize,
    /// Whether the byte just before `tail` is an ASCII word byte (`false`
    /// at the start of the stream), so word-boundary checks survive trims.
    prev_is_word: bool,
    /// The automaton's state after the last pushed byte.
    state: ScanState,
    /// Confirmed marker spans (absolute) that start at or past the last
    /// frontier: found, but not yet part of an emitted or open group.
    spans: Vec<(usize, usize)>,
    /// Word-bounded matches `(pattern, start)` ending flush with the last
    /// pushed byte: the next byte (or the end of the stream) decides them.
    tentative: Vec<(usize, usize)>,
    /// Absolute end of a redaction group whose marker is still pending:
    /// its clean prefix is emitted, its bytes up to `tail_offset` dropped,
    /// and later matches starting before this end still extend it.
    open_end: Option<usize>,
    /// Which categories have had a marker confirmed so far; empty until
    /// the first hit, so a clean stream never allocates it.
    category_hit: Vec<bool>,
    /// Bytes fed to the automaton so far.
    scanned: u64,
    finished: bool,
}

impl StreamingSanitizer {
    /// Creates a streaming sanitizer over a compiled category set.
    pub fn new(compiled: Arc<CompiledCategories>) -> Self {
        StreamingSanitizer {
            compiled,
            tail: String::new(),
            tail_offset: 0,
            total: 0,
            prev_is_word: false,
            state: ScanState::default(),
            spans: Vec::new(),
            tentative: Vec::new(),
            open_end: None,
            category_hit: Vec::new(),
            scanned: 0,
            finished: false,
        }
    }

    /// Feeds the next chunk of raw text, appending whatever sanitized text
    /// is now settled to `out` (possibly nothing — the seam buffer may
    /// withhold bytes). `out` is the stream's one buffer: the bytes a call
    /// appends are that chunk's text.
    pub fn push_into(&mut self, chunk: &str, out: &mut String) {
        debug_assert!(!self.finished, "push after finish");
        let scanned_to = self.tail.len();
        // Room for a chunk this size on top of a full carry, so a stream of
        // even chunks sizes the tail once.
        let carry = scanned_to.max(self.compiled.matcher().max_pattern_len());
        self.tail.reserve(carry + chunk.len() - scanned_to);
        self.tail.push_str(chunk);
        self.total += chunk.len();
        self.resolve(scanned_to, false, out);
    }

    /// Declares the end of the stream, appending the carry-over buffer and
    /// any pending redaction group to `out`. Terminal: nothing may be
    /// pushed afterwards.
    pub fn finish_into(&mut self, out: &mut String) {
        self.finished = true;
        self.resolve(self.tail.len(), true, out);
    }

    /// [`StreamingSanitizer::push_into`] into a fresh `String`.
    pub fn push(&mut self, chunk: &str) -> String {
        let mut out = String::new();
        self.push_into(chunk, &mut out);
        out
    }

    /// [`StreamingSanitizer::finish_into`] into a fresh `String`.
    pub fn finish(&mut self) -> String {
        let mut out = String::new();
        self.finish_into(&mut out);
        out
    }

    /// The compiled category set this stream scans with.
    pub fn compiled(&self) -> &Arc<CompiledCategories> {
        &self.compiled
    }

    /// Bytes currently withheld at the seam (the carry-over buffer).
    pub fn carry_len(&self) -> usize {
        self.tail.len()
    }

    /// Bytes the automaton has walked so far: the single-scan witness,
    /// equal to the bytes pushed whatever the chunking.
    #[doc(hidden)]
    pub fn scanned_bytes(&self) -> u64 {
        self.scanned
    }

    /// The categories whose markers have been confirmed so far, in
    /// registration order.
    pub fn hit_categories(&self) -> impl Iterator<Item = &ForbiddenCategory> {
        self.compiled
            .categories()
            .iter()
            .zip(&self.category_hit)
            .filter(|&(_, &hit)| hit)
            .map(|(category, _)| category)
    }

    /// Names of the categories whose markers have been confirmed so far, in
    /// registration order.
    pub fn matched_categories(&self) -> Vec<String> {
        self.hit_categories()
            .map(|category| category.name.clone())
            .collect()
    }

    /// Maximum severity among the matched categories (0.0 if none).
    pub fn max_severity(&self) -> f64 {
        self.hit_categories()
            .fold(0.0_f64, |acc, category| acc.max(category.severity))
    }

    /// One resolution pass: scan `tail[scanned_to..]` (the bytes just
    /// pushed) from the carried automaton state, settle everything left of
    /// the frontier, append its clean text and closed redaction groups to
    /// `out`, and trim the tail to the frontier.
    fn resolve(&mut self, scanned_to: usize, at_end: bool, out: &mut String) {
        let StreamingSanitizer {
            compiled,
            tail,
            spans,
            tentative,
            category_hit,
            ..
        } = self;
        let matcher = compiled.matcher();
        let max_len = matcher.max_pattern_len();
        let base = self.tail_offset;
        let total = self.total;
        let mut hit = |pattern: usize| {
            if category_hit.is_empty() {
                category_hit.resize(compiled.categories().len(), false);
            }
            category_hit[compiled.category_of_pattern(pattern)] = true;
        };

        // The byte after a seam-flush word-bounded match has arrived (or
        // never will): the match stands unless that byte extends the word.
        if at_end || scanned_to < tail.len() {
            let extends_word = tail
                .as_bytes()
                .get(scanned_to)
                .is_some_and(|&b| is_word_byte(b));
            for (pattern, start) in tentative.drain(..) {
                if !extends_word {
                    hit(pattern);
                    spans.push((start, base + scanned_to));
                }
            }
        }
        self.state = matcher.scan_window(
            tail,
            scanned_to,
            self.state,
            self.prev_is_word,
            at_end,
            |m, is_tentative| {
                if is_tentative {
                    tentative.push((m.pattern, base + m.start));
                } else {
                    hit(m.pattern);
                    spans.push((base + m.start, base + m.end));
                }
                true
            },
        );
        self.scanned += (tail.len() - scanned_to) as u64;

        // The frontier: the absolute position left of which this pass is
        // authoritative. Any future match ends past `total`, so it starts
        // at or after `total + 1 - max_len`; a tentative match holds the
        // frontier back to its own start. Never split a UTF-8 character.
        let mut frontier = if at_end {
            total
        } else {
            total.saturating_sub(max_len.saturating_sub(1)).max(base)
        };
        if let Some(earliest) = tentative.iter().map(|&(_, start)| start).min() {
            frontier = frontier.min(earliest);
        }
        frontier = base + snap_down(tail, frontier - base);

        if spans.is_empty() && self.open_end.is_none() {
            // Nothing to redact in sight: the settled text is clean.
            out.push_str(&tail[..frontier - base]);
        } else {
            // Merge confirmed spans into disjoint groups, exactly as
            // `OutputSanitizer::sanitize` merges them: overlap (`start <
            // end`) merges, touching spans stay separate. A `None` start
            // marks the carried-over open group, whose pre-group text is
            // already out.
            spans.sort_unstable();
            let mut groups: Vec<(Option<usize>, usize)> = Vec::new();
            for &(start, end) in spans.iter() {
                match groups.last_mut() {
                    Some((_, group_end)) if start < *group_end => {
                        *group_end = (*group_end).max(end);
                    }
                    _ => groups.push((Some(start), end)),
                }
            }
            if let Some(open) = self.open_end.take() {
                let mut end = open;
                let mut absorbed = 0;
                for (group_start, group_end) in &groups {
                    if group_start.unwrap_or(0) < end {
                        end = end.max(*group_end);
                        absorbed += 1;
                    } else {
                        break;
                    }
                }
                groups.drain(..absorbed);
                groups.insert(0, (None, end));
            }

            // Emit: clean text and redactions left of the frontier settle
            // now; the first group reaching past it either stays open
            // (start settled, end still growable) or waits whole — its
            // spans, and those of every group after it, stay in `spans`.
            let mut cursor = base;
            let mut waiting_from = usize::MAX;
            for (group_start, group_end) in groups {
                if group_end <= frontier {
                    if let Some(start) = group_start {
                        out.push_str(&tail[cursor - base..start - base]);
                    }
                    out.push_str(OutputSanitizer::REDACTION);
                    cursor = group_end;
                    continue;
                }
                match group_start {
                    Some(start) if start >= frontier => waiting_from = start,
                    _ => {
                        if let Some(start) = group_start {
                            out.push_str(&tail[cursor - base..start - base]);
                        }
                        self.open_end = Some(group_end);
                        cursor = frontier;
                        waiting_from = group_end;
                    }
                }
                break;
            }
            if cursor < frontier {
                out.push_str(&tail[cursor - base..frontier - base]);
            }
            spans.retain(|&(start, _)| start >= waiting_from);
        }

        // Trim the tail to the frontier, preserving word context.
        if frontier > base {
            let cut = frontier - base;
            self.prev_is_word = is_word_byte(tail.as_bytes()[cut - 1]);
            tail.drain(..cut);
            self.tail_offset = frontier;
        }
    }
}

/// A response the output automaton has already walked: the finished
/// [`StreamingSanitizer`] that streamed it and the redacted text it produced.
///
/// Carried by [`ModelObservation::Response`](crate::ModelObservation) so the
/// [`OutputSanitizer`] detector can build its verdict from the stream's one
/// pass instead of scanning the answer again. Other detectors never look at
/// it: they inspect the response text exactly as before.
#[derive(Debug, Clone, Copy)]
pub struct ScreenedResponse<'a> {
    /// The stream's sanitizer, after `finish`: which categories hit.
    pub stream: &'a StreamingSanitizer,
    /// Everything the stream emitted: the response with its markers redacted.
    pub redacted: &'a str,
}

impl PartialEq for ScreenedResponse<'_> {
    /// Two screens are the same screen when they are of the same stream.
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.stream, other.stream) && self.redacted == other.redacted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn standard() -> Arc<CompiledCategories> {
        Arc::new(CompiledCategories::standard())
    }

    /// Runs `text` through a fresh streaming sanitizer in `chunk`-byte
    /// slices (snapped to char boundaries) and returns the concatenation.
    /// Whatever the chunking, the automaton must have walked each pushed
    /// byte exactly once: a sanitizer that re-scanned its carry-over would
    /// count every seam's `max_pattern_len - 1` bytes again.
    fn stream_in_chunks(compiled: &Arc<CompiledCategories>, text: &str, chunk: usize) -> String {
        let mut s = StreamingSanitizer::new(Arc::clone(compiled));
        let mut out = String::new();
        let mut start = 0;
        while start < text.len() {
            let mut end = (start + chunk.max(1)).min(text.len());
            end = snap_down(text, end).max(start + 1);
            while !text.is_char_boundary(end) {
                end += 1;
            }
            out.push_str(&s.push(&text[start..end]));
            start = end;
        }
        out.push_str(&s.finish());
        assert_eq!(s.scanned_bytes(), text.len() as u64, "chunk {chunk}");
        out
    }

    #[test]
    fn every_chunking_matches_the_whole_string_sanitizer() {
        let compiled = standard();
        let reference = OutputSanitizer::with_compiled(Arc::clone(&compiled));
        let texts = [
            "benign text with nothing to hide",
            "a common precursor ships as a weight shard today",
            "precursorprecursor",
            "İİİ password: hunter2 İİİ",
            "use vx. then VX gas, but devx tooling is fine",
            "the synthesis route", // marker flush with end of stream
            "vx",                  // word-bounded marker IS the stream
            // Long enough for many 7- and 32-byte seams.
            "İİ a long benign paragraph with a password: secret in it, use vx. and a \
             synthesis route cut mid-marker, devx tooling, then filler to roll the buffer İİ",
        ];
        for text in texts {
            let (want, _, _) = reference.sanitize(text);
            for chunk in 1..=text.len() {
                let got = stream_in_chunks(&compiled, text, chunk);
                assert_eq!(got, want, "text {text:?} chunked every {chunk} bytes");
            }
        }
    }

    #[test]
    fn a_marker_split_across_a_seam_is_redacted() {
        let mut s = StreamingSanitizer::new(standard());
        let mut out = s.push("The syn");
        assert!(!out.contains("syn"), "seam bytes must be withheld");
        out.push_str(&s.push("thesis route is easy."));
        out.push_str(&s.finish());
        assert_eq!(out, "The [REDACTED BY GUILLOTINE] is easy.");
        assert_eq!(s.matched_categories(), vec!["weapon-synthesis"]);
        assert!(s.max_severity() >= 0.95);
    }

    #[test]
    fn overlapping_groups_merge_across_seams() {
        let mut categories: Vec<ForbiddenCategory> =
            CompiledCategories::standard().categories().to_vec();
        categories.push(ForbiddenCategory {
            name: "test-overlap".into(),
            markers: vec!["route starts".into()],
            severity: 0.5,
        });
        let compiled = Arc::new(CompiledCategories::compile(categories));
        let reference = OutputSanitizer::with_compiled(Arc::clone(&compiled));
        let text = "The synthesis route starts here.";
        let (want, _, _) = reference.sanitize(text);
        assert_eq!(want, "The [REDACTED BY GUILLOTINE] here.");
        for chunk in 1..=text.len() {
            assert_eq!(stream_in_chunks(&compiled, text, chunk), want, "{chunk}");
        }
    }

    #[test]
    fn word_bounded_markers_wait_for_their_right_neighbour() {
        let compiled = standard();
        // "vx" flush with a seam: withheld until the next chunk shows the
        // neighbour. "devx tooling" must never fire.
        let mut s = StreamingSanitizer::new(Arc::clone(&compiled));
        let mut out = s.push("de");
        out.push_str(&s.push("vx"));
        out.push_str(&s.push(" tooling"));
        out.push_str(&s.finish());
        assert_eq!(out, "devx tooling");
        // "use vx" + " now": the seam-flush "vx" resolves to a real hit.
        let mut s = StreamingSanitizer::new(compiled);
        let mut out = s.push("use vx");
        out.push_str(&s.push(" now"));
        out.push_str(&s.finish());
        assert_eq!(out, "use [REDACTED BY GUILLOTINE] now");
    }

    #[test]
    fn the_carry_buffer_is_bounded() {
        let compiled = standard();
        let max_len = compiled.matcher().max_pattern_len();
        let mut s = StreamingSanitizer::new(Arc::clone(&compiled));
        let text = "a long benign paragraph about precursor-free chemistry, \
                    with a password: secret in the middle and plenty of text \
                    after it to keep the stream rolling along for a while";
        for piece in text.as_bytes().chunks(7) {
            s.push(std::str::from_utf8(piece).unwrap());
            assert!(
                s.carry_len() < max_len,
                "carry {} must stay under max pattern length {}",
                s.carry_len(),
                max_len
            );
        }
        s.finish();
        assert_eq!(s.carry_len(), 0, "finish flushes the buffer");
    }

    #[test]
    fn categories_with_no_patterns_pass_everything_through() {
        let compiled = Arc::new(CompiledCategories::compile(std::iter::empty()));
        let mut s = StreamingSanitizer::new(compiled);
        assert_eq!(s.push("anything "), "anything ");
        assert_eq!(s.push("at all"), "at all");
        assert_eq!(s.finish(), "");
        assert!(s.matched_categories().is_empty());
        assert_eq!(s.max_severity(), 0.0);
    }
}
