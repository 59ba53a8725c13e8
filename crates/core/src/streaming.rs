//! Streamed serving results: the chunk vocabulary, the typed terminal
//! events, and the chunk sequences produced by
//! `GuillotineDeployment::serve_batch_streaming`.
//!
//! The paper's containment story needs responses to exist as *streams*, not
//! finished transcripts: a detector that fires at token 50 severs the stream
//! at token 50 instead of retroactively redacting a completed string.
//!
//! * [`StreamChunk`] — one sanitized slice of a sequence's output (a byte
//!   range of the stream's one buffer), stamped with the simulated instant
//!   it left the decoder,
//! * [`StreamEnd`] — the typed terminal event closing every stream:
//!   [`StreamEnd::Completed`] for a pipeline that ran to its natural
//!   conclusion, [`StreamEnd::SeveredMidStream`] when a mid-batch escalation
//!   cut the ports while the stream was in flight,
//! * [`StreamedResponse`] — the serving-level envelope, which pairs a
//!   request's live stream with the same structured [`ServeResponse`] the
//!   non-streaming front door returns.
//!
//! # The carry-over-buffer contract
//!
//! On-the-fly redaction must catch a forbidden marker even when a chunk
//! seam splits it. The contract between the decode loop and the streaming
//! sanitizer (`StreamingSanitizer` in `guillotine-detect`) is:
//!
//! * the sanitizer may withhold — carry over — at most `max_pattern_len -
//!   1` bytes of clean text at any seam, where `max_pattern_len` is the
//!   longest compiled marker: any match crossing a seam begins within that
//!   many bytes of it, so no more context is ever needed. (The one
//!   exception is a *word-bounded* marker ending flush with the seam,
//!   whose right neighbour decides whether it matches at all; its bytes —
//!   at most the longest word-bounded marker, which the default categories
//!   keep under four bytes — stay carried until the next chunk or end of
//!   stream resolves it.)
//! * concatenating every emitted chunk plus the final flush is
//!   byte-identical to running the whole-string sanitizer over the full
//!   transcript, for **every** possible chunking — the seam proptest in
//!   `tests/streaming.rs` pins this down.
//! * a severed stream emits nothing after its terminal event: the chunks
//!   already emitted are exactly what escaped before the ports were cut.

use crate::serve::ServeResponse;
use guillotine_detect::Verdict;
use guillotine_types::SimInstant;
use std::ops::Range;

/// Default number of tokens decoded per streaming chunk.
///
/// Eight tokens (32 bytes at the simulator's 4-bytes-per-token granularity)
/// is small enough that mid-stream severing visibly truncates answers and
/// large enough that chunk overhead stays negligible.
pub const DEFAULT_CHUNK_TOKENS: u64 = 8;

/// One sanitized slice of a streaming response: a byte range of its
/// stream's single sanitized buffer, read with
/// [`StreamedResponse::chunk_text`]. A stream allocates that one buffer,
/// not a `String` per chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamChunk {
    /// Token offset of the first token this chunk's text was decoded from.
    pub offset_tokens: u64,
    /// Where this chunk's sanitized text lies in its stream's buffer. May
    /// lag the decoded tokens: the sanitizer withholds seam-spanning bytes
    /// per the carry-over contract, so a chunk's text can be shorter (or
    /// longer, when a carry resolves) than its token span suggests.
    pub bytes: Range<usize>,
    /// Simulated instant the chunk left the decoder.
    pub at: SimInstant,
}

/// The typed terminal event that closes every stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEnd<V> {
    /// The pipeline ran to its natural conclusion: delivered, sanitized, or
    /// refused by the request's own verdicts.
    Completed,
    /// A mid-batch escalation severed this stream while it was in flight.
    SeveredMidStream {
        /// How many tokens had been decoded when the ports were cut.
        at_token: u64,
        /// The verdict that triggered the escalation.
        verdict: V,
    },
}

impl<V> StreamEnd<V> {
    /// True if the stream was severed mid-flight.
    pub fn is_severed(&self) -> bool {
        matches!(self, StreamEnd::SeveredMidStream { .. })
    }

    /// The token the stream was severed at, if it was.
    pub fn severed_at(&self) -> Option<u64> {
        match self {
            StreamEnd::Completed => None,
            StreamEnd::SeveredMidStream { at_token, .. } => Some(*at_token),
        }
    }
}

/// Everything one request produced on the streaming front door: the redacted
/// chunks in emission order, the typed terminal event, and the assembled
/// [`ServeResponse`] (identical to what the non-streaming `serve_batch`
/// returns — it *is* what `serve_batch` returns, since the non-streaming
/// path drains this one).
///
/// The request's own policy binds its chunks as it binds its response: no
/// chunk carries a byte past `max_response_bytes`, and a `refuse_sanitized`
/// stream holds its chunks back until its output screen clears, releasing
/// none if the response is not delivered. For every stream that completes
/// with a delivered response, the chunks concatenate to exactly
/// `response.response`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedResponse {
    /// Sanitized chunks in the order they left the pipeline. Empty for
    /// requests refused before decode, for streams the sanitizer held back
    /// entirely, and for streams their own policy refused.
    pub chunks: Vec<StreamChunk>,
    /// How the stream terminated. [`StreamEnd::SeveredMidStream`] if and
    /// only if the response outcome is
    /// [`crate::serve::ServeOutcomeKind::Escalated`]: a batch-level
    /// escalation cut the ports while this stream was in flight, and no
    /// chunk was emitted past `at_token`.
    pub end: StreamEnd<Verdict>,
    /// The structured response assembled after the stream terminated.
    pub response: ServeResponse,
    /// The stream's sanitized buffer, kept apart only when the chunks were
    /// not cut from the delivered text: a severed stream, or one whose
    /// response a verdict withheld or replaced after chunks had left. When
    /// `None`, the chunks are ranges of `response.response` itself — the
    /// text exists once.
    undelivered: Option<String>,
}

impl StreamedResponse {
    pub(crate) fn new(
        chunks: Vec<StreamChunk>,
        undelivered: Option<String>,
        end: StreamEnd<Verdict>,
        response: ServeResponse,
    ) -> Self {
        StreamedResponse {
            // Nothing reads the buffer of a stream that released no chunk.
            undelivered: undelivered.filter(|_| !chunks.is_empty()),
            chunks,
            end,
            response,
        }
    }

    /// True when the stream was severed mid-flight by a batch-level
    /// escalation.
    pub fn is_severed(&self) -> bool {
        self.end.is_severed()
    }

    /// The sanitized text `chunk` (one of this stream's chunks) carried.
    pub fn chunk_text(&self, chunk: &StreamChunk) -> &str {
        self.undelivered
            .as_deref()
            .unwrap_or(&self.response.response)
            .get(chunk.bytes.clone())
            .unwrap_or_default()
    }

    /// Concatenation of every chunk that reached the client — the text a
    /// streaming consumer would have assembled.
    pub fn streamed_text(&self) -> String {
        self.chunks
            .iter()
            .map(|chunk| self.chunk_text(chunk))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_end_classifies_terminals() {
        let done: StreamEnd<()> = StreamEnd::Completed;
        assert!(!done.is_severed());
        assert_eq!(done.severed_at(), None);
        let cut = StreamEnd::SeveredMidStream {
            at_token: 42,
            verdict: (),
        };
        assert!(cut.is_severed());
        assert_eq!(cut.severed_at(), Some(42));
    }
}
