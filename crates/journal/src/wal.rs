//! The append-only, checksummed write-ahead log of admission lifecycle
//! records.
//!
//! Every record is one framed line (`crc32hex|body`, see
//! [`guillotine_types::encode`]); the body is a `|`-joined field list whose
//! first field is the record tag. The log models the durability contract a
//! real control plane gets from `fsync`-before-ack: a record is *committed*
//! once [`WriteAheadLog::append`] returns, and only committed records are
//! ever acknowledged to a caller. A torn write — the partially-flushed
//! append a crash can leave at the tail — is therefore always a record
//! nobody was acked for, and recovery may truncate it at the first bad
//! checksum without losing acknowledged work.

use guillotine_admit::EntryStamp;
use guillotine_types::encode::{
    frame_into, parse_instant, parse_ticket, push_decimal, split_fields, unescape_field, unframe,
    Escaped,
};
use guillotine_types::{SessionId, SimInstant, TicketId};
use std::fmt::{Display, Write};

/// The terminal outcome a completion record carries. Mirrors the serving
/// layer's outcome kinds without depending on it — the journal sits below
/// the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// Response delivered verbatim.
    Delivered,
    /// Response delivered after sanitization.
    Sanitized,
    /// Request refused (policy or exhaustion) — still a completion: the
    /// caller got a definitive answer.
    Refused,
    /// Request escalated to containment.
    Escalated,
}

impl CompletionKind {
    fn code(self) -> &'static str {
        match self {
            CompletionKind::Delivered => "delivered",
            CompletionKind::Sanitized => "sanitized",
            CompletionKind::Refused => "refused",
            CompletionKind::Escalated => "escalated",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "delivered" => Some(CompletionKind::Delivered),
            "sanitized" => Some(CompletionKind::Sanitized),
            "refused" => Some(CompletionKind::Refused),
            "escalated" => Some(CompletionKind::Escalated),
            _ => None,
        }
    }
}

/// One admission lifecycle record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A request was acknowledged into the queue. Carries everything needed
    /// to re-enqueue it after a crash: the admission stamp plus the request
    /// payload in its stable wire form.
    Enqueue {
        /// The admission stamp the request was acked with.
        stamp: EntryStamp,
        /// The request payload, encoded by the serving layer.
        payload: String,
    },
    /// A previously-acked queued request was dropped by the shed policy
    /// (the producer was told). It must not be re-enqueued on recovery.
    Shed {
        /// Ticket of the shed victim.
        ticket: TicketId,
    },
    /// A formed batch left the queue for the fleet. Dispatched tickets
    /// without a matching [`WalRecord::Complete`] are the in-flight work a
    /// crash strands; recovery re-enqueues them.
    Dispatch {
        /// Dispatch instant on the fleet clock.
        at: SimInstant,
        /// The batch's tickets, in dispatch order.
        tickets: Vec<TicketId>,
    },
    /// A dispatched request's response was committed. Appended *before*
    /// the response is released to the caller, so every response the
    /// outside world ever saw has a completion record — the idempotency
    /// set recovery rebuilds to guarantee exactly-once service.
    Complete {
        /// Ticket of the completed request.
        ticket: TicketId,
        /// Completion instant on the fleet clock.
        at: SimInstant,
        /// The terminal outcome.
        outcome: CompletionKind,
        /// Session the request belonged to (restores the per-session
        /// order witness).
        session: SessionId,
        /// The request's arrival instant (the order witness compares
        /// arrivals, not completions).
        arrival: SimInstant,
    },
}

const NO_DEADLINE: &str = "-";

/// Appends an admission stamp's five `|`-joined fields — the layout the
/// WAL's `enq` records and the snapshot's `entry` lines share.
pub(crate) fn push_stamp(out: &mut String, stamp: &EntryStamp) {
    push_decimal(out, u64::from(stamp.ticket.raw()));
    out.push('|');
    push_decimal(out, u64::from(stamp.session.raw()));
    out.push('|');
    push_decimal(out, u64::from(stamp.class));
    out.push('|');
    push_decimal(out, stamp.arrival.as_nanos());
    out.push('|');
    match stamp.deadline {
        Some(at) => push_decimal(out, at.as_nanos()),
        None => out.push_str(NO_DEADLINE),
    }
}

/// Parses the five fields [`push_stamp`] wrote.
pub(crate) fn parse_stamp(fields: &[&str]) -> Option<EntryStamp> {
    let [ticket, session, class, arrival, deadline] = fields else {
        return None;
    };
    Some(EntryStamp {
        ticket: parse_ticket(ticket)?,
        session: SessionId::new(session.parse().ok()?),
        class: class.parse().ok()?,
        arrival: parse_instant(arrival)?,
        deadline: if *deadline == NO_DEADLINE {
            None
        } else {
            Some(parse_instant(deadline)?)
        },
    })
}

/// Appends an `enq` record's body: the stamp, then `payload`'s `Display`
/// escaped as one field.
fn encode_enqueue(out: &mut String, stamp: &EntryStamp, payload: impl Display) {
    out.push_str("enq|");
    push_stamp(out, stamp);
    out.push('|');
    // Writing to a `String` cannot fail.
    let _ = write!(Escaped(out), "{payload}");
}

impl WalRecord {
    /// Appends the record's stable wire form (the framed line's body).
    pub fn encode_into(&self, out: &mut String) {
        match self {
            WalRecord::Enqueue { stamp, payload } => encode_enqueue(out, stamp, payload),
            WalRecord::Shed { ticket } => {
                out.push_str("shed|");
                push_decimal(out, u64::from(ticket.raw()));
            }
            WalRecord::Dispatch { at, tickets } => {
                out.push_str("disp|");
                push_decimal(out, at.as_nanos());
                out.push('|');
                for (i, ticket) in tickets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_decimal(out, u64::from(ticket.raw()));
                }
            }
            WalRecord::Complete {
                ticket,
                at,
                outcome,
                session,
                arrival,
            } => {
                out.push_str("done|");
                push_decimal(out, u64::from(ticket.raw()));
                out.push('|');
                push_decimal(out, at.as_nanos());
                out.push('|');
                out.push_str(outcome.code());
                out.push('|');
                push_decimal(out, u64::from(session.raw()));
                out.push('|');
                push_decimal(out, arrival.as_nanos());
            }
        }
    }

    /// Decodes one framed line's body. `None` means the record is not
    /// parseable — recovery treats that exactly like a bad checksum and
    /// truncates there.
    pub fn decode(body: &str) -> Option<WalRecord> {
        let fields = split_fields(body);
        match fields.first().copied()? {
            "enq" if fields.len() == 7 => Some(WalRecord::Enqueue {
                stamp: parse_stamp(&fields[1..6])?,
                payload: unescape_field(fields[6]),
            }),
            "shed" if fields.len() == 2 => Some(WalRecord::Shed {
                ticket: parse_ticket(fields[1])?,
            }),
            "disp" if fields.len() == 3 => {
                let mut tickets = Vec::new();
                if !fields[2].is_empty() {
                    for part in fields[2].split(',') {
                        tickets.push(parse_ticket(part)?);
                    }
                }
                Some(WalRecord::Dispatch {
                    at: parse_instant(fields[1])?,
                    tickets,
                })
            }
            "done" if fields.len() == 6 => Some(WalRecord::Complete {
                ticket: parse_ticket(fields[1])?,
                at: parse_instant(fields[2])?,
                outcome: CompletionKind::parse(fields[3])?,
                session: SessionId::new(fields[4].parse().ok()?),
                arrival: parse_instant(fields[5])?,
            }),
            _ => None,
        }
    }
}

/// Capacity of one log segment. A segment is allocated once and never
/// grows, so the log's memory is its bytes plus at most one part-filled
/// segment — a single buffer grown by doubling would hold up to twice that.
const SEGMENT_BYTES: usize = 64 * 1024;

/// One fixed-capacity stretch of the log file.
#[derive(Debug, Clone)]
struct Segment {
    /// Index of the first record in this segment.
    first_record: u64,
    /// Committed framed lines, each ending in `\n`; in the newest segment
    /// possibly followed by a torn tail.
    text: String,
}

/// The in-memory model of the durable log file: append-only segments of
/// committed framed lines plus, possibly, one torn (partially-flushed,
/// never-acked) tail after the last of them. A committed record costs no
/// allocation of its own — it is framed in a reused buffer and copied to
/// the end of the newest segment.
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    segments: Vec<Segment>,
    /// Number of committed records.
    records: u64,
    /// Length of the committed prefix of the newest segment; bytes past it
    /// are the torn tail.
    committed: usize,
    /// The record being framed: its length must be known before it is
    /// placed in a segment.
    scratch: String,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Commits one record and returns its index. The writer knows its own
    /// committed offset, so an earlier torn tail (garbage from an append
    /// that never completed) is overwritten — exactly what a real logger
    /// does when it keeps appending from its in-memory position.
    pub fn append(&mut self, record: &WalRecord) -> u64 {
        self.commit(|body| record.encode_into(body))
    }

    /// Commits a [`WalRecord::Enqueue`] whose payload is lent, not owned:
    /// `payload`'s `Display` is the payload's wire form, and it is encoded
    /// into the log once, straight from wherever the request lives.
    pub fn append_enqueue(&mut self, stamp: &EntryStamp, payload: impl Display) -> u64 {
        self.commit(|body| encode_enqueue(body, stamp, payload))
    }

    /// Frames the record `body` writes and places it after the committed
    /// tail of the newest segment.
    fn commit(&mut self, body: impl FnOnce(&mut String)) -> u64 {
        self.scratch.clear();
        frame_into(&mut self.scratch, body);
        self.scratch.push('\n');
        if let Some(newest) = self.segments.last_mut() {
            newest.text.truncate(self.committed);
        }
        match self.segments.last_mut() {
            Some(newest) if newest.text.len() + self.scratch.len() <= newest.text.capacity() => {
                newest.text.push_str(&self.scratch);
                self.committed = newest.text.len();
            }
            _ => {
                let mut text = String::with_capacity(SEGMENT_BYTES.max(self.scratch.len()));
                text.push_str(&self.scratch);
                self.committed = text.len();
                self.segments.push(Segment {
                    first_record: self.records,
                    text,
                });
            }
        }
        self.records += 1;
        self.records - 1
    }

    /// Number of committed records.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// True when a torn tail is pending at the end of the file.
    pub fn has_torn_tail(&self) -> bool {
        self.segments
            .last()
            .is_some_and(|newest| newest.text.len() > self.committed)
    }

    /// Simulates a torn append: garbage that looks like the front half of
    /// a record lands after the committed tail. The record it belonged to
    /// was never committed, so no caller was ever acked for it.
    pub fn tear(&mut self) {
        let committed = self.committed;
        match self.segments.last_mut() {
            // A segment is only ever opened by a record, so with anything
            // committed the newest one ends in a whole line.
            Some(newest) if committed > 0 => {
                newest.text.truncate(committed);
                // The front half of the last line (without its newline),
                // cut on a character boundary.
                let body_end = committed - 1;
                let start = newest.text[..body_end].rfind('\n').map_or(0, |at| at + 1);
                let line = &newest.text[start..body_end];
                let half = line
                    .char_indices()
                    .nth(line.len() / 2)
                    .map_or(line.len(), |(at, _)| at);
                newest.text.extend_from_within(start..start + half);
            }
            _ => {
                let mut text = String::with_capacity(SEGMENT_BYTES);
                text.push_str("00000000|enq");
                self.segments.clear();
                self.segments.push(Segment {
                    first_record: 0,
                    text,
                });
            }
        }
    }

    /// The file bytes a recovery would read: every committed line plus the
    /// torn tail, newline-separated.
    pub fn bytes(&self) -> String {
        let total = self.segments.iter().map(|segment| segment.text.len()).sum();
        let mut out = String::with_capacity(total);
        for segment in &self.segments {
            out.push_str(&segment.text);
        }
        if !self.has_torn_tail() {
            // Lines are newline-separated, not newline-terminated.
            out.pop();
        }
        out
    }

    /// Scans the log *as read from its bytes* — every line re-verified
    /// against its checksum — starting at record `offset`. Segments wholly
    /// below it are never read, so a scan costs the suffix (plus at most
    /// one segment's worth of skipped lines), not the history. Stops at
    /// the first unreadable line (bad frame, bad checksum, or undecodable
    /// body): everything after a torn point is untrusted. Returns the
    /// decoded suffix and how many trailing lines were truncated.
    pub fn replay_from(&self, offset: u64) -> WalScan {
        let offset = offset.min(self.records);
        let first = self
            .segments
            .partition_point(|segment| segment.first_record <= offset)
            .saturating_sub(1);
        let mut records = Vec::with_capacity((self.records - offset) as usize);
        let mut truncated = 0u64;
        for (i, segment) in self.segments[first..].iter().enumerate() {
            let skip = if i == 0 {
                (offset - segment.first_record) as usize
            } else {
                0
            };
            for line in segment.text.lines().skip(skip) {
                if truncated > 0 {
                    truncated += 1;
                    continue;
                }
                match unframe(line).and_then(WalRecord::decode) {
                    Some(record) => records.push(record),
                    None => truncated = 1,
                }
            }
        }
        WalScan { records, truncated }
    }
}

/// The result of scanning a log's bytes: the valid decoded suffix, plus
/// how many trailing lines were truncated at the first bad checksum.
#[derive(Debug, Clone)]
pub struct WalScan {
    /// Valid records from the requested offset, in append order.
    pub records: Vec<WalRecord>,
    /// Unreadable trailing lines dropped (0 when the log was clean).
    pub truncated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(ticket: u32, session: u32, arrival: u64) -> EntryStamp {
        EntryStamp {
            ticket: TicketId::new(ticket),
            session: SessionId::new(session),
            class: 1,
            arrival: SimInstant::from_nanos(arrival),
            deadline: Some(SimInstant::from_nanos(arrival + 5_000)),
        }
    }

    #[test]
    fn records_round_trip_through_the_wire_form() {
        let records = vec![
            WalRecord::Enqueue {
                stamp: stamp(7, 3, 100),
                payload: "prompt with | pipe\nand newline".to_string(),
            },
            WalRecord::Enqueue {
                stamp: EntryStamp {
                    deadline: None,
                    ..stamp(8, 3, 150)
                },
                payload: String::new(),
            },
            WalRecord::Shed {
                ticket: TicketId::new(9),
            },
            WalRecord::Dispatch {
                at: SimInstant::from_nanos(400),
                tickets: vec![TicketId::new(7), TicketId::new(8)],
            },
            WalRecord::Complete {
                ticket: TicketId::new(7),
                at: SimInstant::from_nanos(900),
                outcome: CompletionKind::Sanitized,
                session: SessionId::new(3),
                arrival: SimInstant::from_nanos(100),
            },
        ];
        for record in records {
            let mut body = String::new();
            record.encode_into(&mut body);
            assert_eq!(WalRecord::decode(&body).as_ref(), Some(&record));
        }
    }

    /// The WAL wire format is pinned: these are the bytes the pre-buffer
    /// encoder (`format!` + `frame`) produced for one record of each
    /// variant, so old logs stay readable and `wal_bytes_per_req` is
    /// comparable across commits.
    #[test]
    fn framed_bytes_of_every_variant_are_pinned() {
        let mut wal = WriteAheadLog::new();
        wal.append(&WalRecord::Enqueue {
            stamp: stamp(7, 3, 100),
            payload: "3|1|0|-|prompt with \\p pipe\\nand newline é".to_string(),
        });
        wal.append(&WalRecord::Enqueue {
            stamp: EntryStamp {
                deadline: None,
                ..stamp(8, 3, 150)
            },
            payload: String::new(),
        });
        wal.append(&WalRecord::Shed {
            ticket: TicketId::new(9),
        });
        wal.append(&WalRecord::Dispatch {
            at: SimInstant::from_nanos(400),
            tickets: vec![TicketId::new(7), TicketId::new(8)],
        });
        wal.append(&WalRecord::Dispatch {
            at: SimInstant::from_nanos(401),
            tickets: Vec::new(),
        });
        wal.append(&WalRecord::Complete {
            ticket: TicketId::new(7),
            at: SimInstant::from_nanos(900),
            outcome: CompletionKind::Sanitized,
            session: SessionId::new(3),
            arrival: SimInstant::from_nanos(100),
        });
        assert_eq!(
            wal.bytes(),
            "7dce81e5|enq|7|3|1|100|5100|3\\p1\\p0\\p-\\pprompt with \\\\p pipe\\\\nand newline é\n\
             349f5c05|enq|8|3|1|150|-|\n\
             0a9f387f|shed|9\n\
             85b3415f|disp|400|7,8\n\
             066e05ec|disp|401|\n\
             beed51a9|done|7|900|sanitized|3|100"
        );
        assert_eq!(wal.replay_from(0).records.len(), 6);
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        for body in [
            "",
            "nope",
            "enq|1|2",
            "enq|x|3|1|100|-|p",
            "done|1|2|exploded|3|4",
            "disp|100|1,x",
        ] {
            assert_eq!(WalRecord::decode(body), None, "body {body:?}");
        }
    }

    #[test]
    fn replay_returns_the_suffix_and_truncates_torn_tails() {
        let mut wal = WriteAheadLog::new();
        for i in 0..4 {
            wal.append(&WalRecord::Enqueue {
                stamp: stamp(i, 0, u64::from(i) * 10),
                payload: format!("req {i}"),
            });
        }
        assert_eq!(wal.len(), 4);
        let full = wal.replay_from(0);
        assert_eq!(full.records.len(), 4);
        assert_eq!(full.truncated, 0);
        let suffix = wal.replay_from(3);
        assert_eq!(suffix.records.len(), 1);

        // A torn tail is truncated without touching committed records.
        wal.tear();
        assert!(wal.has_torn_tail());
        let scan = wal.replay_from(0);
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.truncated, 1);

        // The writer keeps appending from its committed offset: the torn
        // garbage is overwritten and the log is clean again.
        wal.append(&WalRecord::Shed {
            ticket: TicketId::new(0),
        });
        assert!(!wal.has_torn_tail());
        let scan = wal.replay_from(0);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.truncated, 0);
    }

    #[test]
    fn a_log_longer_than_one_segment_scans_from_any_offset() {
        // Payloads sized so a few dozen records fill a segment, one of them
        // larger than a whole segment.
        let mut wal = WriteAheadLog::new();
        let mut expected = Vec::new();
        for i in 0..200u32 {
            let len = if i == 77 { SEGMENT_BYTES + 10 } else { 1500 };
            let record = WalRecord::Enqueue {
                stamp: stamp(i, i % 3, u64::from(i) * 10),
                payload: format!("{i}:").repeat(len / 3),
            };
            assert_eq!(wal.append(&record), u64::from(i));
            expected.push(record);
        }
        assert!(wal.segments.len() > 3, "{} segments", wal.segments.len());
        for segment in &wal.segments {
            assert!(
                segment.text.capacity() == SEGMENT_BYTES || segment.first_record == 77,
                "segments never grow: {}",
                segment.text.capacity()
            );
        }
        wal.tear();
        assert_eq!(wal.bytes().lines().count(), 201);
        for offset in [0, 1, 42, 43, 44, 76, 77, 78, 150, 199, 200, 201] {
            let scan = wal.replay_from(offset);
            let tail = expected.get(offset as usize..).unwrap_or(&[]);
            assert_eq!(scan.records, tail, "offset {offset}");
            assert_eq!(scan.truncated, 1, "offset {offset}");
        }
        // Appending over the torn tail continues in the same segment.
        let segments = wal.segments.len();
        wal.append(&WalRecord::Shed {
            ticket: TicketId::new(0),
        });
        assert_eq!(wal.segments.len(), segments);
        assert_eq!(wal.replay_from(200).records.len(), 1);
        assert_eq!(wal.replay_from(0).truncated, 0);
    }

    #[test]
    fn tearing_an_empty_log_still_truncates_cleanly() {
        let mut wal = WriteAheadLog::new();
        wal.tear();
        assert_eq!(wal.bytes(), "00000000|enq");
        let scan = wal.replay_from(0);
        assert!(scan.records.is_empty());
        assert_eq!(scan.truncated, 1);
    }

    #[test]
    fn a_scan_from_any_offset_is_the_tail_of_the_full_scan() {
        let mut wal = WriteAheadLog::new();
        for i in 0..6 {
            wal.append(&WalRecord::Enqueue {
                stamp: stamp(i, i % 2, u64::from(i) * 10),
                payload: format!("req {i} é"),
            });
        }
        for torn in [false, true] {
            if torn {
                wal.tear();
                // The tail is the front half of the last line, by chars.
                let bytes = wal.bytes();
                let last = bytes.lines().nth(5).expect("six lines");
                let half: String = last.chars().take(last.len() / 2).collect();
                assert_eq!(bytes.lines().nth(6), Some(half.as_str()));
            }
            let full = wal.replay_from(0);
            assert_eq!(full.records.len(), 6);
            assert_eq!(full.truncated, u64::from(torn));
            // Past-the-end offsets included: nothing to replay, the torn
            // tail still reported.
            for offset in 0..=8u64 {
                let scan = wal.replay_from(offset);
                let expected = full.records.get(offset as usize..).unwrap_or(&[]);
                assert_eq!(scan.records, expected, "offset {offset}, torn {torn}");
                assert_eq!(scan.truncated, full.truncated, "offset {offset}");
            }
        }
    }
}
