//! Periodic fleet snapshots: a checksummed, self-delimiting dump of the
//! control plane's durable state at a quiescent point.
//!
//! A snapshot is a sequence of framed lines (`crc32hex|body`) ending in an
//! explicit `end` marker; any bad checksum or missing marker makes the
//! whole snapshot invalid, and recovery falls back to the previous one (or
//! to a full WAL replay). Snapshots are only taken when no batch is in
//! flight, so `queue + WAL suffix` fully reconstructs the control plane.
//!
//! Its size is a function of *outstanding* work: the queue, one
//! `session:arrival` pair per live session, and the idempotency set as
//! `lo-hi` ranges ([`TicketSet`]) — not one entry per ticket ever served.

use crate::ticket_set::TicketSet;
use crate::wal::{parse_stamp, push_stamp};
use guillotine_admit::{AdmissionStats, EntryStamp};
use guillotine_types::encode::{
    frame_into, parse_instant, push_decimal, split_fields, unescape_field, unframe, Escaped,
};
use guillotine_types::{Gauge, Histogram, SimDuration, SimInstant};
use std::fmt::{Display, Write};

/// Everything a control-plane snapshot captures, as decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotData {
    /// Fleet-clock instant the snapshot was taken.
    pub at: SimInstant,
    /// Number of WAL records committed when the snapshot was taken; the
    /// replay suffix starts here.
    pub wal_offset: u64,
    /// The ticket counter, so recovery never re-issues a live ticket.
    pub next_ticket: u32,
    /// The degradation-ladder mode rank at snapshot time.
    pub mode_rank: u8,
    /// The queued entries (stamp plus wire-form payload), in queue order.
    pub queue: Vec<(EntryStamp, String)>,
    /// Tickets already completed (the idempotency set).
    pub completed: TicketSet,
    /// Per-session order witness: latest arrival instant completed per
    /// session, as `(session raw, arrival ns)`.
    pub progress: Vec<(u32, u64)>,
    /// Per-shard quarantine flags (the fleet console's quorum state).
    pub quarantined: Vec<bool>,
    /// Per-shard KV invalidation flags (which shards must serve cold).
    pub kv_invalidated: Vec<bool>,
    /// Admission statistics at snapshot time.
    pub stats: AdmissionStats,
}

/// The same state, borrowed from its owner for encoding: the control plane
/// snapshots at every quiescent pump boundary, so nothing — least of all
/// the queued payloads — is copied into an owned [`SnapshotData`] first.
/// `queue` yields each entry's stamp and a payload whose `Display` is its
/// wire form.
#[derive(Debug)]
pub struct SnapshotView<'a, Q> {
    /// See [`SnapshotData::at`].
    pub at: SimInstant,
    /// See [`SnapshotData::wal_offset`].
    pub wal_offset: u64,
    /// See [`SnapshotData::next_ticket`].
    pub next_ticket: u32,
    /// See [`SnapshotData::mode_rank`].
    pub mode_rank: u8,
    /// See [`SnapshotData::queue`].
    pub queue: Q,
    /// See [`SnapshotData::completed`].
    pub completed: &'a TicketSet,
    /// See [`SnapshotData::progress`]; sorted by the caller so the bytes
    /// are deterministic.
    pub progress: &'a [(u32, u64)],
    /// See [`SnapshotData::quarantined`].
    pub quarantined: &'a [bool],
    /// See [`SnapshotData::kv_invalidated`].
    pub kv_invalidated: &'a [bool],
    /// See [`SnapshotData::stats`].
    pub stats: &'a AdmissionStats,
}

fn push_flags(out: &mut String, flags: &[bool]) {
    out.extend(flags.iter().map(|&b| if b { '1' } else { '0' }));
}

fn parse_flags(s: &str) -> Option<Vec<bool>> {
    s.chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect()
}

fn push_stats(out: &mut String, stats: &AdmissionStats) {
    out.push_str("stats");
    for field in [
        stats.submitted,
        stats.enqueued,
        stats.refused,
        stats.shed,
        stats.dispatched,
        stats.batches,
        stats.depth.current(),
        stats.depth.high_water(),
        stats.wait_total.as_nanos(),
        stats.wait_max.as_nanos(),
        stats.deadlines_tracked,
        stats.deadlines_met,
        stats.deadlines_missed,
        stats.ttft_samples,
        stats.ttft_total.as_nanos(),
        stats.ttft_max.as_nanos(),
    ] {
        out.push('|');
        push_decimal(out, field);
    }
    // The SLO histograms ride along sparsely (sum;idx:count,...), so a
    // recovered control plane reports the same p95/p99 it crashed with.
    out.push('|');
    stats.wait_hist.encode_sparse_into(out);
    out.push('|');
    stats.ttft_hist.encode_sparse_into(out);
}

fn parse_stats(fields: &[&str]) -> Option<AdmissionStats> {
    if fields.len() != 19 {
        return None;
    }
    let n = |i: usize| -> Option<u64> { fields[i].parse().ok() };
    let mut depth = Gauge::new();
    depth.set(n(8)?);
    depth.set(n(7)?);
    Some(AdmissionStats {
        submitted: n(1)?,
        enqueued: n(2)?,
        refused: n(3)?,
        shed: n(4)?,
        dispatched: n(5)?,
        batches: n(6)?,
        depth,
        wait_total: SimDuration::from_nanos(n(9)?),
        wait_max: SimDuration::from_nanos(n(10)?),
        deadlines_tracked: n(11)?,
        deadlines_met: n(12)?,
        deadlines_missed: n(13)?,
        ttft_samples: n(14)?,
        ttft_total: SimDuration::from_nanos(n(15)?),
        ttft_max: SimDuration::from_nanos(n(16)?),
        wait_hist: Histogram::decode_sparse(fields[17])?,
        ttft_hist: Histogram::decode_sparse(fields[18])?,
    })
}

impl<'a, Q, P> SnapshotView<'a, Q>
where
    Q: Iterator<Item = (&'a EntryStamp, P)>,
    P: Display,
{
    /// Appends the snapshot as framed lines ending in an `end` marker.
    pub fn encode_into(self, out: &mut String) {
        // Every line is written newline-terminated; the blob is
        // newline-separated, so the last terminator comes off at the end.
        fn line(out: &mut String, body: impl FnOnce(&mut String)) {
            frame_into(out, body);
            out.push('\n');
        }
        line(out, |body| {
            body.push_str("snap|");
            push_decimal(body, self.at.as_nanos());
            body.push('|');
            push_decimal(body, self.wal_offset);
            body.push('|');
            push_decimal(body, u64::from(self.next_ticket));
            body.push('|');
            push_decimal(body, u64::from(self.mode_rank));
        });
        for (stamp, payload) in self.queue {
            line(out, |body| {
                body.push_str("entry|");
                push_stamp(body, stamp);
                body.push('|');
                // Writing to a `String` cannot fail.
                let _ = write!(Escaped(body), "{payload}");
            });
        }
        line(out, |body| {
            body.push_str("completed|");
            self.completed.encode_into(body);
        });
        line(out, |body| {
            body.push_str("progress|");
            for (i, &(session, arrival)) in self.progress.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                push_decimal(body, u64::from(session));
                body.push(':');
                push_decimal(body, arrival);
            }
        });
        line(out, |body| {
            body.push_str("shards|");
            push_flags(body, self.quarantined);
            body.push('|');
            push_flags(body, self.kv_invalidated);
        });
        line(out, |body| push_stats(body, self.stats));
        line(out, |body| body.push_str("end"));
        out.pop();
    }
}

impl SnapshotData {
    /// Borrows the snapshot for encoding.
    pub fn view(&self) -> SnapshotView<'_, impl Iterator<Item = (&EntryStamp, &String)>> {
        SnapshotView {
            at: self.at,
            wal_offset: self.wal_offset,
            next_ticket: self.next_ticket,
            mode_rank: self.mode_rank,
            queue: self.queue.iter().map(|(stamp, payload)| (stamp, payload)),
            completed: &self.completed,
            progress: &self.progress,
            quarantined: &self.quarantined,
            kv_invalidated: &self.kv_invalidated,
            stats: &self.stats,
        }
    }

    /// Deserializes a snapshot blob, re-verifying every line's checksum.
    /// `None` means the snapshot is corrupt (any bad line, wrong ordering,
    /// or missing `end` marker) and must not be loaded.
    pub fn decode(blob: &str) -> Option<SnapshotData> {
        let mut lines = blob.lines();
        let head = unframe(lines.next()?)?;
        let head_fields = split_fields(head);
        if head_fields.len() != 5 || head_fields[0] != "snap" {
            return None;
        }
        let mut snapshot = SnapshotData {
            at: parse_instant(head_fields[1])?,
            wal_offset: head_fields[2].parse().ok()?,
            next_ticket: head_fields[3].parse().ok()?,
            mode_rank: head_fields[4].parse().ok()?,
            queue: Vec::new(),
            completed: TicketSet::new(),
            progress: Vec::new(),
            quarantined: Vec::new(),
            kv_invalidated: Vec::new(),
            stats: AdmissionStats::default(),
        };
        let mut saw_end = false;
        for line in lines {
            if saw_end {
                return None;
            }
            let body = unframe(line)?;
            let fields = split_fields(body);
            match fields.first().copied()? {
                "entry" if fields.len() == 7 => {
                    snapshot
                        .queue
                        .push((parse_stamp(&fields[1..6])?, unescape_field(fields[6])));
                }
                "completed" if fields.len() == 2 => {
                    snapshot.completed = TicketSet::decode(fields[1])?;
                }
                "progress" if fields.len() == 2 => {
                    if !fields[1].is_empty() {
                        for part in fields[1].split(',') {
                            let (session, arrival) = part.split_once(':')?;
                            snapshot
                                .progress
                                .push((session.parse().ok()?, arrival.parse().ok()?));
                        }
                    }
                }
                "shards" if fields.len() == 3 => {
                    snapshot.quarantined = parse_flags(fields[1])?;
                    snapshot.kv_invalidated = parse_flags(fields[2])?;
                }
                "stats" => snapshot.stats = parse_stats(&fields)?,
                "end" if fields.len() == 1 => saw_end = true,
                _ => return None,
            }
        }
        saw_end.then_some(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::{SessionId, TicketId};

    fn encoded(snapshot: &SnapshotData) -> String {
        let mut blob = String::new();
        snapshot.view().encode_into(&mut blob);
        blob
    }

    fn sample() -> SnapshotData {
        let mut stats = AdmissionStats {
            submitted: 10,
            enqueued: 8,
            refused: 1,
            shed: 1,
            dispatched: 6,
            batches: 2,
            wait_total: SimDuration::from_micros(40),
            wait_max: SimDuration::from_micros(12),
            deadlines_tracked: 5,
            deadlines_met: 4,
            deadlines_missed: 1,
            ttft_samples: 6,
            ttft_total: SimDuration::from_micros(90),
            ttft_max: SimDuration::from_micros(25),
            ..AdmissionStats::default()
        };
        stats.depth.set(3);
        stats.depth.set(2);
        stats.wait_hist.record(12_000);
        stats.wait_hist.record(3);
        stats.ttft_hist.record(25_000);
        SnapshotData {
            at: SimInstant::from_nanos(5_000),
            wal_offset: 17,
            next_ticket: 9,
            mode_rank: 1,
            queue: vec![
                (
                    EntryStamp {
                        ticket: TicketId::new(7),
                        session: SessionId::new(2),
                        class: 1,
                        arrival: SimInstant::from_nanos(4_000),
                        deadline: Some(SimInstant::from_nanos(9_000)),
                    },
                    "payload|with pipe".to_string(),
                ),
                (
                    EntryStamp {
                        ticket: TicketId::new(8),
                        session: SessionId::new(0),
                        class: 2,
                        arrival: SimInstant::from_nanos(4_500),
                        deadline: None,
                    },
                    String::new(),
                ),
            ],
            completed: [0, 1, 2, 3, 5].into_iter().collect(),
            progress: vec![(0, 1_200), (2, 3_400)],
            quarantined: vec![false, true, false],
            kv_invalidated: vec![true, false, false],
            stats,
        }
    }

    #[test]
    fn snapshots_round_trip() {
        let snapshot = sample();
        let blob = encoded(&snapshot);
        let decoded = SnapshotData::decode(&blob).expect("clean snapshot decodes");
        assert_eq!(decoded, snapshot);
    }

    /// The snapshot wire format is pinned. Every line but `completed|` is
    /// byte-for-byte what the pre-buffer encoder wrote for this sample;
    /// `completed|` carried `0,1,2,3,5` there and carries ranges now.
    #[test]
    fn framed_bytes_of_the_sample_are_pinned() {
        assert_eq!(
            encoded(&sample()),
            "8ae4c475|snap|5000|17|9|1\n\
             c75c3aa4|entry|7|2|1|4000|9000|payload\\pwith pipe\n\
             b0d8855f|entry|8|0|2|4500|-|\n\
             d2c745d6|completed|0-3,5\n\
             d2e95e40|progress|0:1200,2:3400\n\
             d79aadfa|shards|010|100\n\
             cd44ebd8|stats|10|8|1|1|6|2|2|3|40000|12000|5|4|1|6|90000|25000|12003;1:1,13:1|25000;14:1\n\
             00fc33b1|end"
        );
    }

    /// A snapshot written before the idempotency set became ranges lists
    /// one ticket per part; it must still load.
    #[test]
    fn a_legacy_completed_line_still_decodes() {
        let blob =
            encoded(&sample()).replace("d2c745d6|completed|0-3,5", "6a7b22b3|completed|0,3,5");
        let decoded = SnapshotData::decode(&blob).expect("legacy snapshot decodes");
        assert_eq!(decoded.completed.ranges(), &[(0, 0), (3, 3), (5, 5)]);
        // A malformed range invalidates the snapshot like any bad line.
        let mut bad = String::new();
        frame_into(&mut bad, |body| body.push_str("completed|5-3"));
        let blob = encoded(&sample()).replace("d2c745d6|completed|0-3,5", &bad);
        assert_eq!(SnapshotData::decode(&blob), None);
    }

    #[test]
    fn any_corruption_invalidates_the_whole_snapshot() {
        let blob = encoded(&sample());
        // Flip one byte somewhere in the middle.
        let mid = blob.len() / 2;
        let mut corrupt = String::new();
        for (i, c) in blob.chars().enumerate() {
            corrupt.push(if i == mid {
                if c == 'x' {
                    'y'
                } else {
                    'x'
                }
            } else {
                c
            });
        }
        assert_eq!(SnapshotData::decode(&corrupt), None);
        // A truncated snapshot (missing end marker) is also invalid.
        let cut = blob.rfind('\n').map(|i| &blob[..i]).unwrap_or("");
        assert_eq!(SnapshotData::decode(cut), None);
        assert_eq!(SnapshotData::decode(""), None);
    }

    #[test]
    fn empty_collections_round_trip() {
        let snapshot = SnapshotData {
            at: SimInstant::ZERO,
            wal_offset: 0,
            next_ticket: 0,
            mode_rank: 0,
            queue: Vec::new(),
            completed: TicketSet::new(),
            progress: Vec::new(),
            quarantined: Vec::new(),
            kv_invalidated: Vec::new(),
            stats: AdmissionStats::default(),
        };
        let decoded = SnapshotData::decode(&encoded(&snapshot));
        assert_eq!(decoded, Some(snapshot));
    }
}
