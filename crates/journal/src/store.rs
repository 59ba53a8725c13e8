//! The journal store: one WAL plus the snapshot chain, and the recovery
//! procedure that turns them back into control-plane state.

use crate::snapshot::{SnapshotData, SnapshotView};
use crate::wal::{WalRecord, WriteAheadLog};
use guillotine_admit::EntryStamp;
use guillotine_types::{SimDuration, SimInstant};
use std::fmt::{Display, Write};

/// Simulated cost of loading one snapshot byte at recovery.
pub const SNAPSHOT_LOAD_NS_PER_BYTE: u64 = 2;

/// Simulated cost of replaying one WAL record at recovery.
pub const WAL_REPLAY_NS_PER_RECORD: u64 = 400;

/// Journal configuration carried by the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Simulated time between snapshots. `None` disables snapshotting
    /// entirely: recovery replays the whole WAL from the beginning, so
    /// recovery time grows with total history instead of the suffix.
    pub snapshot_interval: Option<SimDuration>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            snapshot_interval: Some(SimDuration::from_millis(1)),
        }
    }
}

/// The durable side of the control plane: the WAL and the snapshot chain,
/// both modeled as the bytes a recovery would read back.
#[derive(Debug, Clone, Default)]
pub struct JournalStore {
    wal: WriteAheadLog,
    snapshots: Vec<Box<str>>,
    /// Encode buffer reused by every snapshot, so a persisted blob is one
    /// exact-sized allocation (the chain is kept; slack would add up).
    scratch: String,
}

/// What recovery reconstructed from the store, before the control plane
/// maps it back onto live state.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The latest valid snapshot, if any survived.
    pub snapshot: Option<SnapshotData>,
    /// The WAL suffix after the snapshot's offset (the whole log when no
    /// snapshot was usable), already checksum-verified.
    pub suffix: Vec<WalRecord>,
    /// Unreadable trailing WAL lines truncated (torn tail).
    pub torn_truncated: u64,
    /// Corrupt snapshots skipped before a valid one was found.
    pub snapshots_skipped: u64,
    /// Simulated downtime the recovery costs: snapshot bytes loaded plus
    /// WAL records replayed, under the fixed per-unit costs.
    pub replay_cost: SimDuration,
}

impl JournalStore {
    /// An empty store.
    pub fn new() -> Self {
        JournalStore::default()
    }

    /// Commits one WAL record; returns its index.
    pub fn append(&mut self, record: &WalRecord) -> u64 {
        self.wal.append(record)
    }

    /// Commits one enqueue record from a lent payload (see
    /// [`WriteAheadLog::append_enqueue`]); returns its index.
    pub fn append_enqueue(&mut self, stamp: &EntryStamp, payload: impl Display) -> u64 {
        self.wal.append_enqueue(stamp, payload)
    }

    /// Number of committed WAL records.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// The WAL, for inspection and fault injection.
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Number of snapshots taken (including corrupt ones).
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// The newest snapshot's bytes (corrupt or not), if any was taken.
    pub fn latest_snapshot(&self) -> Option<&str> {
        self.snapshots.last().map(|blob| blob.as_ref())
    }

    /// Persists one snapshot at the end of the chain.
    pub fn take_snapshot<'a, Q, P>(&mut self, view: SnapshotView<'a, Q>)
    where
        Q: Iterator<Item = (&'a EntryStamp, P)>,
        P: Display,
    {
        self.scratch.clear();
        view.encode_into(&mut self.scratch);
        self.snapshots.push(self.scratch.as_str().into());
    }

    /// Simulates at-rest corruption of the latest snapshot: the character
    /// at the middle of the blob is overwritten, which recovery must detect
    /// by checksum. Returns false when there is no snapshot to corrupt.
    pub fn corrupt_latest_snapshot(&mut self) -> bool {
        let Some(blob) = self.snapshots.last_mut() else {
            return false;
        };
        // The byte midpoint, moved back onto a character boundary: a queue
        // of multi-byte prompts puts most of the blob's bytes inside
        // characters.
        let mut mid = blob.len() / 2;
        while !blob.is_char_boundary(mid) {
            mid -= 1;
        }
        let Some(victim) = blob[mid..].chars().next() else {
            return false;
        };
        let flipped = if victim == '#' { "%" } else { "#" };
        self.scratch.clear();
        self.scratch.push_str(&blob[..mid]);
        self.scratch.push_str(flipped);
        self.scratch.push_str(&blob[mid + victim.len_utf8()..]);
        *blob = self.scratch.as_str().into();
        true
    }

    /// Simulates a torn WAL append (see [`WriteAheadLog::tear`]).
    pub fn tear_wal(&mut self) {
        self.wal.tear();
    }

    /// Runs recovery against the store: walk the snapshot chain newest to
    /// oldest until one decodes cleanly, then replay the WAL suffix from
    /// its offset, truncating a torn tail at the first bad checksum.
    pub fn recover(&self) -> Recovered {
        let mut snapshots_skipped = 0u64;
        let mut snapshot = None;
        let mut loaded_bytes = 0u64;
        for blob in self.snapshots.iter().rev() {
            // Every candidate snapshot read costs load time, valid or not.
            loaded_bytes += blob.len() as u64;
            match SnapshotData::decode(blob) {
                Some(data) => {
                    snapshot = Some(data);
                    break;
                }
                None => snapshots_skipped += 1,
            }
        }
        let offset = snapshot.as_ref().map_or(0, |s| s.wal_offset);
        let scan = self.wal.replay_from(offset);
        let cost_ns = loaded_bytes * SNAPSHOT_LOAD_NS_PER_BYTE
            + scan.records.len() as u64 * WAL_REPLAY_NS_PER_RECORD;
        Recovered {
            snapshot,
            suffix: scan.records,
            torn_truncated: scan.truncated,
            snapshots_skipped,
            replay_cost: SimDuration::from_nanos(cost_ns),
        }
    }

    /// The WAL file bytes, for CI artifact dumps.
    pub fn dump_wal(&self) -> String {
        self.wal.bytes()
    }

    /// The snapshot chain, for CI artifact dumps: blobs separated by a
    /// `--- snapshot N ---` header line each.
    pub fn dump_snapshots(&self) -> String {
        // audit:allow(no-string-alloc, CI artifact dump, off the snapshot path)
        let mut out = String::new();
        for (i, blob) in self.snapshots.iter().enumerate() {
            // Writing to a `String` cannot fail.
            let _ = writeln!(out, "--- snapshot {i} ---\n{blob}");
        }
        out
    }
}

/// A deterministic instant helper for recovery accounting: where the fleet
/// clock lands after paying the replay cost.
pub fn downtime_end(crash_at: SimInstant, recovered: &Recovered) -> SimInstant {
    crash_at + recovered.replay_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket_set::TicketSet;
    use guillotine_admit::AdmissionStats;
    use guillotine_types::{SessionId, TicketId};

    fn stamp(ticket: u32) -> EntryStamp {
        EntryStamp {
            ticket: TicketId::new(ticket),
            session: SessionId::new(ticket % 3),
            class: 1,
            arrival: SimInstant::from_nanos(u64::from(ticket) * 100),
            deadline: None,
        }
    }

    fn enqueue(ticket: u32) -> WalRecord {
        WalRecord::Enqueue {
            stamp: stamp(ticket),
            payload: format!("req {ticket}"),
        }
    }

    fn snapshot_at(wal_offset: u64) -> SnapshotData {
        SnapshotData {
            at: SimInstant::from_nanos(wal_offset * 100),
            wal_offset,
            next_ticket: wal_offset as u32,
            mode_rank: 0,
            queue: Vec::new(),
            completed: TicketSet::new(),
            progress: Vec::new(),
            quarantined: Vec::new(),
            kv_invalidated: Vec::new(),
            stats: AdmissionStats::default(),
        }
    }

    #[test]
    fn recovery_replays_only_the_suffix_after_the_latest_snapshot() {
        let mut store = JournalStore::new();
        for i in 0..6 {
            store.append(&enqueue(i));
        }
        store.take_snapshot(snapshot_at(6).view());
        for i in 6..10 {
            store.append(&enqueue(i));
        }
        let recovered = store.recover();
        assert_eq!(recovered.snapshots_skipped, 0);
        assert_eq!(recovered.suffix.len(), 4, "replay starts at the snapshot");
        assert!(recovered.snapshot.is_some());
        assert!(recovered.replay_cost > SimDuration::ZERO);
    }

    #[test]
    fn corrupt_snapshots_are_skipped_for_older_valid_ones() {
        let mut store = JournalStore::new();
        for i in 0..4 {
            store.append(&enqueue(i));
        }
        store.take_snapshot(snapshot_at(2).view());
        store.take_snapshot(snapshot_at(4).view());
        assert!(store.corrupt_latest_snapshot());
        let recovered = store.recover();
        assert_eq!(recovered.snapshots_skipped, 1);
        let snapshot = recovered.snapshot.expect("older snapshot still valid");
        assert_eq!(snapshot.wal_offset, 2);
        assert_eq!(recovered.suffix.len(), 2);
    }

    #[test]
    fn a_snapshot_of_multi_byte_prompts_is_still_corrupted() {
        // More than half the blob's bytes are UTF-8 continuation bytes, so
        // its byte midpoint is past its last *character* index: the fault
        // used to flip nothing and report success.
        let mut store = JournalStore::new();
        store.take_snapshot(snapshot_at(0).view());
        let mut crowded = snapshot_at(1);
        crowded.queue = (0..4)
            .map(|ticket| (stamp(ticket), "提示词漢字".repeat(40)))
            .collect();
        store.take_snapshot(crowded.view());
        let before = store.latest_snapshot().map(str::to_owned);
        assert!(store.corrupt_latest_snapshot());
        assert_ne!(store.latest_snapshot().map(str::to_owned), before);
        let recovered = store.recover();
        assert_eq!(
            recovered.snapshots_skipped, 1,
            "the corrupt blob is skipped"
        );
        assert_eq!(recovered.snapshot.expect("older snapshot").wal_offset, 0);
    }

    #[test]
    fn recovery_without_snapshots_replays_the_entire_wal() {
        let mut store = JournalStore::new();
        for i in 0..5 {
            store.append(&enqueue(i));
        }
        store.tear_wal();
        let recovered = store.recover();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.suffix.len(), 5);
        assert_eq!(recovered.torn_truncated, 1);
        assert!(!store.corrupt_latest_snapshot(), "no snapshot exists");
    }

    #[test]
    fn replay_cost_scales_with_suffix_not_history() {
        // Same history length; one store snapshots late, one never does.
        let mut with_snapshot = JournalStore::new();
        let mut without = JournalStore::new();
        for i in 0..50 {
            with_snapshot.append(&enqueue(i));
            without.append(&enqueue(i));
        }
        with_snapshot.take_snapshot(snapshot_at(48).view());
        for i in 50..52 {
            with_snapshot.append(&enqueue(i));
            without.append(&enqueue(i));
        }
        let a = with_snapshot.recover();
        let b = without.recover();
        assert_eq!(a.suffix.len(), 4);
        assert_eq!(b.suffix.len(), 52);
        assert!(
            a.replay_cost < b.replay_cost,
            "snapshotted recovery must be cheaper: {} vs {}",
            a.replay_cost,
            b.replay_cost
        );
    }
}
