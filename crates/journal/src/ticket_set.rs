//! The idempotency set: which tickets have completed toward a caller.
//!
//! Tickets are minted sequentially and complete roughly in order, so the
//! set is "everything below a low-water mark plus a few stragglers". It is
//! held as sorted, disjoint, non-adjacent inclusive ranges — one to three
//! of them in steady state, one more per shed ticket (a shed ticket never
//! completes, so it stays a gap) — which makes membership a binary search
//! and the snapshot's `completed|` line a function of the *gaps*, not of
//! how many tickets the door has ever served.

use guillotine_types::encode::push_decimal;

/// A set of raw ticket ids, stored as inclusive ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TicketSet {
    /// Sorted by `lo`; for consecutive ranges `a`, `b`: `a.1 + 1 < b.0`.
    ranges: Vec<(u32, u32)>,
}

impl TicketSet {
    /// The empty set.
    pub fn new() -> Self {
        TicketSet::default()
    }

    /// Adds `ticket`; false when it was already present (the
    /// double-completion signal the `double_serves` witness counts).
    pub fn insert(&mut self, ticket: u32) -> bool {
        let fresh = !self.contains(ticket);
        if fresh {
            self.insert_range(ticket, ticket);
        }
        fresh
    }

    /// Whether `ticket` is in the set.
    pub fn contains(&self, ticket: u32) -> bool {
        let at = self.ranges.partition_point(|&(_, hi)| hi < ticket);
        self.ranges.get(at).is_some_and(|&(lo, _)| lo <= ticket)
    }

    /// Number of tickets in the set.
    pub fn len(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| u64::from(hi - lo) + 1)
            .sum()
    }

    /// True when no ticket has been inserted.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// The ranges, sorted, disjoint and non-adjacent, bounds inclusive.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Appends the wire form: comma-separated `lo-hi` ranges, a
    /// single-ticket range as just `lo`.
    pub fn encode_into(&self, out: &mut String) {
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_decimal(out, u64::from(lo));
            if hi != lo {
                out.push('-');
                push_decimal(out, u64::from(hi));
            }
        }
    }

    /// Decodes [`TicketSet::encode_into`] output. Parts may come in any
    /// order and may touch or overlap, so the comma-separated ticket list
    /// older snapshots carry decodes too. `None` on a non-numeric part or
    /// a range with `hi < lo`.
    pub fn decode(text: &str) -> Option<TicketSet> {
        let mut set = TicketSet::new();
        if text.is_empty() {
            return Some(set);
        }
        for part in text.split(',') {
            let (lo, hi) = match part.split_once('-') {
                Some((lo, hi)) => (lo.parse().ok()?, hi.parse().ok()?),
                None => {
                    let ticket = part.parse().ok()?;
                    (ticket, ticket)
                }
            };
            if hi < lo {
                return None;
            }
            set.insert_range(lo, hi);
        }
        Some(set)
    }

    /// Adds every ticket in `lo..=hi` (`lo <= hi`), merging whatever the
    /// new range touches.
    fn insert_range(&mut self, lo: u32, hi: u32) {
        // Ranges strictly below (not even adjacent to) the new one stay;
        // so do ranges strictly above. Everything between is absorbed.
        let first = self
            .ranges
            .partition_point(|&(_, end)| end < lo.saturating_sub(1));
        let last = self
            .ranges
            .partition_point(|&(start, _)| start <= hi.saturating_add(1));
        let merged = self.ranges[first..last]
            .iter()
            .fold((lo, hi), |(a, b), &(start, end)| (a.min(start), b.max(end)));
        self.ranges.splice(first..last, [merged]);
    }
}

impl FromIterator<u32> for TicketSet {
    fn from_iter<I: IntoIterator<Item = u32>>(tickets: I) -> Self {
        let mut set = TicketSet::new();
        for ticket in tickets {
            set.insert(ticket);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(set: &TicketSet) -> String {
        let mut out = String::new();
        set.encode_into(&mut out);
        out
    }

    #[test]
    fn sequential_completions_stay_one_range() {
        let mut set = TicketSet::new();
        for ticket in 0..1000 {
            assert!(set.insert(ticket));
        }
        assert_eq!(set.ranges(), &[(0, 999)]);
        assert_eq!(set.len(), 1000);
        assert!(!set.insert(500), "a repeat is reported");
        assert_eq!(encoded(&set), "0-999");
    }

    #[test]
    fn stragglers_open_gaps_and_close_them() {
        let mut set: TicketSet = [0, 1, 2, 5, 7].into_iter().collect();
        assert_eq!(set.ranges(), &[(0, 2), (5, 5), (7, 7)]);
        assert_eq!(encoded(&set), "0-2,5,7");
        assert!(set.contains(5) && !set.contains(6) && !set.contains(3));
        assert!(set.insert(6), "closing a gap merges both neighbours");
        assert_eq!(set.ranges(), &[(0, 2), (5, 7)]);
        assert!(set.insert(4));
        assert!(set.insert(3));
        assert_eq!(set.ranges(), &[(0, 7)]);
    }

    #[test]
    fn the_extremes_do_not_overflow() {
        let mut set = TicketSet::new();
        assert!(set.insert(u32::MAX));
        assert!(set.insert(0));
        assert!(set.insert(u32::MAX - 1));
        assert!(!set.insert(u32::MAX));
        assert!(!set.insert(0));
        assert_eq!(set.ranges(), &[(0, 0), (u32::MAX - 1, u32::MAX)]);
        assert_eq!(TicketSet::decode(&encoded(&set)), Some(set));
    }

    #[test]
    fn decode_accepts_legacy_lists_and_rejects_garbage() {
        // What a pre-range snapshot wrote: one ticket per part.
        let legacy = TicketSet::decode("0,3,5").expect("legacy list decodes");
        assert_eq!(legacy.ranges(), &[(0, 0), (3, 3), (5, 5)]);
        let dense = TicketSet::decode("0,1,2,3").expect("legacy list decodes");
        assert_eq!(dense.ranges(), &[(0, 3)]);
        // Mixed, unordered and overlapping parts normalise.
        let mixed = TicketSet::decode("7,3-9,0-1,2").expect("mixed parts decode");
        assert_eq!(mixed.ranges(), &[(0, 9)]);
        assert_eq!(TicketSet::decode(""), Some(TicketSet::new()));
        for bad in ["9-3", "x", "1-", "-1", "1-2-3", "1,,2", "4294967296"] {
            assert_eq!(TicketSet::decode(bad), None, "{bad:?}");
        }
    }
}
