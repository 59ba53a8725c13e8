//! Property tests: [`TicketSet`] is exactly a `BTreeSet<u32>` — same
//! `insert` answers (the `double_serves` witness hangs off them), same
//! membership and size — while its representation stays canonical and its
//! wire form round-trips, for arbitrary insert orders.

use guillotine_journal::TicketSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Tickets drawn from three tight clusters — around zero, around the top
/// of the range, and a dense middle — so repeats, adjacent inserts and
/// gap-closing inserts are all frequent and both extremes are reached.
fn tickets() -> impl Strategy<Value = Vec<u32>> {
    collection::vec(
        prop_oneof![0u32..12, (u32::MAX - 11)..=u32::MAX, 1_000u32..1_040],
        0..120,
    )
}

fn encoded(set: &TicketSet) -> String {
    let mut out = String::new();
    set.encode_into(&mut out);
    out
}

proptest! {
    #[test]
    fn ticket_set_behaves_like_a_btree_set(tickets in tickets()) {
        let mut set = TicketSet::new();
        let mut oracle = BTreeSet::new();
        for &ticket in &tickets {
            prop_assert_eq!(set.insert(ticket), oracle.insert(ticket), "insert {}", ticket);
            prop_assert_eq!(set.len(), oracle.len() as u64);
            // Sorted, disjoint and non-adjacent after every step: the
            // representation of a given set is unique.
            for range in set.ranges() {
                prop_assert!(range.0 <= range.1, "{:?}", set.ranges());
            }
            for pair in set.ranges().windows(2) {
                prop_assert!(
                    u64::from(pair[0].1) + 1 < u64::from(pair[1].0),
                    "{:?}",
                    set.ranges()
                );
            }
        }
        prop_assert_eq!(set.is_empty(), oracle.is_empty());
        for probe in tickets.iter().flat_map(|&t| [t.wrapping_sub(1), t, t.wrapping_add(1)]) {
            prop_assert_eq!(set.contains(probe), oracle.contains(&probe), "contains {}", probe);
        }
        // The ranges cover exactly the oracle's members.
        let members: Vec<u32> = set.ranges().iter().flat_map(|&(lo, hi)| lo..=hi).collect();
        prop_assert_eq!(members, oracle.iter().copied().collect::<Vec<u32>>());
    }

    #[test]
    fn the_wire_form_round_trips_and_reads_legacy_lists(tickets in tickets()) {
        let set: TicketSet = tickets.iter().copied().collect();
        prop_assert_eq!(TicketSet::decode(&encoded(&set)), Some(set.clone()));
        // What a pre-range snapshot wrote for the same set: every ticket
        // on its own, in whatever order.
        let legacy: Vec<String> = tickets.iter().map(|t| t.to_string()).collect();
        prop_assert_eq!(TicketSet::decode(&legacy.join(",")), Some(set));
    }
}
