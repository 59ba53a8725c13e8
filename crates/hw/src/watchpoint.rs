//! Hardware watchpoints on model code and data.
//!
//! The paper (§3.2) lists "set watchpoints on model code or memory locations"
//! among the management-bus affordances of a hypervisor core. Watchpoints are
//! evaluated by the model-core bus adapter on every access, so they fire even
//! when the model tries to be sneaky about how it touches an address.

use guillotine_types::WatchpointId;

/// What kind of accesses a watchpoint fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchpointKind {
    /// Fire on data reads.
    Read,
    /// Fire on data writes.
    Write,
    /// Fire on instruction fetches.
    Execute,
    /// Fire on any access.
    Any,
}

/// A single hardware watchpoint over a byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchpoint {
    /// Identifier assigned by the machine.
    pub id: WatchpointId,
    /// First address covered (inclusive).
    pub start: u64,
    /// Last address covered (inclusive).
    pub end: u64,
    /// Which access kinds trigger it.
    pub kind: WatchpointKind,
}

impl Watchpoint {
    /// Creates a watchpoint over `[start, end]`.
    pub fn new(id: WatchpointId, start: u64, end: u64, kind: WatchpointKind) -> Self {
        Watchpoint {
            id,
            start: start.min(end),
            end: end.max(start),
            kind,
        }
    }

    /// Returns true if an access of `access_kind` touching `[addr, addr+len)`
    /// triggers this watchpoint.
    pub fn matches(&self, addr: u64, len: u64, access_kind: WatchpointKind) -> bool {
        let kind_ok = matches!(self.kind, WatchpointKind::Any)
            || matches!(access_kind, WatchpointKind::Any)
            || self.kind == access_kind;
        if !kind_ok {
            return false;
        }
        let last = addr.saturating_add(len.max(1)) - 1;
        !(last < self.start || addr > self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(start: u64, end: u64, kind: WatchpointKind) -> Watchpoint {
        Watchpoint::new(WatchpointId::new(1), start, end, kind)
    }

    #[test]
    fn range_overlap_detection() {
        let w = wp(0x100, 0x1FF, WatchpointKind::Any);
        assert!(w.matches(0x100, 1, WatchpointKind::Read));
        assert!(w.matches(0x1FF, 1, WatchpointKind::Write));
        assert!(
            w.matches(0x0F0, 0x20, WatchpointKind::Read),
            "straddles start"
        );
        assert!(!w.matches(0x200, 8, WatchpointKind::Read));
        assert!(!w.matches(0x0F0, 0x10, WatchpointKind::Read));
    }

    #[test]
    fn kind_filtering() {
        let w = wp(0, 0xFF, WatchpointKind::Write);
        assert!(w.matches(0x10, 8, WatchpointKind::Write));
        assert!(!w.matches(0x10, 8, WatchpointKind::Read));
        assert!(w.matches(0x10, 8, WatchpointKind::Any));
    }

    #[test]
    fn constructor_normalises_range() {
        let w = Watchpoint::new(WatchpointId::new(2), 0x200, 0x100, WatchpointKind::Read);
        assert_eq!(w.start, 0x100);
        assert_eq!(w.end, 0x200);
    }
}
