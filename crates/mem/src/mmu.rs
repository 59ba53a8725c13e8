//! Page tables, TLB and the executable-region lockdown.
//!
//! The paper's key memory-protection mechanism (§3.2) is that a hypervisor
//! core can "configure the model core's MMU such that the model cannot create
//! new executable pages or write to old executable pages", using cheap
//! base+bound tracking of valid executable regions. This prevents the model
//! from injecting new code at runtime for the purpose of recursive
//! self-improvement. The same mechanism also disallows configurations that
//! would give the model *read* access to executable regions, which blocks
//! introspection of its own weights-handling code.

use guillotine_types::{GuillotineError, Result};
use std::collections::BTreeMap;

/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 4096;

/// The kind of access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

/// Permissions attached to one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagePermissions {
    /// Page may be read.
    pub read: bool,
    /// Page may be written.
    pub write: bool,
    /// Page may be executed.
    pub execute: bool,
}

impl PagePermissions {
    /// Read+write data page.
    pub const RW: PagePermissions = PagePermissions {
        read: true,
        write: true,
        execute: false,
    };
    /// Read+execute code page (pre-lockdown).
    pub const RX: PagePermissions = PagePermissions {
        read: true,
        write: false,
        execute: true,
    };
    /// Execute-only code page (post-lockdown).
    pub const X: PagePermissions = PagePermissions {
        read: false,
        write: false,
        execute: true,
    };
    /// Read-only data page.
    pub const R: PagePermissions = PagePermissions {
        read: true,
        write: false,
        execute: false,
    };

    /// Returns true if this permission set allows `access`.
    pub fn allows(self, access: Access) -> bool {
        match access {
            Access::Read => self.read,
            Access::Write => self.write,
            Access::Execute => self.execute,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pte {
    ppage: u64,
    perms: PagePermissions,
}

/// Counters describing MMU activity, including blocked lockdown violations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmuStats {
    /// Successful translations.
    pub translations: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses (page-table walks).
    pub tlb_misses: u64,
    /// Accesses denied by page permissions.
    pub permission_faults: u64,
    /// Accesses to unmapped pages.
    pub unmapped_faults: u64,
    /// Mapping attempts rejected by the executable-region lockdown.
    pub lockdown_rejections: u64,
}

/// A per-core MMU: page table, small TLB and the executable-region lockdown.
#[derive(Debug, Clone)]
pub struct Mmu {
    table: BTreeMap<u64, Pte>,
    tlb: Vec<(u64, Pte)>,
    tlb_capacity: usize,
    page_walk_latency: u64,
    locked: bool,
    locked_exec_pages: Vec<u64>,
    stats: MmuStats,
}

impl Default for Mmu {
    fn default() -> Self {
        Mmu::new()
    }
}

impl Mmu {
    /// Creates an empty MMU with a 64-entry TLB and 20-cycle page walks.
    pub fn new() -> Self {
        Mmu {
            table: BTreeMap::new(),
            tlb: Vec::new(),
            tlb_capacity: 64,
            page_walk_latency: 20,
            locked: false,
            locked_exec_pages: Vec::new(),
            stats: MmuStats::default(),
        }
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> MmuStats {
        self.stats
    }

    /// Returns true once [`Mmu::lock_executable_regions`] has been called.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Number of pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }

    /// Maps the virtual page containing `vaddr` to the physical page
    /// containing `paddr` with the given permissions.
    ///
    /// After lockdown, requests that would create a new executable page, or
    /// add write or read permission to a locked executable page, are rejected
    /// with [`GuillotineError::MemoryFault`] and counted.
    pub fn map(&mut self, vaddr: u64, paddr: u64, perms: PagePermissions) -> Result<()> {
        let vpage = vaddr / PAGE_SIZE;
        let ppage = paddr / PAGE_SIZE;
        if self.locked {
            let was_locked_exec = self.locked_exec_pages.contains(&vpage);
            if perms.execute && !was_locked_exec {
                self.stats.lockdown_rejections += 1;
                return Err(GuillotineError::MemoryFault {
                    addr: vaddr,
                    reason: "lockdown: cannot create new executable pages".into(),
                });
            }
            if was_locked_exec && (perms.write || perms.read) {
                self.stats.lockdown_rejections += 1;
                return Err(GuillotineError::MemoryFault {
                    addr: vaddr,
                    reason: "lockdown: executable pages are execute-only".into(),
                });
            }
        }
        self.table.insert(vpage, Pte { ppage, perms });
        self.tlb.retain(|(v, _)| *v != vpage);
        Ok(())
    }

    /// Identity-maps the address range `[start, start+len)` with `perms`.
    pub fn identity_map(&mut self, start: u64, len: u64, perms: PagePermissions) -> Result<()> {
        let first = start / PAGE_SIZE;
        let last = (start + len.max(1) - 1) / PAGE_SIZE;
        for page in first..=last {
            self.map(page * PAGE_SIZE, page * PAGE_SIZE, perms)?;
        }
        Ok(())
    }

    /// Removes the mapping for the page containing `vaddr`.
    pub fn unmap(&mut self, vaddr: u64) -> Result<()> {
        let vpage = vaddr / PAGE_SIZE;
        if self.locked && self.locked_exec_pages.contains(&vpage) {
            self.stats.lockdown_rejections += 1;
            return Err(GuillotineError::MemoryFault {
                addr: vaddr,
                reason: "lockdown: cannot unmap locked executable pages".into(),
            });
        }
        self.table.remove(&vpage);
        self.tlb.retain(|(v, _)| *v != vpage);
        Ok(())
    }

    /// Locks all currently executable pages per §3.2.
    ///
    /// From this point on the model cannot create new executable pages, and
    /// the existing executable pages become execute-only (their read and
    /// write bits are cleared). Returns the number of pages locked.
    pub fn lock_executable_regions(&mut self) -> usize {
        self.locked = true;
        self.locked_exec_pages.clear();
        for (vpage, pte) in self.table.iter_mut() {
            if pte.perms.execute {
                pte.perms = PagePermissions::X;
                self.locked_exec_pages.push(*vpage);
            }
        }
        self.tlb.clear();
        self.locked_exec_pages.len()
    }

    /// Translates `vaddr` for `access`, returning the physical address and
    /// the translation latency in cycles.
    pub fn translate(&mut self, vaddr: u64, access: Access) -> Result<(u64, u64)> {
        let vpage = vaddr / PAGE_SIZE;
        let offset = vaddr % PAGE_SIZE;

        let (pte, latency) = if let Some((_, pte)) = self.tlb.iter().find(|(v, _)| *v == vpage) {
            self.stats.tlb_hits += 1;
            (*pte, 0)
        } else {
            self.stats.tlb_misses += 1;
            match self.table.get(&vpage) {
                Some(pte) => {
                    let pte = *pte;
                    if self.tlb.len() >= self.tlb_capacity {
                        self.tlb.remove(0);
                    }
                    self.tlb.push((vpage, pte));
                    (pte, self.page_walk_latency)
                }
                None => {
                    self.stats.unmapped_faults += 1;
                    return Err(GuillotineError::MemoryFault {
                        addr: vaddr,
                        reason: "unmapped page".into(),
                    });
                }
            }
        };

        if !pte.perms.allows(access) {
            self.stats.permission_faults += 1;
            return Err(GuillotineError::MemoryFault {
                addr: vaddr,
                reason: format!("permission denied for {access:?}"),
            });
        }
        self.stats.translations += 1;
        Ok((pte.ppage * PAGE_SIZE + offset, latency))
    }

    /// Flushes the TLB (part of clearing microarchitectural state, §3.2).
    pub fn flush_tlb(&mut self) -> usize {
        let n = self.tlb.len();
        self.tlb.clear();
        n
    }

    /// Returns the permissions of the page containing `vaddr`, if mapped.
    pub fn permissions_of(&self, vaddr: u64) -> Option<PagePermissions> {
        self.table.get(&(vaddr / PAGE_SIZE)).map(|p| p.perms)
    }

    /// Returns the locked executable page indices (for attestation
    /// measurements).
    pub fn locked_pages(&self) -> &[u64] {
        &self.locked_exec_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_respects_permissions() {
        let mut m = Mmu::new();
        m.map(0x1000, 0x8000, PagePermissions::RW).unwrap();
        let (p, _) = m.translate(0x1004, Access::Read).unwrap();
        assert_eq!(p, 0x8004);
        assert!(m.translate(0x1004, Access::Execute).is_err());
        assert_eq!(m.stats().permission_faults, 1);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = Mmu::new();
        assert!(m.translate(0x9999, Access::Read).is_err());
        assert_eq!(m.stats().unmapped_faults, 1);
    }

    #[test]
    fn tlb_hits_after_first_walk() {
        let mut m = Mmu::new();
        m.identity_map(0, 2 * PAGE_SIZE, PagePermissions::RW)
            .unwrap();
        let (_, lat1) = m.translate(0x10, Access::Read).unwrap();
        let (_, lat2) = m.translate(0x18, Access::Read).unwrap();
        assert!(lat1 > 0);
        assert_eq!(lat2, 0);
        assert_eq!(m.stats().tlb_hits, 1);
        assert_eq!(m.stats().tlb_misses, 1);
    }

    #[test]
    fn lockdown_blocks_new_executable_pages() {
        let mut m = Mmu::new();
        m.map(0x0000, 0x0000, PagePermissions::RX).unwrap();
        m.map(0x2000, 0x2000, PagePermissions::RW).unwrap();
        let locked = m.lock_executable_regions();
        assert_eq!(locked, 1);
        let err = m.map(0x3000, 0x3000, PagePermissions::RX).unwrap_err();
        assert!(err.to_string().contains("new executable"));
        assert_eq!(m.stats().lockdown_rejections, 1);
    }

    #[test]
    fn lockdown_makes_code_execute_only() {
        let mut m = Mmu::new();
        m.map(0x0000, 0x0000, PagePermissions::RX).unwrap();
        m.lock_executable_regions();
        // Execution still works.
        assert!(m.translate(0x0004, Access::Execute).is_ok());
        // Reads and writes of code are now denied.
        assert!(m.translate(0x0004, Access::Read).is_err());
        assert!(m.translate(0x0004, Access::Write).is_err());
        // Remapping code as writable is rejected.
        assert!(m.map(0x0000, 0x0000, PagePermissions::RW).is_err());
        // Unmapping code (to remap later) is rejected too.
        assert!(m.unmap(0x0000).is_err());
    }

    #[test]
    fn lockdown_leaves_data_pages_usable() {
        let mut m = Mmu::new();
        m.map(0x0000, 0x0000, PagePermissions::RX).unwrap();
        m.map(0x2000, 0x8000, PagePermissions::RW).unwrap();
        m.lock_executable_regions();
        assert!(m.translate(0x2008, Access::Write).is_ok());
        // New non-executable mappings remain allowed.
        assert!(m.map(0x5000, 0x9000, PagePermissions::RW).is_ok());
    }

    #[test]
    fn flush_tlb_forces_rewalk() {
        let mut m = Mmu::new();
        m.identity_map(0, PAGE_SIZE, PagePermissions::RW).unwrap();
        m.translate(0, Access::Read).unwrap();
        assert_eq!(m.flush_tlb(), 1);
        let (_, lat) = m.translate(0, Access::Read).unwrap();
        assert!(lat > 0);
    }

    #[test]
    fn permissions_of_reports_current_state() {
        let mut m = Mmu::new();
        m.map(0x4000, 0x4000, PagePermissions::RX).unwrap();
        assert_eq!(m.permissions_of(0x4abc), Some(PagePermissions::RX));
        m.lock_executable_regions();
        assert_eq!(m.permissions_of(0x4abc), Some(PagePermissions::X));
        assert_eq!(m.permissions_of(0xF000), None);
    }
}
