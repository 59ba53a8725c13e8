//! Model cores: the CPUs that run sandboxed model code.

use crate::watchpoint::Watchpoint;
use guillotine_isa::CpuState;
use guillotine_types::{CoreId, WatchpointId};

/// Power and run state of a model core, as controlled over the management
/// bus (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorePowerState {
    /// The core is powered and free-running (subject to the run budget the
    /// hypervisor grants per scheduling quantum).
    Running,
    /// The core is powered but halted by the hypervisor; its ISA state can be
    /// inspected and modified.
    Paused,
    /// The core executed `wfi` or is blocked on an IO response.
    WaitingForIo,
    /// The core is powered down; registers are lost.
    PoweredDown,
}

/// One model core: architectural CPU state plus management metadata.
///
/// The core deliberately does *not* own its memory: all model cores of a
/// machine share the model-domain memory system, and the wiring lives in
/// [`crate::machine::Machine`] so the hypervisor's private bus can reach the
/// same DRAM.
#[derive(Debug, Clone)]
pub struct ModelCore {
    id: CoreId,
    cpu: CpuState,
    power: CorePowerState,
    watchpoints: Vec<Watchpoint>,
    next_watchpoint: u32,
    faults: u64,
    watchpoint_hits: u64,
}

impl ModelCore {
    /// Creates a powered-down model core.
    pub fn new(id: CoreId) -> Self {
        let mut cpu = CpuState::new(0);
        cpu.set_core_id(id.raw() as u64);
        ModelCore {
            id,
            cpu,
            power: CorePowerState::PoweredDown,
            watchpoints: Vec::new(),
            next_watchpoint: 0,
            faults: 0,
            watchpoint_hits: 0,
        }
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The current power/run state.
    pub fn power_state(&self) -> CorePowerState {
        self.power
    }

    /// Sets the power/run state (management-bus use only).
    pub fn set_power_state(&mut self, state: CorePowerState) {
        self.power = state;
    }

    /// Immutable access to the architectural state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// Mutable access to the architectural state (management-bus use only).
    pub fn cpu_mut(&mut self) -> &mut CpuState {
        &mut self.cpu
    }

    /// Resets the architectural state and jumps to `entry` (used when a model
    /// image is loaded onto the core).
    pub fn reset(&mut self, entry: u64) {
        let id = self.id;
        self.cpu = CpuState::new(entry);
        self.cpu.set_core_id(id.raw() as u64);
        self.power = CorePowerState::Paused;
    }

    /// Installs a watchpoint and returns its id.
    pub fn add_watchpoint(&mut self, mut wp: Watchpoint) -> WatchpointId {
        let id = WatchpointId::new(self.next_watchpoint);
        self.next_watchpoint += 1;
        wp.id = id;
        self.watchpoints.push(wp);
        id
    }

    /// Removes a watchpoint; returns true if it existed.
    pub fn remove_watchpoint(&mut self, id: WatchpointId) -> bool {
        let before = self.watchpoints.len();
        self.watchpoints.retain(|w| w.id != id);
        self.watchpoints.len() != before
    }

    /// The active watchpoints.
    pub fn watchpoints(&self) -> &[Watchpoint] {
        &self.watchpoints
    }

    /// Counts a fault attributed to this core.
    pub fn record_fault(&mut self) {
        self.faults += 1;
    }

    /// Counts a watchpoint hit.
    pub fn record_watchpoint_hit(&mut self) {
        self.watchpoint_hits += 1;
    }

    /// Total faults this core has raised.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Total watchpoint hits on this core.
    pub fn watchpoint_hit_count(&self) -> u64 {
        self.watchpoint_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchpoint::WatchpointKind;

    #[test]
    fn new_core_is_powered_down() {
        let c = ModelCore::new(CoreId::new(2));
        assert_eq!(c.power_state(), CorePowerState::PoweredDown);
        assert_eq!(c.id(), CoreId::new(2));
    }

    #[test]
    fn reset_sets_entry_and_core_id_csr() {
        let mut c = ModelCore::new(CoreId::new(5));
        c.reset(0x8000);
        assert_eq!(c.cpu().pc(), 0x8000);
        assert_eq!(c.cpu().csr(guillotine_isa::inst::csr::CORE_ID), 5);
        assert_eq!(c.power_state(), CorePowerState::Paused);
    }

    #[test]
    fn watchpoints_get_unique_ids_and_can_be_removed() {
        let mut c = ModelCore::new(CoreId::new(0));
        let a = c.add_watchpoint(Watchpoint::new(
            WatchpointId::new(99),
            0,
            10,
            WatchpointKind::Any,
        ));
        let b = c.add_watchpoint(Watchpoint::new(
            WatchpointId::new(99),
            20,
            30,
            WatchpointKind::Write,
        ));
        assert_ne!(a, b);
        assert_eq!(c.watchpoints().len(), 2);
        assert!(c.remove_watchpoint(a));
        assert!(!c.remove_watchpoint(a));
        assert_eq!(c.watchpoints().len(), 1);
    }
}
