//! Hypervisor cores: the CPUs that run the Guillotine software hypervisor.
//!
//! In the simulator the hypervisor's *logic* is Rust code (the
//! `guillotine-hv` crate), so a hypervisor core does not interpret an ISA.
//! What it does model is everything the paper cares about architecturally:
//! its own interrupt controller with throttling, its machine-check state,
//! and accounting of the useful work it performs (which experiment E4 uses to
//! quantify livelock under interrupt floods).

use crate::interrupt::{InterruptController, ThrottleConfig};
use guillotine_types::CoreId;

/// One hypervisor core.
#[derive(Debug, Clone)]
pub struct HypervisorCore {
    id: CoreId,
    interrupts: InterruptController,
    useful_work: u64,
    interrupt_work: u64,
    machine_check: bool,
    powered: bool,
}

impl HypervisorCore {
    /// Creates a powered-up hypervisor core with the given throttle settings.
    pub fn new(id: CoreId, throttle: ThrottleConfig) -> Self {
        HypervisorCore {
            id,
            interrupts: InterruptController::new(throttle),
            useful_work: 0,
            interrupt_work: 0,
            machine_check: false,
            powered: true,
        }
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The interrupt controller (LAPIC analog).
    pub fn interrupts(&self) -> &InterruptController {
        &self.interrupts
    }

    /// Mutable interrupt controller access.
    pub fn interrupts_mut(&mut self) -> &mut InterruptController {
        &mut self.interrupts
    }

    /// Records `units` of useful (non-interrupt) hypervisor work.
    pub fn do_useful_work(&mut self, units: u64) {
        self.useful_work += units;
    }

    /// Records one unit of interrupt-servicing work.
    pub fn do_interrupt_work(&mut self) {
        self.interrupt_work += 1;
    }

    /// Useful work performed so far.
    pub fn useful_work(&self) -> u64 {
        self.useful_work
    }

    /// Interrupt-servicing work performed so far.
    pub fn interrupt_work(&self) -> u64 {
        self.interrupt_work
    }

    /// Raises a machine-check condition; per §3.3 the software hypervisor
    /// must respond by rebooting into offline isolation.
    pub fn raise_machine_check(&mut self) {
        self.machine_check = true;
    }

    /// Whether a machine check is pending.
    pub fn machine_check_pending(&self) -> bool {
        self.machine_check
    }

    /// Clears the machine-check condition (after the reboot procedure).
    pub fn clear_machine_check(&mut self) {
        self.machine_check = false;
    }

    /// Powers the core down (offline isolation and above).
    pub fn power_down(&mut self) {
        self.powered = false;
        self.interrupts.clear();
    }

    /// Powers the core back up.
    pub fn power_up(&mut self) {
        self.powered = true;
    }

    /// Whether the core is powered.
    pub fn is_powered(&self) -> bool {
        self.powered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_types::SimInstant;

    #[test]
    fn work_counters_accumulate() {
        let mut c = HypervisorCore::new(CoreId::new(0), ThrottleConfig::default());
        c.do_useful_work(5);
        c.do_useful_work(3);
        c.do_interrupt_work();
        assert_eq!(c.useful_work(), 8);
        assert_eq!(c.interrupt_work(), 1);
    }

    #[test]
    fn machine_check_lifecycle() {
        let mut c = HypervisorCore::new(CoreId::new(1), ThrottleConfig::default());
        assert!(!c.machine_check_pending());
        c.raise_machine_check();
        assert!(c.machine_check_pending());
        c.clear_machine_check();
        assert!(!c.machine_check_pending());
    }

    #[test]
    fn power_down_clears_pending_interrupts() {
        let mut c = HypervisorCore::new(CoreId::new(2), ThrottleConfig::default());
        c.interrupts_mut()
            .offer(CoreId::new(9), 1, SimInstant::ZERO);
        assert_eq!(c.interrupts().pending_len(), 1);
        c.power_down();
        assert!(!c.is_powered());
        assert_eq!(c.interrupts().pending_len(), 0);
        c.power_up();
        assert!(c.is_powered());
    }
}
