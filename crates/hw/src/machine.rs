//! A Guillotine machine: cores, disjoint memory hierarchies, buses and
//! silicon-level safety mechanisms, assembled as Figure 1 draws them.

use crate::adapter::ModelBusAdapter;
use crate::attest::{AttestationModule, AttestationQuote};
use crate::hypervisor_core::HypervisorCore;
use crate::interrupt::{PendingInterrupt, ThrottleConfig};
use crate::model_core::{CorePowerState, ModelCore};
use crate::shared_io::{IoDescriptor, SharedIoDram};
use crate::tamper::TamperSensor;
use crate::watchpoint::{Watchpoint, WatchpointKind};
use guillotine_isa::{Program, StepOutcome, Trap};
use guillotine_mem::{Domain, HierarchyConfig, MemorySystem, MemorySystemConfig, PagePermissions};
use guillotine_types::{
    AuditSeverity, CoreId, EventKind, EventLog, GuillotineError, MachineId, Result, SimInstant,
    WatchpointId,
};

/// Static configuration of one machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The machine's identity within the datacenter.
    pub id: MachineId,
    /// Number of model cores.
    pub model_cores: usize,
    /// Number of hypervisor cores.
    pub hypervisor_cores: usize,
    /// Model-domain DRAM size in bytes.
    pub model_dram: usize,
    /// Hypervisor-domain DRAM size in bytes.
    pub hypervisor_dram: usize,
    /// If true, model and hypervisor share one cache hierarchy and DRAM —
    /// the *traditional hypervisor* configuration used as the baseline. A
    /// Guillotine machine keeps this `false`.
    pub shared_hierarchy: bool,
    /// Interrupt throttle applied by each hypervisor core's controller.
    pub throttle: ThrottleConfig,
    /// Cache geometry used for both domains.
    pub hierarchy: HierarchyConfig,
    /// Device key for the attestation module.
    pub device_key: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            id: MachineId::new(0),
            model_cores: 2,
            hypervisor_cores: 1,
            model_dram: 16 << 20,
            hypervisor_dram: 8 << 20,
            shared_hierarchy: false,
            throttle: ThrottleConfig::default(),
            hierarchy: HierarchyConfig::default(),
            device_key: 0x4755_494C_4C4F_5449,
        }
    }
}

impl MachineConfig {
    /// A Guillotine-compliant configuration (disjoint hierarchies, throttle
    /// enabled).
    pub fn guillotine(id: MachineId) -> Self {
        MachineConfig {
            id,
            ..MachineConfig::default()
        }
    }

    /// A traditional-hypervisor configuration: shared hierarchy, no
    /// interrupt throttling. Used by the `guillotine` crate's baseline
    /// hypervisor.
    pub fn traditional(id: MachineId) -> Self {
        MachineConfig {
            id,
            shared_hierarchy: true,
            throttle: ThrottleConfig::unthrottled(),
            ..MachineConfig::default()
        }
    }

    fn describe(&self) -> Vec<u8> {
        format!(
            "machine={} model_cores={} hv_cores={} shared={} burst={} rate={}",
            self.id,
            self.model_cores,
            self.hypervisor_cores,
            self.shared_hierarchy,
            self.throttle.burst,
            self.throttle.rate_per_sec
        )
        .into_bytes()
    }
}

/// What happened when the machine ran a model core for one quantum.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// The core used its whole instruction budget and is still runnable.
    Running,
    /// The core halted voluntarily.
    Halted,
    /// The core issued an `hvcall`; `accepted` tells whether the interrupt
    /// made it past the throttle into a hypervisor core's queue.
    HvCall {
        /// The immediate request code.
        arg: u16,
        /// Whether the interrupt was accepted.
        accepted: bool,
    },
    /// The core is waiting for a local interrupt (IO completion).
    WaitingForInterrupt,
    /// The core faulted (MMU violation, illegal instruction); it has been
    /// paused for inspection.
    Fault(GuillotineError),
    /// One or more watchpoints fired; the core has been paused.
    WatchpointHit(Vec<WatchpointId>),
    /// The core is powered down and cannot run.
    PoweredDown,
}

/// A full Guillotine machine.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    model_cores: Vec<ModelCore>,
    hypervisor_cores: Vec<HypervisorCore>,
    model_memory: MemorySystem,
    hypervisor_memory: MemorySystem,
    shared_io: SharedIoDram,
    attestation: AttestationModule,
    tamper: TamperSensor,
    events: EventLog,
    next_hv_target: usize,
    powered: bool,
}

impl Machine {
    /// Builds a machine from its configuration.
    pub fn new(config: MachineConfig) -> Self {
        let model_memory = MemorySystem::new(MemorySystemConfig {
            dram_size: config.model_dram,
            hierarchy: config.hierarchy,
            domain: Domain::Model,
        });
        let hypervisor_memory = MemorySystem::new(MemorySystemConfig {
            dram_size: config.hypervisor_dram,
            hierarchy: config.hierarchy,
            domain: Domain::Hypervisor,
        });
        let model_cores = (0..config.model_cores)
            .map(|i| ModelCore::new(CoreId::new(i as u32)))
            .collect();
        let hypervisor_cores = (0..config.hypervisor_cores)
            .map(|i| HypervisorCore::new(CoreId::new(1000 + i as u32), config.throttle))
            .collect();
        let attestation = AttestationModule::new(config.device_key, &config.describe());
        let tamper = TamperSensor::new(
            config.id,
            vec![
                "nic0".to_string(),
                "gpu0".to_string(),
                "storage0".to_string(),
            ],
        );
        Machine {
            tamper,
            attestation,
            model_cores,
            hypervisor_cores,
            model_memory,
            hypervisor_memory,
            shared_io: SharedIoDram::new(),
            events: EventLog::default(),
            next_hv_target: 0,
            powered: true,
            config,
        }
    }

    /// The machine's id.
    pub fn id(&self) -> MachineId {
        self.config.id
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Whether the machine (as a whole) is powered.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Number of model cores.
    pub fn model_core_count(&self) -> usize {
        self.model_cores.len()
    }

    /// Number of hypervisor cores.
    pub fn hypervisor_core_count(&self) -> usize {
        self.hypervisor_cores.len()
    }

    /// Access to a model core's metadata and architectural state.
    pub fn model_core(&self, idx: usize) -> Result<&ModelCore> {
        self.model_cores
            .get(idx)
            .ok_or(GuillotineError::InvalidCore {
                core: CoreId::new(idx as u32),
                reason: "no such model core".into(),
            })
    }

    fn model_core_mut(&mut self, idx: usize) -> Result<&mut ModelCore> {
        self.model_cores
            .get_mut(idx)
            .ok_or(GuillotineError::InvalidCore {
                core: CoreId::new(idx as u32),
                reason: "no such model core".into(),
            })
    }

    /// Access to a hypervisor core.
    pub fn hypervisor_core(&self, idx: usize) -> Result<&HypervisorCore> {
        self.hypervisor_cores
            .get(idx)
            .ok_or(GuillotineError::InvalidCore {
                core: CoreId::new(1000 + idx as u32),
                reason: "no such hypervisor core".into(),
            })
    }

    /// Mutable access to a hypervisor core.
    pub fn hypervisor_core_mut(&mut self, idx: usize) -> Result<&mut HypervisorCore> {
        self.hypervisor_cores
            .get_mut(idx)
            .ok_or(GuillotineError::InvalidCore {
                core: CoreId::new(1000 + idx as u32),
                reason: "no such hypervisor core".into(),
            })
    }

    /// The machine's audit event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Mutable access to the event log (the software hypervisor appends its
    /// own records here so the per-machine trail is complete).
    pub fn events_mut(&mut self) -> &mut EventLog {
        &mut self.events
    }

    /// The tamper sensor suite.
    pub fn tamper(&self) -> &TamperSensor {
        &self.tamper
    }

    /// Mutable tamper sensor access (fault injection and audits).
    pub fn tamper_mut(&mut self) -> &mut TamperSensor {
        &mut self.tamper
    }

    /// The model-domain memory system (the hypervisor's private bus).
    pub fn model_memory(&self) -> &MemorySystem {
        &self.model_memory
    }

    /// Mutable access to the model-domain memory system.
    pub fn model_memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.model_memory
    }

    // ------------------------------------------------------------------
    // Loading.
    // ------------------------------------------------------------------

    /// Records the hypervisor image measurement and stores the image in
    /// hypervisor DRAM (the image itself is opaque to the simulation — the
    /// hypervisor's behaviour is the `guillotine-hv` crate).
    pub fn load_hypervisor_image(&mut self, image: &[u8]) -> Result<()> {
        self.attestation.measure_hypervisor(image);
        let len = image.len().min(self.config.hypervisor_dram);
        self.hypervisor_memory.patch_physical(0, &image[..len])?;
        Ok(())
    }

    /// Loads a model program into model DRAM, maps its code and a data/stack
    /// region, resets every model core to the program entry point and, if
    /// `lockdown` is true, locks the model MMU per §3.2.
    ///
    /// Returns the number of executable pages locked (0 when `lockdown` is
    /// false).
    pub fn load_model_program(
        &mut self,
        program: &Program,
        data_region: u64,
        lockdown: bool,
    ) -> Result<usize> {
        let image = program.image();
        self.model_memory
            .load_image(program.base(), &image, PagePermissions::RX)?;
        // Data / stack region follows the image, page aligned.
        let data_base = (program.base() + image.len() as u64 + 0xFFF) & !0xFFF;
        self.model_memory
            .map_region(data_base, data_region.max(0x1000), PagePermissions::RW)?;
        let locked = if lockdown {
            let n = self.model_memory.mmu_mut().lock_executable_regions();
            let pages = self.model_memory.mmu().locked_pages().to_vec();
            self.attestation.measure_model_layout(&pages);
            n
        } else {
            0
        };
        let entry = program.entry();
        for core in &mut self.model_cores {
            core.reset(entry);
        }
        Ok(locked)
    }

    /// The first address of the RW data region created by
    /// [`Machine::load_model_program`] for a program loaded at `base` with an
    /// image of `image_len` bytes.
    pub fn data_region_base(program: &Program) -> u64 {
        (program.base() + program.len() as u64 + 0xFFF) & !0xFFF
    }

    // ------------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------------

    /// Runs model core `idx` for at most `max_instructions`.
    pub fn run_model_core(
        &mut self,
        idx: usize,
        max_instructions: u64,
        now: SimInstant,
    ) -> Result<RunEvent> {
        if !self.powered {
            return Ok(RunEvent::PoweredDown);
        }
        let state = self.model_core(idx)?.power_state();
        match state {
            CorePowerState::PoweredDown => return Ok(RunEvent::PoweredDown),
            CorePowerState::WaitingForIo => return Ok(RunEvent::WaitingForInterrupt),
            CorePowerState::Paused | CorePowerState::Running => {}
        }
        let watchpoints = self.model_cores[idx].watchpoints().to_vec();
        let core = &mut self.model_cores[idx];
        core.set_power_state(CorePowerState::Running);
        let mut adapter =
            ModelBusAdapter::new(&mut self.model_memory, &mut self.shared_io, &watchpoints);

        let mut outcome = StepOutcome::Running;
        if watchpoints.is_empty() {
            outcome = core.cpu_mut().run(&mut adapter, max_instructions)?;
        } else {
            // With watchpoints installed, step one instruction at a time so a
            // hit pauses the core at the triggering instruction.
            for _ in 0..max_instructions {
                let trap = core.cpu_mut().step(&mut adapter)?;
                if !adapter.watchpoint_hits().is_empty() {
                    let hits = adapter.watchpoint_hits().to_vec();
                    core.set_power_state(CorePowerState::Paused);
                    core.record_watchpoint_hit();
                    let core_id = core.id();
                    self.events.record_kind(
                        now,
                        AuditSeverity::Warning,
                        EventKind::ManagementAction {
                            core: core_id,
                            action: format!("watchpoint hit ({} watchpoints)", hits.len()),
                        },
                    );
                    return Ok(RunEvent::WatchpointHit(hits));
                }
                match trap {
                    None => continue,
                    Some(Trap::Halted) => {
                        outcome = StepOutcome::Halted;
                        break;
                    }
                    Some(Trap::HvCall { arg }) => {
                        outcome = StepOutcome::HvCall { arg };
                        break;
                    }
                    Some(Trap::WaitForInterrupt) => {
                        outcome = StepOutcome::WaitingForInterrupt;
                        break;
                    }
                    Some(Trap::LocalException { .. }) => continue,
                    Some(Trap::Fault(e)) => {
                        outcome = StepOutcome::Faulted(e);
                        break;
                    }
                }
            }
        }

        let core_id = self.model_cores[idx].id();
        match outcome {
            StepOutcome::Running => Ok(RunEvent::Running),
            StepOutcome::Halted => {
                self.model_cores[idx].set_power_state(CorePowerState::Paused);
                Ok(RunEvent::Halted)
            }
            StepOutcome::WaitingForInterrupt => {
                self.model_cores[idx].set_power_state(CorePowerState::WaitingForIo);
                Ok(RunEvent::WaitingForInterrupt)
            }
            StepOutcome::HvCall { arg } => {
                let accepted = self.raise_hypervisor_interrupt(core_id, arg, now);
                self.model_cores[idx].set_power_state(CorePowerState::WaitingForIo);
                self.events.record_kind(
                    now,
                    AuditSeverity::Info,
                    EventKind::InterruptRaised {
                        core: core_id,
                        accepted,
                    },
                );
                Ok(RunEvent::HvCall { arg, accepted })
            }
            StepOutcome::Faulted(e) => {
                self.model_cores[idx].set_power_state(CorePowerState::Paused);
                self.model_cores[idx].record_fault();
                let (addr, reason) = match &e {
                    GuillotineError::MemoryFault { addr, reason } => (*addr, reason.clone()),
                    other => (0, other.to_string()),
                };
                self.events.record_kind(
                    now,
                    AuditSeverity::Violation,
                    EventKind::MemoryViolation {
                        core: core_id,
                        addr,
                        reason,
                    },
                );
                Ok(RunEvent::Fault(e))
            }
        }
    }

    fn raise_hypervisor_interrupt(&mut self, source: CoreId, arg: u16, now: SimInstant) -> bool {
        if self.hypervisor_cores.is_empty() {
            return false;
        }
        let idx = self.next_hv_target % self.hypervisor_cores.len();
        self.next_hv_target = self.next_hv_target.wrapping_add(1);
        self.hypervisor_cores[idx]
            .interrupts_mut()
            .offer(source, arg, now)
    }

    /// Dequeues the next pending interrupt on hypervisor core `hv_idx`.
    pub fn service_interrupt(&mut self, hv_idx: usize) -> Result<Option<PendingInterrupt>> {
        let core = self.hypervisor_core_mut(hv_idx)?;
        let p = core.interrupts_mut().service();
        if p.is_some() {
            core.do_interrupt_work();
        }
        Ok(p)
    }

    /// Pops the next model IO request from the shared IO region.
    pub fn pop_io_request(&mut self) -> Result<Option<IoDescriptor>> {
        self.shared_io.pop_request()
    }

    /// Pushes an IO response into the shared IO region.
    pub fn push_io_response(&mut self, d: &IoDescriptor) -> Result<()> {
        self.shared_io.push_response(d)
    }

    /// Model-side helper used by workload drivers: enqueues a request
    /// descriptor exactly as guest code writing the ring would.
    pub fn push_io_request(&mut self, d: &IoDescriptor) -> Result<()> {
        self.shared_io.push_request(d)
    }

    /// Model-side helper: pops the next response descriptor.
    pub fn pop_io_response(&mut self) -> Result<Option<IoDescriptor>> {
        self.shared_io.pop_response()
    }

    /// Notifies model core `idx` that its IO completed: raises the local IO
    /// interrupt and marks the core runnable again.
    pub fn notify_io_completion(&mut self, idx: usize) -> Result<()> {
        let core = self.model_core_mut(idx)?;
        core.cpu_mut().raise_local_interrupt(1);
        if core.power_state() == CorePowerState::WaitingForIo {
            core.set_power_state(CorePowerState::Running);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Management-bus affordances (§3.2).
    // ------------------------------------------------------------------

    /// Forcibly pauses a model core.
    pub fn pause_core(&mut self, idx: usize, now: SimInstant) -> Result<()> {
        let core = self.model_core_mut(idx)?;
        if core.power_state() == CorePowerState::PoweredDown {
            return Err(GuillotineError::InvalidCoreState {
                core: core.id(),
                reason: "cannot pause a powered-down core".into(),
            });
        }
        core.set_power_state(CorePowerState::Paused);
        let core_id = core.id();
        self.record_management(now, core_id, "pause");
        Ok(())
    }

    /// Resumes a paused model core.
    pub fn resume_core(&mut self, idx: usize, now: SimInstant) -> Result<()> {
        let core = self.model_core_mut(idx)?;
        if core.power_state() == CorePowerState::PoweredDown {
            return Err(GuillotineError::InvalidCoreState {
                core: core.id(),
                reason: "cannot resume a powered-down core".into(),
            });
        }
        core.cpu_mut().clear_halt();
        core.set_power_state(CorePowerState::Running);
        let core_id = core.id();
        self.record_management(now, core_id, "resume");
        Ok(())
    }

    /// Single-steps a paused model core by exactly one instruction.
    pub fn single_step(&mut self, idx: usize, now: SimInstant) -> Result<RunEvent> {
        let state = self.model_core(idx)?.power_state();
        if state != CorePowerState::Paused {
            return Err(GuillotineError::InvalidCoreState {
                core: self.model_core(idx)?.id(),
                reason: format!("single-step requires a paused core, state is {state:?}"),
            });
        }
        let core_id = self.model_core(idx)?.id();
        self.record_management(now, core_id, "single-step");
        let event = self.run_model_core(idx, 1, now)?;
        // Single-stepping leaves the core paused regardless of outcome.
        if self.model_core(idx)?.power_state() != CorePowerState::PoweredDown {
            self.model_core_mut(idx)?
                .set_power_state(CorePowerState::Paused);
        }
        Ok(event)
    }

    /// Reads the full register file and pc of a halted model core.
    pub fn read_registers(&self, idx: usize) -> Result<(Vec<u64>, u64)> {
        let core = self.model_core(idx)?;
        if core.power_state() == CorePowerState::Running {
            return Err(GuillotineError::InvalidCoreState {
                core: core.id(),
                reason: "inspecting a running core requires pausing it first".into(),
            });
        }
        let regs = (0..32).map(|i| core.cpu().reg(i)).collect();
        Ok((regs, core.cpu().pc()))
    }

    /// Writes one register of a paused model core.
    pub fn write_register(&mut self, idx: usize, reg: usize, value: u64) -> Result<()> {
        let core = self.model_core_mut(idx)?;
        if core.power_state() == CorePowerState::Running {
            return Err(GuillotineError::InvalidCoreState {
                core: core.id(),
                reason: "modifying a running core requires pausing it first".into(),
            });
        }
        core.cpu_mut().set_reg(reg, value);
        Ok(())
    }

    /// Redirects a paused model core to `pc`.
    pub fn write_pc(&mut self, idx: usize, pc: u64) -> Result<()> {
        let core = self.model_core_mut(idx)?;
        if core.power_state() == CorePowerState::Running {
            return Err(GuillotineError::InvalidCoreState {
                core: core.id(),
                reason: "modifying a running core requires pausing it first".into(),
            });
        }
        core.cpu_mut().set_pc(pc);
        Ok(())
    }

    /// Reads model DRAM over the hypervisor's private bus.
    pub fn inspect_model_dram(&self, paddr: u64, len: usize) -> Result<Vec<u8>> {
        self.model_memory.inspect_physical(paddr, len)
    }

    /// Writes model DRAM over the hypervisor's private bus.
    pub fn patch_model_dram(&mut self, paddr: u64, data: &[u8]) -> Result<()> {
        self.model_memory.patch_physical(paddr, data)
    }

    /// Installs a watchpoint on a model core; returns its id.
    pub fn set_watchpoint(
        &mut self,
        idx: usize,
        start: u64,
        end: u64,
        kind: WatchpointKind,
        now: SimInstant,
    ) -> Result<WatchpointId> {
        let core = self.model_core_mut(idx)?;
        let id = core.add_watchpoint(Watchpoint::new(WatchpointId::new(0), start, end, kind));
        let core_id = core.id();
        self.record_management(now, core_id, "set-watchpoint");
        Ok(id)
    }

    /// Removes a watchpoint from a model core.
    pub fn clear_watchpoint(&mut self, idx: usize, id: WatchpointId) -> Result<bool> {
        Ok(self.model_core_mut(idx)?.remove_watchpoint(id))
    }

    /// Forcibly clears all microarchitectural state reachable from model
    /// cores (caches + TLB), defeating microarchitectural covert channels
    /// through which "the model would be both the sender and the receiver".
    pub fn flush_model_microarchitecture(&mut self, now: SimInstant) -> usize {
        let dropped = self.model_memory.clear_microarchitectural_state();
        self.events.record_kind(
            now,
            AuditSeverity::Info,
            EventKind::Other {
                detail: format!("microarchitectural flush dropped {dropped} entries"),
            },
        );
        dropped
    }

    /// Powers a model core down; its registers are lost.
    pub fn power_down_core(&mut self, idx: usize, now: SimInstant) -> Result<()> {
        let core = self.model_core_mut(idx)?;
        core.reset(0);
        core.set_power_state(CorePowerState::PoweredDown);
        let core_id = core.id();
        self.record_management(now, core_id, "power-down");
        Ok(())
    }

    /// Powers a model core back up in the paused state at `entry`.
    pub fn power_up_core(&mut self, idx: usize, entry: u64, now: SimInstant) -> Result<()> {
        let core = self.model_core_mut(idx)?;
        core.reset(entry);
        core.set_power_state(CorePowerState::Paused);
        let core_id = core.id();
        self.record_management(now, core_id, "power-up");
        Ok(())
    }

    /// Powers down every core (model and hypervisor) and wipes model caches;
    /// used by the offline/decapitation isolation levels.
    pub fn power_down_all(&mut self, now: SimInstant) {
        for idx in 0..self.model_cores.len() {
            let _ = self.power_down_core(idx, now);
        }
        for hv in &mut self.hypervisor_cores {
            hv.power_down();
        }
        self.model_memory.clear_microarchitectural_state();
        self.powered = false;
    }

    /// Restores power to the machine (cores stay paused/powered-down until
    /// explicitly brought up).
    pub fn power_up_machine(&mut self) {
        self.powered = true;
        for hv in &mut self.hypervisor_cores {
            hv.power_up();
        }
    }

    /// Destroys the machine's state: wipes model DRAM, shared IO and caches.
    /// Used by the immolation isolation level. The machine stays powered off.
    pub fn destroy(&mut self, now: SimInstant) {
        self.power_down_all(now);
        self.model_memory.wipe();
        self.shared_io.wipe();
        self.events.record_kind(
            now,
            AuditSeverity::Critical,
            EventKind::Other {
                detail: "machine destroyed (immolation)".into(),
            },
        );
    }

    fn record_management(&mut self, now: SimInstant, core: CoreId, action: &str) {
        self.events.record_kind(
            now,
            AuditSeverity::Info,
            EventKind::ManagementAction {
                core,
                action: action.to_string(),
            },
        );
    }

    // ------------------------------------------------------------------
    // Hypervisor-domain memory and attestation.
    // ------------------------------------------------------------------

    /// Performs a hypervisor data access to `addr` and returns its latency.
    ///
    /// On a Guillotine machine the access goes to the hypervisor's own
    /// hierarchy; on a shared-hierarchy (traditional) machine it lands in the
    /// same hierarchy the model uses, producing the cross-domain cache
    /// contention that experiment E1 measures.
    pub fn hypervisor_data_access(&mut self, addr: u64) -> u64 {
        if self.config.shared_hierarchy {
            self.model_memory
                .hierarchy_mut()
                .probe(addr, Domain::Hypervisor)
        } else {
            self.hypervisor_memory
                .hierarchy_mut()
                .probe(addr, Domain::Hypervisor)
        }
    }

    /// Cross-domain evictions observed in the hierarchy reachable by model
    /// cores (always zero on a Guillotine machine).
    pub fn model_visible_cross_domain_evictions(&self) -> u64 {
        self.model_memory.hierarchy().cross_domain_evictions()
    }

    /// Produces an attestation quote bound to `nonce`.
    pub fn attestation_quote(&self, nonce: u64) -> AttestationQuote {
        self.attestation.quote(nonce)
    }

    /// The attestation module (for verification set-up).
    pub fn attestation(&self) -> &AttestationModule {
        &self.attestation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_isa::asm::assemble_at;

    fn now() -> SimInstant {
        SimInstant::ZERO
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    fn load(m: &mut Machine, src: &str, lockdown: bool) {
        let p = assemble_at(src, 0x1000).unwrap();
        m.load_model_program(&p, 0x10000, lockdown).unwrap();
    }

    #[test]
    fn loads_and_runs_a_simple_program() {
        let mut m = machine();
        load(
            &mut m,
            "
            li x1, 6
            li x2, 7
            mul x3, x1, x2
            halt
            ",
            true,
        );
        let ev = m.run_model_core(0, 1000, now()).unwrap();
        assert_eq!(ev, RunEvent::Halted);
        let (regs, _) = m.read_registers(0).unwrap();
        assert_eq!(regs[3], 42);
    }

    #[test]
    fn lockdown_blocks_self_modifying_guest() {
        let mut m = machine();
        // The guest tries to overwrite its own code at 0x1000.
        load(
            &mut m,
            "
            li x1, 0x1000
            li x2, 0
            std x2, x1, 0
            halt
            ",
            true,
        );
        let ev = m.run_model_core(0, 1000, now()).unwrap();
        assert!(matches!(ev, RunEvent::Fault(_)), "got {ev:?}");
        assert_eq!(m.model_core(0).unwrap().fault_count(), 1);
        // Without lockdown the same program succeeds (traditional behaviour).
        let mut m2 = machine();
        load(
            &mut m2,
            "
            li x1, 0x1000
            li x2, 0
            std x2, x1, 0
            halt
            ",
            false,
        );
        // Note: even unlocked, the page is RX (not writable) because the
        // loader maps code read+execute; self-modification requires the guest
        // to have a writable+executable mapping, which only the unlocked MMU
        // would permit the (simulated) guest runtime to create.
        let ev2 = m2.run_model_core(0, 1000, now()).unwrap();
        assert!(matches!(ev2, RunEvent::Fault(_)));
    }

    #[test]
    fn hvcall_lands_in_hypervisor_interrupt_queue() {
        let mut m = machine();
        load(&mut m, "hvcall 9\nhalt\n", true);
        let ev = m.run_model_core(0, 100, now()).unwrap();
        assert_eq!(
            ev,
            RunEvent::HvCall {
                arg: 9,
                accepted: true
            }
        );
        let p = m.service_interrupt(0).unwrap().unwrap();
        assert_eq!(p.arg, 9);
        assert_eq!(p.source, CoreId::new(0));
    }

    #[test]
    fn io_request_response_cycle() {
        let mut m = machine();
        load(&mut m, "hvcall 1\nwfi\nhalt\n", true);
        // Guest writes a descriptor into the IO window via the helper (the
        // port-level guest library does this from assembly in examples).
        m.push_io_request(&IoDescriptor::request(
            guillotine_types::PortId::new(1),
            crate::shared_io::IoOpcode::Send,
            1,
            b"ping".to_vec(),
        ))
        .unwrap();
        let _ = m.run_model_core(0, 100, now()).unwrap();
        let req = m.pop_io_request().unwrap().unwrap();
        assert_eq!(req.payload, b"ping");
        m.push_io_response(&IoDescriptor::response_to(&req, 0, b"pong".to_vec()))
            .unwrap();
        m.notify_io_completion(0).unwrap();
        let resp = m.pop_io_response().unwrap().unwrap();
        assert_eq!(resp.payload, b"pong");
    }

    #[test]
    fn pause_inspect_modify_resume() {
        let mut m = machine();
        load(
            &mut m,
            "
            li x1, 1
            loop:
            addi x1, x1, 1
            j loop
            ",
            true,
        );
        let ev = m.run_model_core(0, 100, now()).unwrap();
        assert_eq!(ev, RunEvent::Running);
        m.pause_core(0, now()).unwrap();
        let (regs, pc) = m.read_registers(0).unwrap();
        assert!(regs[1] > 1);
        assert!(pc >= 0x1000);
        // The hypervisor rewrites the counter register.
        m.write_register(0, 1, 0).unwrap();
        m.resume_core(0, now()).unwrap();
        m.pause_core(0, now()).unwrap();
        let (regs2, _) = m.read_registers(0).unwrap();
        assert!(regs2[1] < regs[1], "counter was reset by the hypervisor");
    }

    #[test]
    fn reading_registers_of_a_running_core_is_rejected() {
        let mut m = machine();
        load(&mut m, "loop:\nj loop\n", true);
        m.run_model_core(0, 10, now()).unwrap();
        // Core is conceptually still running (budget exhausted).
        assert!(m.read_registers(0).is_err());
        m.pause_core(0, now()).unwrap();
        assert!(m.read_registers(0).is_ok());
    }

    #[test]
    fn single_step_executes_exactly_one_instruction() {
        let mut m = machine();
        load(
            &mut m,
            "
            li x1, 1
            addi x1, x1, 1
            addi x1, x1, 1
            halt
            ",
            true,
        );
        m.pause_core(0, now()).unwrap();
        let before = m.model_core(0).unwrap().cpu().instret();
        m.single_step(0, now()).unwrap();
        let after = m.model_core(0).unwrap().cpu().instret();
        assert_eq!(after, before + 1);
        assert_eq!(
            m.model_core(0).unwrap().power_state(),
            CorePowerState::Paused
        );
    }

    #[test]
    fn watchpoint_pauses_core_on_hit() {
        let mut m = machine();
        load(
            &mut m,
            "
            li x1, 0x3000
            li x2, 77
            std x2, x1, 0
            halt
            ",
            true,
        );
        let wp = m
            .set_watchpoint(0, 0x3000, 0x3007, WatchpointKind::Write, now())
            .unwrap();
        let ev = m.run_model_core(0, 1000, now()).unwrap();
        assert_eq!(ev, RunEvent::WatchpointHit(vec![wp]));
        assert_eq!(
            m.model_core(0).unwrap().power_state(),
            CorePowerState::Paused
        );
        assert_eq!(m.model_core(0).unwrap().watchpoint_hit_count(), 1);
    }

    #[test]
    fn private_bus_inspects_and_patches_model_dram() {
        let mut m = machine();
        load(&mut m, "halt\n", true);
        m.patch_model_dram(0x9000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.inspect_model_dram(0x9000, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn power_down_loses_register_state() {
        let mut m = machine();
        load(&mut m, "li x1, 5\nhalt\n", true);
        m.run_model_core(0, 100, now()).unwrap();
        m.power_down_core(0, now()).unwrap();
        assert_eq!(
            m.model_core(0).unwrap().power_state(),
            CorePowerState::PoweredDown
        );
        assert_eq!(
            m.run_model_core(0, 10, now()).unwrap(),
            RunEvent::PoweredDown
        );
        m.power_up_core(0, 0x1000, now()).unwrap();
        let (regs, _) = m.read_registers(0).unwrap();
        assert_eq!(regs[1], 0, "register state was lost on power-down");
    }

    #[test]
    fn guillotine_machine_has_no_model_visible_cross_domain_evictions() {
        let mut m = Machine::new(MachineConfig::guillotine(MachineId::new(1)));
        load(&mut m, "halt\n", true);
        // Hypervisor performs a storm of accesses.
        for i in 0..10_000u64 {
            m.hypervisor_data_access(i * 64);
        }
        assert_eq!(m.model_visible_cross_domain_evictions(), 0);

        let mut t = Machine::new(MachineConfig::traditional(MachineId::new(2)));
        let p = assemble_at("halt\n", 0x1000).unwrap();
        t.load_model_program(&p, 0x10000, false).unwrap();
        // Model warms its cache, then the hypervisor storms the same sets.
        for i in 0..1_000u64 {
            t.model_memory_mut()
                .hierarchy_mut()
                .probe(i * 64, Domain::Model);
        }
        for i in 0..10_000u64 {
            t.hypervisor_data_access(i * 64);
        }
        assert!(t.model_visible_cross_domain_evictions() > 0);
    }

    #[test]
    fn destroy_wipes_model_dram() {
        let mut m = machine();
        load(&mut m, "halt\n", true);
        m.patch_model_dram(0x2000, &[0xFF; 16]).unwrap();
        m.destroy(now());
        assert!(!m.is_powered());
        assert_eq!(m.inspect_model_dram(0x2000, 16).unwrap(), vec![0; 16]);
    }

    #[test]
    fn attestation_quote_reflects_hypervisor_image() {
        let mut a = machine();
        a.load_hypervisor_image(b"hv image 1").unwrap();
        let mut b = machine();
        b.load_hypervisor_image(b"hv image 2").unwrap();
        assert_ne!(
            a.attestation_quote(1).hypervisor,
            b.attestation_quote(1).hypervisor
        );
    }
}
