//! The experiment harness: one function per claim the paper makes.
//!
//! The HotOS paper has no quantitative evaluation of its own, so each
//! experiment here operationalises one of its architectural claims (see
//! DESIGN.md §4 for the mapping). The Criterion benches in
//! `guillotine-bench` call these functions; the integration tests assert the
//! qualitative direction of each result.

use crate::baseline::{BaselineConfig, TraditionalHypervisor};
use crate::deployment::{DeploymentConfig, GuillotineDeployment};
use crate::report::Table;
use guillotine_detect::{CompositeDetector, Detector, ModelObservation};
use guillotine_hv::{EchoDevice, PortKind};
use guillotine_hw::{IoDescriptor, IoOpcode, Machine, MachineConfig, RunEvent};
use guillotine_isa::asm::assemble_at;
use guillotine_mem::Domain;
use guillotine_model::{
    AttackFamily, AttackVector, RogueLibrary, WorkloadConfig, WorkloadGenerator,
};
use guillotine_net::{Endpoint, Network, NetworkConfig, RegulatorCa};
use guillotine_physical::quorum::{AdminSet, Ballot, QuorumHsm, VoteKind, ADMIN_SEATS};
use guillotine_physical::{
    ControlConsole, HeartbeatConfig, HeartbeatMonitor, IsolationLevel, TransitionRequester,
};
use guillotine_policy::{
    AuditScheduler, AutonomyLevel, ComplianceChecker, ModelCard, RiskClassifier, RiskTier,
    SafeHarborPolicy,
};
use guillotine_types::{
    AdminId, ConnectionId, MachineId, ModelId, PortId, Result, SimDuration, SimInstant,
};

// ----------------------------------------------------------------------
// E1: cache side-channel leakage, shared vs disjoint hierarchies (§3.2).
// ----------------------------------------------------------------------

/// Result of the prime+probe side-channel experiment.
#[derive(Debug, Clone)]
pub struct SideChannelResult {
    /// Number of secret bits in each trial.
    pub secret_bits: u32,
    /// Bits recovered correctly on the traditional (shared) machine.
    pub baseline_correct_bits: f64,
    /// Bits recovered correctly on the Guillotine (disjoint) machine.
    pub guillotine_correct_bits: f64,
    /// Cross-domain evictions observed by the attacker on the baseline.
    pub baseline_cross_domain_evictions: u64,
    /// Cross-domain evictions observed by the attacker on Guillotine.
    pub guillotine_cross_domain_evictions: u64,
}

impl SideChannelResult {
    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E1: prime+probe recovery of a hypervisor secret",
            &[
                "configuration",
                "correct bits (of 64)",
                "cross-domain evictions",
            ],
        );
        t.row(&[
            "traditional (shared hierarchy)".into(),
            format!("{:.1}", self.baseline_correct_bits),
            self.baseline_cross_domain_evictions.to_string(),
        ]);
        t.row(&[
            "guillotine (disjoint hierarchies)".into(),
            format!("{:.1}", self.guillotine_correct_bits),
            self.guillotine_cross_domain_evictions.to_string(),
        ]);
        t
    }
}

fn prime_probe_trial(machine: &mut Machine, secret: u64) -> u64 {
    // The attacker fills every way of each L1 set it cares about, the
    // hypervisor ("victim") performs secret-dependent accesses, then the
    // attacker probes and flags sets whose reload latency shows an eviction.
    const SETS: u64 = 64;
    const WAYS: u64 = 8;
    const LINE: u64 = 64;
    const WAY_STRIDE: u64 = SETS * LINE;
    let attacker_base = 0x20_0000u64;
    // Prime.
    for set in 0..SETS {
        for way in 0..WAYS {
            let addr = attacker_base + set * LINE + way * WAY_STRIDE;
            machine
                .model_memory_mut()
                .hierarchy_mut()
                .probe(addr, Domain::Model);
        }
    }
    // Victim: one distinct set per set bit of the secret.
    for bit in 0..SETS {
        if secret & (1 << bit) != 0 {
            let addr = 0x100_0000 + bit * LINE;
            machine.hypervisor_data_access(addr);
        }
    }
    // Probe: a set is "disturbed" if any of its primed lines now misses L1.
    let mut guess = 0u64;
    for set in 0..SETS {
        let mut disturbed = false;
        for way in 0..WAYS {
            let addr = attacker_base + set * LINE + way * WAY_STRIDE;
            let latency = machine
                .model_memory_mut()
                .hierarchy_mut()
                .probe(addr, Domain::Model);
            if latency > machine.config().hierarchy.l1.hit_latency {
                disturbed = true;
            }
        }
        if disturbed {
            guess |= 1 << set;
        }
    }
    guess
}

/// Runs experiment E1 over `trials` random secrets.
pub fn e1_side_channel(trials: u32, seed: u64) -> SideChannelResult {
    let mut rng = guillotine_types::DetRng::seed(seed);
    let mut baseline_correct = 0u64;
    let mut guillotine_correct = 0u64;
    let mut baseline_machine = Machine::new(MachineConfig::traditional(MachineId::new(1)));
    let mut guillotine_machine = Machine::new(MachineConfig::guillotine(MachineId::new(2)));
    for _ in 0..trials.max(1) {
        let secret = rng.next_u64();
        let guess_b = prime_probe_trial(&mut baseline_machine, secret);
        baseline_correct += (guess_b ^ secret).count_zeros() as u64;
        let guess_g = prime_probe_trial(&mut guillotine_machine, secret);
        guillotine_correct += (guess_g ^ secret).count_zeros() as u64;
    }
    SideChannelResult {
        secret_bits: 64,
        baseline_correct_bits: baseline_correct as f64 / trials.max(1) as f64,
        guillotine_correct_bits: guillotine_correct as f64 / trials.max(1) as f64,
        baseline_cross_domain_evictions: baseline_machine.model_visible_cross_domain_evictions(),
        guillotine_cross_domain_evictions: guillotine_machine
            .model_visible_cross_domain_evictions(),
    }
}

// ----------------------------------------------------------------------
// E2: MMU lockdown vs runtime code injection (§3.2).
// ----------------------------------------------------------------------

/// Result of the MMU-lockdown experiment.
#[derive(Debug, Clone)]
pub struct MmuLockdownResult {
    /// Injection-style attacks attempted per system.
    pub attacks: u32,
    /// Attacks blocked (faulted) on Guillotine.
    pub guillotine_blocked: u32,
    /// Attacks blocked on the unlocked baseline.
    pub baseline_blocked: u32,
    /// Lockdown rejections recorded by the Guillotine MMU.
    pub lockdown_rejections: u64,
}

impl MmuLockdownResult {
    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E2: runtime code-injection attempts blocked",
            &["configuration", "blocked", "of"],
        );
        t.row(&[
            "guillotine (locked MMU)".into(),
            self.guillotine_blocked.to_string(),
            self.attacks.to_string(),
        ]);
        t.row(&[
            "traditional (unlocked, W+X tolerated)".into(),
            self.baseline_blocked.to_string(),
            self.attacks.to_string(),
        ]);
        t
    }
}

/// Runs experiment E2.
pub fn e2_mmu_lockdown() -> Result<MmuLockdownResult> {
    let families = [
        AttackFamily::CodeInjection,
        AttackFamily::NewExecutableMapping,
        AttackFamily::HypervisorMemoryRead,
    ];
    let mut guillotine_blocked = 0;
    let mut baseline_blocked = 0;
    let mut lockdown_rejections = 0;
    for family in families {
        let AttackVector::GuestProgram { assembly, .. } = RogueLibrary::vector(family) else {
            continue;
        };
        let program = assemble_at(&assembly, 0x1000)
            .map_err(|e| guillotine_types::GuillotineError::config(e.to_string()))?;

        let mut g = Machine::new(MachineConfig::guillotine(MachineId::new(10)));
        g.load_model_program(&program, 0x40000, true)?;
        if matches!(
            g.run_model_core(0, 100_000, SimInstant::ZERO)?,
            RunEvent::Fault(_)
        ) {
            guillotine_blocked += 1;
        }
        lockdown_rejections += g.model_memory().mmu_stats().lockdown_rejections
            + g.model_memory().mmu_stats().permission_faults;

        let mut b = TraditionalHypervisor::new(BaselineConfig::default());
        b.install_guest(&program, 0x40000)?;
        if matches!(b.run_quantum(0, SimInstant::ZERO)?, RunEvent::Fault(_)) {
            baseline_blocked += 1;
        }
    }
    Ok(MmuLockdownResult {
        attacks: families.len() as u32,
        guillotine_blocked,
        baseline_blocked,
        lockdown_rejections,
    })
}

// ----------------------------------------------------------------------
// E3: port-mediated IO cost vs direct device access (§3.2/§3.3).
// ----------------------------------------------------------------------

/// Result of the port-IO overhead experiment.
#[derive(Debug, Clone)]
pub struct PortIoResult {
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Requests issued on each path.
    pub requests: u64,
    /// Wall-clock nanoseconds per request through the Guillotine port path.
    pub guillotine_ns_per_request: f64,
    /// Wall-clock nanoseconds per request through the baseline direct path.
    pub baseline_ns_per_request: f64,
    /// Port-path requests that produced an audit record.
    pub audited_requests: u64,
}

impl PortIoResult {
    /// The overhead multiplier of mediation.
    pub fn overhead_factor(&self) -> f64 {
        if self.baseline_ns_per_request == 0.0 {
            0.0
        } else {
            self.guillotine_ns_per_request / self.baseline_ns_per_request
        }
    }

    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E3: IO mediation cost (echo device)",
            &["path", "ns/request", "audited"],
        );
        t.row(&[
            "guillotine port API".into(),
            format!("{:.0}", self.guillotine_ns_per_request),
            format!("{}/{}", self.audited_requests, self.requests),
        ]);
        t.row(&[
            "baseline direct (SR-IOV-style)".into(),
            format!("{:.0}", self.baseline_ns_per_request),
            format!("0/{}", self.requests),
        ]);
        t
    }
}

/// Runs experiment E3 with the given payload size and request count.
pub fn e3_port_io(payload_bytes: usize, requests: u64) -> Result<PortIoResult> {
    use std::time::Instant;
    let payload = vec![0x5Au8; payload_bytes.min(400)];

    // Guillotine path.
    let mut deployment = GuillotineDeployment::new(DeploymentConfig::default())?;
    let echo_dev = deployment
        .hypervisor_mut()
        .register_device(Box::new(EchoDevice::new()));
    let port = deployment
        .hypervisor_mut()
        .grant_port(PortKind::Storage, echo_dev);
    let events_before = deployment.hypervisor().machine().events().total_appended();
    let start = Instant::now();
    let mut served = 0u64;
    for _ in 0..requests {
        deployment
            .hypervisor_mut()
            .submit_model_request(port, IoOpcode::Send, payload.clone())?;
        let now = deployment.clock.now();
        let report = deployment.hypervisor_mut().service_io(now)?;
        served += report.served;
        let _ = deployment.hypervisor_mut().take_model_response()?;
    }
    let guillotine_ns = start.elapsed().as_nanos() as f64 / requests.max(1) as f64;
    let audited = deployment.hypervisor().machine().events().total_appended() - events_before;
    let _ = served;

    // Baseline direct path.
    let baseline = TraditionalHypervisor::new(BaselineConfig::default());
    let start = Instant::now();
    for i in 0..requests {
        let desc = IoDescriptor::request(PortId::new(0), IoOpcode::Send, i, payload.clone());
        let _ = baseline.direct_io(&desc);
    }
    let baseline_ns = start.elapsed().as_nanos() as f64 / requests.max(1) as f64;

    Ok(PortIoResult {
        payload_bytes,
        requests,
        guillotine_ns_per_request: guillotine_ns,
        baseline_ns_per_request: baseline_ns,
        audited_requests: audited.min(requests * 2),
    })
}

// ----------------------------------------------------------------------
// E4: interrupt-flood livelock and throttling (§3.2).
// ----------------------------------------------------------------------

/// Result of the interrupt-flood experiment.
#[derive(Debug, Clone)]
pub struct InterruptFloodResult {
    /// Scheduling quanta simulated.
    pub quanta: u64,
    /// Interrupts accepted with throttling (Guillotine).
    pub throttled_accepted: u64,
    /// Interrupts rejected by the throttle.
    pub throttled_rejected: u64,
    /// Interrupts accepted without throttling (baseline).
    pub unthrottled_accepted: u64,
    /// Fraction of quanta in which the throttled hypervisor got useful work
    /// done.
    pub throttled_useful_fraction: f64,
    /// Same fraction without throttling.
    pub unthrottled_useful_fraction: f64,
}

impl InterruptFloodResult {
    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E4: hypervisor useful work under a guest interrupt flood",
            &[
                "configuration",
                "accepted",
                "rejected",
                "useful-work fraction",
            ],
        );
        t.row(&[
            "guillotine (LAPIC throttle)".into(),
            self.throttled_accepted.to_string(),
            self.throttled_rejected.to_string(),
            format!("{:.2}", self.throttled_useful_fraction),
        ]);
        t.row(&[
            "traditional (no throttle)".into(),
            self.unthrottled_accepted.to_string(),
            "0".into(),
            format!("{:.2}", self.unthrottled_useful_fraction),
        ]);
        t
    }
}

fn flood_run(machine: &mut Machine, quanta: u64) -> Result<(u64, u64, f64)> {
    let AttackVector::GuestProgram { assembly, .. } =
        RogueLibrary::vector(AttackFamily::InterruptFlood)
    else {
        unreachable!("interrupt flood is a guest program");
    };
    let program = assemble_at(&assembly, 0x1000)
        .map_err(|e| guillotine_types::GuillotineError::config(e.to_string()))?;
    machine.load_model_program(&program, 0x40000, true)?;
    let mut useful_quanta = 0u64;
    // The hypervisor core can service at most this many interrupts per
    // 1 ms quantum before its own (heartbeat/audit/detector) work is starved.
    const SERVICE_BUDGET: u64 = 128;
    // The malicious guest attempts this many hvcalls per quantum — well above
    // both the throttle's sustained rate (100 per ms) and the service budget.
    const FLOOD_PER_QUANTUM: u64 = 300;
    for q in 0..quanta {
        let now = SimInstant::from_nanos(q * 1_000_000);
        // Each hvcall pauses the core waiting for a response, so complete the
        // IO immediately to keep the flood going.
        for _ in 0..FLOOD_PER_QUANTUM {
            let _ = machine.run_model_core(0, 50, now)?;
            machine.notify_io_completion(0)?;
        }
        let mut serviced = 0u64;
        while machine.service_interrupt(0)?.is_some() {
            serviced += 1;
            if serviced > FLOOD_PER_QUANTUM * 2 {
                break;
            }
        }
        if serviced <= SERVICE_BUDGET {
            useful_quanta += 1;
            machine.hypervisor_core_mut(0)?.do_useful_work(1);
        }
    }
    let stats = machine.hypervisor_core(0)?.interrupts().stats();
    Ok((
        stats.accepted,
        stats.throttled + stats.dropped_queue_full,
        useful_quanta as f64 / quanta.max(1) as f64,
    ))
}

/// Runs experiment E4 for `quanta` scheduling quanta on each configuration.
pub fn e4_interrupt_flood(quanta: u64) -> Result<InterruptFloodResult> {
    let mut throttled = Machine::new(MachineConfig::guillotine(MachineId::new(20)));
    let (t_acc, t_rej, t_frac) = flood_run(&mut throttled, quanta)?;
    let mut unthrottled = Machine::new(MachineConfig::traditional(MachineId::new(21)));
    let (u_acc, _u_rej, u_frac) = flood_run(&mut unthrottled, quanta)?;
    Ok(InterruptFloodResult {
        quanta,
        throttled_accepted: t_acc,
        throttled_rejected: t_rej,
        unthrottled_accepted: u_acc,
        throttled_useful_fraction: t_frac,
        unthrottled_useful_fraction: u_frac,
    })
}

// ----------------------------------------------------------------------
// E5: isolation-level transitions (§3.4).
// ----------------------------------------------------------------------

/// One measured transition.
#[derive(Debug, Clone)]
pub struct TransitionMeasurement {
    /// Source level.
    pub from: IsolationLevel,
    /// Target level.
    pub to: IsolationLevel,
    /// Who requested it.
    pub requester: String,
    /// Whether it was permitted.
    pub permitted: bool,
    /// Physical completion latency (zero when denied).
    pub latency: SimDuration,
}

/// Result of the isolation-transition experiment.
#[derive(Debug, Clone, Default)]
pub struct IsolationTransitionResult {
    /// All measured transitions.
    pub measurements: Vec<TransitionMeasurement>,
    /// Number of ratchet violations correctly denied.
    pub ratchet_denials: u32,
}

impl IsolationTransitionResult {
    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E5: isolation-level transition latencies",
            &["from", "to", "requester", "permitted", "latency"],
        );
        for m in &self.measurements {
            t.row(&[
                m.from.to_string(),
                m.to.to_string(),
                m.requester.clone(),
                m.permitted.to_string(),
                format!("{}", m.latency),
            ]);
        }
        t
    }
}

/// Runs experiment E5.
pub fn e5_isolation_transitions() -> Result<IsolationTransitionResult> {
    let mut result = IsolationTransitionResult::default();
    let machine = MachineId::new(30);
    let mut console = ControlConsole::new(
        QuorumHsm::new(AdminSet::standard(5)),
        HeartbeatConfig::default(),
    );
    console.register_machine(machine, SimInstant::ZERO);
    let mut now = SimInstant::ZERO;

    // Escalation ladder driven by the software hypervisor.
    for to in [
        IsolationLevel::Probation,
        IsolationLevel::Severed,
        IsolationLevel::Offline,
        IsolationLevel::Decapitation,
        IsolationLevel::Immolation,
    ] {
        now += SimDuration::from_secs(1);
        let from = console.level(machine).unwrap();
        match console.request_transition(machine, to, TransitionRequester::SoftwareHypervisor, now)
        {
            Ok(plan) => result.measurements.push(TransitionMeasurement {
                from,
                to,
                requester: "software-hypervisor".into(),
                permitted: true,
                latency: plan.completes_at.duration_since(plan.approved_at),
            }),
            Err(_) => result.measurements.push(TransitionMeasurement {
                from,
                to,
                requester: "software-hypervisor".into(),
                permitted: false,
                latency: SimDuration::ZERO,
            }),
        }
    }

    // Ratchet check: the software hypervisor tries to relax at every level of
    // a fresh console and must always be denied.
    let mut console2 = ControlConsole::new(
        QuorumHsm::new(AdminSet::standard(6)),
        HeartbeatConfig::default(),
    );
    let machine2 = MachineId::new(31);
    console2.register_machine(machine2, SimInstant::ZERO);
    for to in [IsolationLevel::Severed, IsolationLevel::Offline] {
        console2
            .request_transition(machine2, to, TransitionRequester::SoftwareHypervisor, now)
            .ok();
        let relax = console2.request_transition(
            machine2,
            IsolationLevel::Standard,
            TransitionRequester::SoftwareHypervisor,
            now,
        );
        if relax.is_err() {
            result.ratchet_denials += 1;
        }
        result.measurements.push(TransitionMeasurement {
            from: to,
            to: IsolationLevel::Standard,
            requester: "software-hypervisor".into(),
            permitted: relax.is_ok(),
            latency: SimDuration::ZERO,
        });
    }
    Ok(result)
}

// ----------------------------------------------------------------------
// E6: quorum robustness under administrator corruption (§3.4).
// ----------------------------------------------------------------------

/// One row of the quorum sweep.
#[derive(Debug, Clone, Copy)]
pub struct QuorumPoint {
    /// Number of corrupted administrators.
    pub corrupted: u32,
    /// Whether a malicious relaxation (only corrupted admins approve)
    /// succeeds.
    pub malicious_relaxation_succeeds: bool,
    /// Whether a legitimate restriction (only honest admins approve)
    /// succeeds.
    pub legitimate_restriction_succeeds: bool,
}

/// Result of the quorum experiment.
#[derive(Debug, Clone, Default)]
pub struct QuorumResult {
    /// One point per corruption level 0..=7.
    pub points: Vec<QuorumPoint>,
}

impl QuorumResult {
    /// The smallest number of corrupted admins that lets the model relax its
    /// own isolation.
    pub fn relaxation_threshold(&self) -> Option<u32> {
        self.points
            .iter()
            .find(|p| p.malicious_relaxation_succeeds)
            .map(|p| p.corrupted)
    }

    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E6: quorum outcomes vs corrupted administrators",
            &[
                "corrupted admins",
                "malicious relaxation",
                "legitimate restriction",
            ],
        );
        for p in &self.points {
            t.row(&[
                p.corrupted.to_string(),
                if p.malicious_relaxation_succeeds {
                    "succeeds"
                } else {
                    "blocked"
                }
                .into(),
                if p.legitimate_restriction_succeeds {
                    "succeeds"
                } else {
                    "blocked"
                }
                .into(),
            ]);
        }
        t
    }
}

/// Runs experiment E6.
pub fn e6_quorum() -> Result<QuorumResult> {
    let mut result = QuorumResult::default();
    for corrupted in 0..=ADMIN_SEATS as u32 {
        let mut admins = AdminSet::standard(99);
        admins.corrupt(corrupted as usize);
        let mut hsm = QuorumHsm::new(admins);

        // Malicious relaxation: only corrupted seats approve.
        let relax = Ballot {
            from: IsolationLevel::Severed,
            to: IsolationLevel::Standard,
            nonce: 1,
        };
        let votes: Vec<_> = (0..ADMIN_SEATS)
            .map(|i| {
                let kind = if hsm.admins().admins()[i].corrupted {
                    VoteKind::Approve
                } else {
                    VoteKind::Reject
                };
                hsm.cast_vote(AdminId::new(i as u32), &relax, kind)
            })
            .collect::<Result<Vec<_>>>()?;
        let malicious_ok = hsm.decide(&relax, &votes).is_ok();

        // Legitimate restriction: only honest seats approve.
        let restrict = Ballot {
            from: IsolationLevel::Standard,
            to: IsolationLevel::Severed,
            nonce: 2,
        };
        let votes: Vec<_> = (0..ADMIN_SEATS)
            .map(|i| {
                let kind = if hsm.admins().admins()[i].corrupted {
                    VoteKind::Reject
                } else {
                    VoteKind::Approve
                };
                hsm.cast_vote(AdminId::new(i as u32), &restrict, kind)
            })
            .collect::<Result<Vec<_>>>()?;
        let legit_ok = hsm.decide(&restrict, &votes).is_ok();

        result.points.push(QuorumPoint {
            corrupted,
            malicious_relaxation_succeeds: malicious_ok,
            legitimate_restriction_succeeds: legit_ok,
        });
    }
    Ok(result)
}

// ----------------------------------------------------------------------
// E7: heartbeat failure detection (§3.4).
// ----------------------------------------------------------------------

/// One row of the heartbeat sweep.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatPoint {
    /// Packet-loss probability on the console link.
    pub loss_probability: f64,
    /// Simulated time from machine death to the console forcing offline.
    pub detection_latency: SimDuration,
    /// Spurious offline transitions per 1000 healthy heartbeat periods.
    pub false_positives_per_1000: f64,
}

/// Result of the heartbeat experiment.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatResult {
    /// One point per loss rate.
    pub points: Vec<HeartbeatPoint>,
}

impl HeartbeatResult {
    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E7: heartbeat-loss detection vs packet loss",
            &[
                "loss",
                "detection latency",
                "false positives / 1000 periods",
            ],
        );
        for p in &self.points {
            t.row(&[
                format!("{:.0}%", p.loss_probability * 100.0),
                format!("{}", p.detection_latency),
                format!("{:.2}", p.false_positives_per_1000),
            ]);
        }
        t
    }
}

/// Runs experiment E7 over the given loss probabilities.
pub fn e7_heartbeat(loss_rates: &[f64], seed: u64) -> Result<HeartbeatResult> {
    let mut result = HeartbeatResult::default();
    let config = HeartbeatConfig::default();
    let machine = MachineId::new(40);
    for &loss in loss_rates {
        let mut network = Network::new(NetworkConfig {
            latency: SimDuration::from_micros(100),
            loss_probability: loss,
            seed,
        });
        network.add_link("machine", "console");
        let mut monitor = HeartbeatMonitor::new(config);
        monitor.watch(machine, SimInstant::ZERO);

        // Healthy phase: 1000 heartbeat periods.
        let mut false_positives = 0u64;
        let mut now = SimInstant::ZERO;
        for _ in 0..1000u64 {
            now += config.period;
            let _ = network.send("machine", "console", b"hb".to_vec(), now);
            network.advance_to(now + SimDuration::from_micros(100));
            while network.receive("console").is_some() {
                monitor.record(machine, now);
            }
            false_positives += monitor.check(now).len() as u64;
        }
        // Death phase: the machine stops sending; measure detection latency.
        let death = now;
        let mut detection = SimDuration::ZERO;
        for _ in 0..200u64 {
            now += config.period;
            if !monitor.check(now).is_empty() {
                detection = now.duration_since(death);
                break;
            }
        }
        result.points.push(HeartbeatPoint {
            loss_probability: loss,
            detection_latency: detection,
            false_positives_per_1000: false_positives as f64,
        });
    }
    Ok(result)
}

// ----------------------------------------------------------------------
// E8: detector efficacy (§3.3).
// ----------------------------------------------------------------------

/// Result of the detector experiment.
#[derive(Debug, Clone, Default)]
pub struct DetectorResult {
    /// Requests evaluated.
    pub requests: u64,
    /// Adversarial requests caught by any observation channel.
    pub adversarial_caught: u64,
    /// Total adversarial requests.
    pub adversarial_total: u64,
    /// Benign requests incorrectly flagged.
    pub benign_flagged: u64,
    /// Total benign requests.
    pub benign_total: u64,
}

impl DetectorResult {
    /// Detection rate over adversarial requests.
    pub fn detection_rate(&self) -> f64 {
        if self.adversarial_total == 0 {
            0.0
        } else {
            self.adversarial_caught as f64 / self.adversarial_total as f64
        }
    }

    /// False-positive rate over benign requests.
    pub fn false_positive_rate(&self) -> f64 {
        if self.benign_total == 0 {
            0.0
        } else {
            self.benign_flagged as f64 / self.benign_total as f64
        }
    }

    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("E8: composite detector efficacy", &["metric", "value"]);
        t.row(&["requests".into(), self.requests.to_string()]);
        t.row(&[
            "detection rate (adversarial)".into(),
            format!("{:.3}", self.detection_rate()),
        ]);
        t.row(&[
            "false-positive rate (benign)".into(),
            format!("{:.3}", self.false_positive_rate()),
        ]);
        t
    }
}

/// Runs experiment E8 over `n` generated requests with the given adversarial
/// fraction.
pub fn e8_detectors(n: usize, adversarial_fraction: f64, seed: u64) -> DetectorResult {
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        adversarial_fraction,
        seed,
        ..WorkloadConfig::default()
    });
    let mut detector = CompositeDetector::standard();
    let mut result = DetectorResult::default();
    let model = ModelId::new(0);
    for _ in 0..n {
        let request = generator.next_request();
        let trace = generator.activation_trace(request.class, 48);
        let response = generator.response_for(&request);
        let mut flagged = false;
        for obs in [
            ModelObservation::Prompt {
                model,
                text: request.prompt.as_str().into(),
            },
            ModelObservation::Activations { model, trace },
            ModelObservation::Response {
                model,
                text: response.as_str().into(),
                screened: None,
            },
        ] {
            if detector.inspect(&obs).flagged {
                flagged = true;
            }
        }
        result.requests += 1;
        if request.class.is_adversarial() {
            result.adversarial_total += 1;
            if flagged {
                result.adversarial_caught += 1;
            }
        } else {
            result.benign_total += 1;
            if flagged {
                result.benign_flagged += 1;
            }
        }
    }
    result
}

// ----------------------------------------------------------------------
// E9: attested handshakes and collusion refusal (§3.3).
// ----------------------------------------------------------------------

/// Result of the handshake experiment.
#[derive(Debug, Clone, Default)]
pub struct HandshakeResult {
    /// Guillotine ↔ plain-host connections accepted.
    pub guillotine_to_plain_accepted: u32,
    /// Connections where the peer could see the Guillotine flag.
    pub labelled_connections: u32,
    /// Guillotine ↔ Guillotine connections refused.
    pub collusion_refused: u32,
    /// Forged/expired certificates rejected.
    pub bad_certificates_rejected: u32,
    /// Attestation quotes verified.
    pub attestations_verified: u32,
}

impl HandshakeResult {
    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("E9: attested handshake outcomes", &["check", "count"]);
        t.row(&[
            "guillotine→plain accepted".into(),
            self.guillotine_to_plain_accepted.to_string(),
        ]);
        t.row(&[
            "peer sees guillotine label".into(),
            self.labelled_connections.to_string(),
        ]);
        t.row(&[
            "guillotine→guillotine refused".into(),
            self.collusion_refused.to_string(),
        ]);
        t.row(&[
            "forged/expired certs rejected".into(),
            self.bad_certificates_rejected.to_string(),
        ]);
        t.row(&[
            "attestation quotes verified".into(),
            self.attestations_verified.to_string(),
        ]);
        t
    }
}

/// Runs experiment E9 with `rounds` repetitions of each scenario.
pub fn e9_attested_handshake(rounds: u32) -> Result<HandshakeResult> {
    let mut result = HandshakeResult::default();
    let mut ca = RegulatorCa::new("Regulator", 3);
    let expires = SimInstant::ZERO + SimDuration::from_secs(86_400);
    let guillotine_a = Endpoint::new("g-a", ca.issue("g-a", 1, true, expires));
    let guillotine_b = Endpoint::new("g-b", ca.issue("g-b", 2, true, expires));
    let plain = Endpoint::new("plain", ca.issue("plain", 3, false, expires));
    let mut forged = Endpoint::new("forged", ca.issue("forged", 4, false, expires));
    forged.certificate.guillotine_hypervisor = true;

    for round in 0..rounds {
        let now = SimInstant::from_nanos(round as u64);
        let ok = guillotine_net::handshake::handshake(
            &ca,
            &guillotine_a,
            &plain,
            ConnectionId::new(round * 4),
            now,
        );
        if let Ok(chan) = ok.result {
            result.guillotine_to_plain_accepted += 1;
            if chan.involves_guillotine() {
                result.labelled_connections += 1;
            }
        }
        let collusion = guillotine_net::handshake::handshake(
            &ca,
            &guillotine_a,
            &guillotine_b,
            ConnectionId::new(round * 4 + 1),
            now,
        );
        if collusion.result.is_err() {
            result.collusion_refused += 1;
        }
        let bad = guillotine_net::handshake::handshake(
            &ca,
            &forged,
            &plain,
            ConnectionId::new(round * 4 + 2),
            now,
        );
        if bad.result.is_err() {
            result.bad_certificates_rejected += 1;
        }
        // Attestation check: the control terminal verifies the machine quote.
        let machine = Machine::new(MachineConfig::guillotine(MachineId::new(50 + round)));
        let quote = machine.attestation_quote(round as u64);
        if guillotine_hw::AttestationModule::verify(
            machine.config().device_key,
            &quote,
            quote.silicon,
            quote.hypervisor,
            round as u64,
        ) {
            result.attestations_verified += 1;
        }
    }
    Ok(result)
}

// ----------------------------------------------------------------------
// E10: audit-log completeness and overhead (§3.3).
// ----------------------------------------------------------------------

/// Result of the audit-overhead experiment.
#[derive(Debug, Clone, Default)]
pub struct AuditOverheadResult {
    /// Prompts served through the screened path.
    pub prompts_served: u64,
    /// Audit events recorded.
    pub events_recorded: u64,
    /// Events dropped due to log capacity pressure.
    pub events_dropped: u64,
    /// Wall-clock nanoseconds per served prompt (screening + logging).
    pub ns_per_prompt: f64,
}

impl AuditOverheadResult {
    /// Events per prompt.
    pub fn events_per_prompt(&self) -> f64 {
        if self.prompts_served == 0 {
            0.0
        } else {
            self.events_recorded as f64 / self.prompts_served as f64
        }
    }

    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("E10: audit completeness and overhead", &["metric", "value"]);
        t.row(&["prompts served".into(), self.prompts_served.to_string()]);
        t.row(&["events recorded".into(), self.events_recorded.to_string()]);
        t.row(&["events dropped".into(), self.events_dropped.to_string()]);
        t.row(&["ns per prompt".into(), format!("{:.0}", self.ns_per_prompt)]);
        t
    }
}

/// Runs experiment E10 over `n` benign prompts.
pub fn e10_audit_overhead(n: u64) -> Result<AuditOverheadResult> {
    use std::time::Instant;
    let mut deployment = GuillotineDeployment::new(DeploymentConfig::default())?;
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        adversarial_fraction: 0.0,
        ..WorkloadConfig::default()
    });
    let before = deployment.hypervisor().machine().events().total_appended();
    let gpu_port = deployment.ports().gpu;
    let start = Instant::now();
    let mut served = 0u64;
    for _ in 0..n {
        let request = generator.next_request();
        // Mirror the model's port traffic so the audit trail covers IO too.
        deployment.hypervisor_mut().submit_model_request(
            gpu_port,
            IoOpcode::Send,
            request.output_tokens.to_le_bytes().to_vec(),
        )?;
        let now = deployment.clock.now();
        deployment.hypervisor_mut().service_io(now)?;
        let _ = deployment.hypervisor_mut().take_model_response()?;
        let out = deployment.serve_prompt(&request.prompt)?;
        if out.delivered() {
            served += 1;
        }
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let events = deployment.hypervisor().machine().events();
    Ok(AuditOverheadResult {
        prompts_served: served,
        events_recorded: events.total_appended() - before,
        events_dropped: events.total_dropped(),
        ns_per_prompt: elapsed / n.max(1) as f64,
    })
}

// ----------------------------------------------------------------------
// E11: policy classification and compliance (§3.5).
// ----------------------------------------------------------------------

/// Result of the policy experiment.
#[derive(Debug, Clone, Default)]
pub struct PolicyResult {
    /// Number of models in the census.
    pub census_size: u32,
    /// Models classified as systemic risk.
    pub systemic: u32,
    /// Systemic models compliant before any are moved onto Guillotine.
    pub compliant_before: u32,
    /// Systemic models compliant after being moved onto Guillotine with
    /// attestation and audits.
    pub compliant_after: u32,
    /// Mean safe-harbor damages for compliant operators (arbitrary units).
    pub compliant_damages: f64,
    /// Mean damages for non-compliant operators.
    pub noncompliant_damages: f64,
}

impl PolicyResult {
    /// Renders the result as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E11: policy classification and compliance",
            &["metric", "value"],
        );
        t.row(&["census size".into(), self.census_size.to_string()]);
        t.row(&["systemic-risk models".into(), self.systemic.to_string()]);
        t.row(&[
            "compliant before Guillotine".into(),
            self.compliant_before.to_string(),
        ]);
        t.row(&[
            "compliant after Guillotine".into(),
            self.compliant_after.to_string(),
        ]);
        t.row(&[
            "mean damages (compliant)".into(),
            format!("{:.0}", self.compliant_damages),
        ]);
        t.row(&[
            "mean damages (non-compliant)".into(),
            format!("{:.0}", self.noncompliant_damages),
        ]);
        t
    }
}

/// Runs experiment E11 over a synthetic model census.
pub fn e11_policy() -> PolicyResult {
    let classifier = RiskClassifier::default();
    let checker = ComplianceChecker::new(classifier);
    let harbor = SafeHarborPolicy::default();
    let sizes: [u64; 8] = [
        100_000_000,
        1_000_000_000,
        7_000_000_000,
        70_000_000_000,
        176_000_000_000,
        405_000_000_000,
        1_000_000_000_000,
        1_800_000_000_000,
    ];
    let autonomies = [
        AutonomyLevel::Tool,
        AutonomyLevel::Agent,
        AutonomyLevel::SelfDirected,
    ];
    let mut result = PolicyResult::default();
    let mut id = 0u32;
    let mut damages_compliant = Vec::new();
    let mut damages_noncompliant = Vec::new();
    for &params in &sizes {
        for &autonomy in &autonomies {
            id += 1;
            let mut card = ModelCard::new(ModelId::new(id), &format!("model-{id}"), params);
            card.autonomy = autonomy;
            result.census_size += 1;
            let tier = classifier.classify(&card);
            if tier != RiskTier::Systemic {
                continue;
            }
            result.systemic += 1;
            let empty_audits = AuditScheduler::new();
            let before = checker.check(&card, &empty_audits, SimInstant::ZERO);
            if before.compliant {
                result.compliant_before += 1;
            }
            damages_noncompliant.push(harbor.assess(1_000_000.0, &before).adjusted_damages);

            // Operator moves the model onto Guillotine with attestation and
            // a full commissioning audit set.
            card.deployed_on_guillotine = true;
            card.attestation_verified = true;
            let mut audits = AuditScheduler::new();
            for kind in [
                guillotine_policy::AuditKind::SourceCode,
                guillotine_policy::AuditKind::Attestation,
                guillotine_policy::AuditKind::Physical,
            ] {
                audits.record(guillotine_policy::AuditRecord {
                    model: card.id,
                    kind,
                    at: SimInstant::ZERO,
                    passed: true,
                    notes: String::new(),
                });
            }
            let after = checker.check(&card, &audits, SimInstant::ZERO);
            if after.compliant {
                result.compliant_after += 1;
            }
            damages_compliant.push(harbor.assess(1_000_000.0, &after).adjusted_damages);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    result.compliant_damages = mean(&damages_compliant);
    result.noncompliant_damages = mean(&damages_noncompliant);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_guillotine_leaks_nothing_baseline_leaks_a_lot() {
        let r = e1_side_channel(4, 11);
        assert!(
            r.baseline_correct_bits > 55.0,
            "baseline recovers the secret: {r:?}"
        );
        assert_eq!(r.guillotine_cross_domain_evictions, 0);
        assert!(r.baseline_cross_domain_evictions > 0);
    }

    #[test]
    fn e2_lockdown_blocks_all_injection() {
        let r = e2_mmu_lockdown().unwrap();
        assert_eq!(r.guillotine_blocked, r.attacks);
        assert!(r.baseline_blocked < r.attacks);
    }

    #[test]
    fn e6_thresholds_match_the_paper() {
        let r = e6_quorum().unwrap();
        assert_eq!(r.relaxation_threshold(), Some(5));
        let p4 = r.points[4];
        assert!(!p4.malicious_relaxation_succeeds);
        assert!(p4.legitimate_restriction_succeeds);
        let p5 = r.points[5];
        assert!(p5.malicious_relaxation_succeeds);
        assert!(
            !p5.legitimate_restriction_succeeds,
            "only 2 honest approvals remain"
        );
    }

    #[test]
    fn e8_detects_most_adversarial_with_low_false_positives() {
        let r = e8_detectors(400, 0.5, 3);
        assert!(
            r.detection_rate() > 0.8,
            "detection rate {}",
            r.detection_rate()
        );
        assert!(
            r.false_positive_rate() < 0.2,
            "fp rate {}",
            r.false_positive_rate()
        );
    }

    #[test]
    fn e9_policies_hold_every_round() {
        let r = e9_attested_handshake(5).unwrap();
        assert_eq!(r.guillotine_to_plain_accepted, 5);
        assert_eq!(r.labelled_connections, 5);
        assert_eq!(r.collusion_refused, 5);
        assert_eq!(r.bad_certificates_rejected, 5);
        assert_eq!(r.attestations_verified, 5);
    }

    #[test]
    fn e11_guillotine_flips_compliance() {
        let r = e11_policy();
        assert!(r.systemic > 0);
        assert_eq!(r.compliant_before, 0);
        assert_eq!(r.compliant_after, r.systemic);
        assert!(r.noncompliant_damages > r.compliant_damages * 5.0);
    }
}
