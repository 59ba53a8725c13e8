//! E1–E12: the paper-claim experiments. Each prints its results table(s)
//! at full size, then times one reduced-size call.

use guillotine::campaign::run_escape_campaign;
use guillotine::experiments::*;
use guillotine_bench::time;

pub fn e1() {
    println!("{}", e1_side_channel(8, 42).table().render());
    time("e1_side_channel/prime_probe_trial_pair", 10, || {
        e1_side_channel(1, 7)
    });
}

pub fn e2() {
    println!("{}", e2_mmu_lockdown().unwrap().table().render());
    time("e2_mmu_lockdown/injection_attack_battery", 10, || {
        e2_mmu_lockdown().unwrap()
    });
}

pub fn e3() {
    for size in [64usize, 256, 400] {
        let result = e3_port_io(size, 500).unwrap();
        println!("{}", result.table().render());
        println!(
            "payload {size} B: overhead factor {:.2}x\n",
            result.overhead_factor()
        );
    }
    for size in [64usize, 400] {
        time(&format!("e3_port_io/mediated_vs_direct/{size}"), 10, || {
            e3_port_io(size, 50).unwrap()
        });
    }
}

pub fn e4() {
    println!("{}", e4_interrupt_flood(500).unwrap().table().render());
    time("e4_interrupt_flood/flood_200_quanta", 10, || {
        e4_interrupt_flood(200).unwrap()
    });
}

pub fn e5() {
    let result = e5_isolation_transitions().unwrap();
    println!("{}", result.table().render());
    println!("ratchet denials: {}\n", result.ratchet_denials);
    time(
        "e5_isolation_transitions/full_escalation_ladder",
        20,
        || e5_isolation_transitions().unwrap(),
    );
}

pub fn e6() {
    println!("{}", e6_quorum().unwrap().table().render());
    time("e6_quorum/corruption_sweep", 30, || e6_quorum().unwrap());
}

pub fn e7() {
    let result = e7_heartbeat(&[0.0, 0.01, 0.05, 0.1, 0.3], 11).unwrap();
    println!("{}", result.table().render());
    time("e7_heartbeat/loss_sweep", 10, || {
        e7_heartbeat(&[0.0, 0.1], 3).unwrap()
    });
}

pub fn e8() {
    println!("{}", e8_detectors(2000, 0.5, 9).table().render());
    time("e8_detectors/screen_500_requests", 10, || {
        e8_detectors(500, 0.2, 3)
    });
}

pub fn e9() {
    println!("{}", e9_attested_handshake(20).unwrap().table().render());
    time("e9_attested_handshake/handshake_scenarios", 20, || {
        e9_attested_handshake(5).unwrap()
    });
}

pub fn e10() {
    let result = e10_audit_overhead(500).unwrap();
    println!("{}", result.table().render());
    println!("events per prompt: {:.1}\n", result.events_per_prompt());
    time("e10_audit_overhead/serve_100_prompts", 10, || {
        e10_audit_overhead(100).unwrap()
    });
}

pub fn e11() {
    println!("{}", e11_policy().table().render());
    time("e11_policy/census_classification", 30, e11_policy);
}

pub fn e12() {
    let report = run_escape_campaign(2025).unwrap();
    println!("{}", report.table().render());
    println!(
        "guillotine contained {}/{}, baseline contained {}/{}\n",
        report.guillotine_contained(),
        report.rows.len(),
        report.baseline_contained(),
        report.rows.len()
    );
    time("e12_escape_campaign/full_campaign", 10, || {
        run_escape_campaign(1).unwrap()
    });
}
