//! Golden NoC fingerprints: seven 8x8 router configurations, each run
//! under both stepping modes, must hash to fixed FNV-64 values.
//!
//! Dense and event stepping share `Router`, so the dense-vs-event
//! matrices elsewhere cannot notice a change *inside* the router (an
//! arbitration order, a VC pick, a credit edge). These constants can:
//! they were recorded before the router's buffers and allocators were
//! rewritten for speed, and any behavioural drift — one delivery cycle,
//! one fault verdict, one payload-pool slot — changes the hash.
//!
//! Each fingerprint covers the delivery log (id, payload, destination,
//! delivery cycle, hops, corruption mark), crossbar transfers, per-class
//! delivered/flit counts and latency sum/max, lost/stuck/pool-live
//! counts, fault counters, the median crossbar and link utilisation bits
//! and periodic `useful_free_output_vcs` probes.

use snacknoc_noc::{
    Dir, FaultPlan, FaultTargets, LinkFaultKind, Network, NocConfig, NodeId, PacketSpec,
    RoutingAlgorithm, Stepping, TrafficClass,
};
use snacknoc_prng::Rng;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One golden scenario: a router configuration, an optional fault plan
/// and whether the traffic mixes all three classes.
struct Scenario {
    name: &'static str,
    cfg: NocConfig,
    plan: Option<FaultPlan>,
    mixed_classes: bool,
}

fn all_classes() -> FaultTargets {
    FaultTargets { data: true, instructions: true, communication: true }
}

fn scenarios() -> Vec<Scenario> {
    let mesh = |cfg: NocConfig| cfg.with_mesh(8, 8).with_sample_window(500);
    let node = |x: usize, y: usize| NodeId::new(y * 8 + x);
    vec![
        Scenario {
            name: "default",
            cfg: mesh(NocConfig::default()),
            plan: None,
            mixed_classes: false,
        },
        Scenario {
            name: "default-priority-mixed",
            cfg: mesh(NocConfig::default().with_priority_arbitration(true)),
            plan: None,
            mixed_classes: true,
        },
        Scenario {
            name: "dapper-yx",
            cfg: mesh(NocConfig::dapper().with_routing(RoutingAlgorithm::Yx)),
            plan: None,
            mixed_classes: false,
        },
        Scenario {
            name: "axnoc-priority",
            cfg: mesh(NocConfig::axnoc().with_priority_arbitration(true)),
            plan: None,
            mixed_classes: true,
        },
        Scenario {
            name: "one-vc-one-buffer",
            cfg: mesh(NocConfig::default().with_vcs_per_vnet(1).with_buffers_per_vc(1)),
            plan: None,
            mixed_classes: false,
        },
        Scenario {
            name: "seeded-drop-corrupt",
            cfg: mesh(NocConfig::default()),
            plan: Some(
                FaultPlan::seeded(0x5eed)
                    .with_drop_rate(0.03)
                    .with_corrupt_rate(0.05)
                    .with_targets(all_classes()),
            ),
            mixed_classes: true,
        },
        Scenario {
            name: "link-windows",
            cfg: mesh(NocConfig::axnoc()),
            plan: Some(
                FaultPlan::seeded(0xfa17)
                    .with_targets(all_classes())
                    .with_link_fault(node(3, 3), Dir::East, 200, 700, LinkFaultKind::Down)
                    .with_link_fault(
                        node(4, 2),
                        Dir::South,
                        150,
                        900,
                        LinkFaultKind::Drop { rate: 0.6 },
                    )
                    .with_link_fault(
                        node(2, 5),
                        Dir::West,
                        300,
                        1_100,
                        LinkFaultKind::Corrupt { rate: 0.7 },
                    )
                    .with_link_fault(node(5, 4), Dir::North, 1_600, 1_750, LinkFaultKind::Down),
            ),
            mixed_classes: true,
        },
    ]
}

/// Runs `s` under `stepping` and hashes everything observable.
fn fingerprint(s: &Scenario, stepping: Stepping) -> u64 {
    let mut net: Network<u64> = Network::new(s.cfg.clone()).expect("valid config");
    net.set_stepping(stepping);
    if let Some(plan) = &s.plan {
        net.set_fault_plan(plan.clone()).expect("valid plan");
    }
    let nodes = net.mesh().node_count();
    let vnets = u64::from(s.cfg.vnets);
    let classes =
        [TrafficClass::Communication, TrafficClass::SnackInstruction, TrafficClass::SnackData];
    let probes = [NodeId::new(0), NodeId::new(9), NodeId::new(27), NodeId::new(63)];
    let mut rng = Rng::new(0x901d);
    let mut h = Fnv::new();
    let mut tag = 0u64;
    // Bursts of traffic separated by idle stretches, so event stepping
    // takes clock jumps between them.
    for burst in 0..4u64 {
        for _ in 0..400 {
            for src in 0..nodes {
                if rng.unit_f64() >= 0.05 {
                    continue;
                }
                let dst = rng.range_usize(0..nodes);
                let bytes = *rng.choose(&[8u32, 40, 72, 200]).expect("non-empty");
                let class = if s.mixed_classes {
                    *rng.choose(&classes).expect("non-empty")
                } else {
                    classes[0]
                };
                let vnet = rng.range(0..vnets) as u8;
                let mut spec =
                    PacketSpec::new(NodeId::new(src), NodeId::new(dst), vnet, class, bytes, tag);
                if rng.range(0..8) == 0 {
                    spec = spec.with_protected();
                }
                net.inject(spec).expect("valid spec");
                tag += 1;
            }
            net.step();
            if net.cycle().is_multiple_of(37) {
                for p in probes {
                    let (free, total) = net.useful_free_output_vcs(p);
                    h.word(free as u64);
                    h.word(total as u64);
                }
            }
        }
        let idle_until = net.cycle() + 150 + 100 * burst;
        net.step_until(idle_until);
    }
    for _ in 0..1_000 {
        if net.pending_packets() == 0 {
            break;
        }
        let target = net.cycle() + 64;
        net.step_until(target);
    }
    assert_eq!(net.pending_packets(), 0, "{}: {}", s.name, net.stall_report());
    for node in 0..nodes {
        for p in net.drain_ejected(NodeId::new(node)) {
            for w in [
                p.id,
                p.payload,
                p.dst.index() as u64,
                p.delivered_at,
                u64::from(p.hops),
                u64::from(p.corrupted),
            ] {
                h.word(w);
            }
        }
    }
    let c = net.fault_counters();
    for w in [
        net.cycle(),
        net.lost_packets(),
        net.stuck_packets() as u64,
        net.payload_pool_live() as u64,
        c.injected,
        c.dropped_flits,
        c.dropped_packets,
        c.corrupted_packets,
    ] {
        h.word(w);
    }
    let stats = net.finalize_stats();
    h.word(stats.crossbar_transfers);
    h.word(stats.injected_flits);
    h.word(stats.protocol_errors.total());
    for class in classes {
        let cs = stats.class(class);
        for w in [cs.delivered, cs.flits, cs.latency_sum, cs.latency_max] {
            h.word(w);
        }
    }
    h.word(stats.median_crossbar_utilization().to_bits());
    h.word(stats.median_link_utilization().to_bits());
    h.0
}

/// Recorded before the router rewrite; see the module docs.
const GOLDEN: [(&str, u64); 7] = [
    ("default", 0x83b8_73eb_062f_c40d),
    ("default-priority-mixed", 0x934a_22b1_38c6_1905),
    ("dapper-yx", 0x8de1_bd47_baff_e161),
    ("axnoc-priority", 0x12b5_3c05_e826_7f53),
    ("one-vc-one-buffer", 0xd547_7204_d719_f202),
    ("seeded-drop-corrupt", 0xf174_45dd_867d_b026),
    ("link-windows", 0x83e3_cec7_7d10_7ee2),
];

#[test]
fn router_configs_match_their_golden_fingerprints_in_both_modes() {
    let mut mismatches = Vec::new();
    for (s, &(name, want)) in scenarios().iter().zip(GOLDEN.iter()) {
        assert_eq!(s.name, name, "scenario table and golden table are in step");
        for stepping in Stepping::ALL {
            let got = fingerprint(s, stepping);
            if got != want {
                mismatches.push(format!("{name} ({stepping}): got {got:#018x}, want {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "golden fingerprints moved:\n{}", mismatches.join("\n"));
}
