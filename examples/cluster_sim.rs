//! Cluster simulation: the measured interference matrix driving an
//! *online* scheduler — jobs arrive over time and a policy decides, per
//! arrival, whether to consolidate and with whom.
//!
//! Compares first-fit against interference-aware placement on a mixed
//! queue of the paper's workloads.
//!
//! ```sh
//! cargo run --release --example cluster_sim
//! ```

use std::sync::Arc;

use cochar::cluster::policy::{InterferenceAware, Spread};
use cochar::cluster::{simulate, Job, Workload};
use cochar::prelude::*;
use cochar::sched::CostMatrix;

fn main() {
    let cfg = MachineConfig::bench();
    let registry = Arc::new(Registry::new(Scale::for_config(&cfg)));
    let study = Study::new(cfg, registry);

    // Job types seen by the cluster; measure their pairwise costs once.
    let apps = ["G-CC", "CIFAR", "fotonik3d", "mcf", "swaptions", "blackscholes"];
    println!("measuring the {}x{} interference matrix...", apps.len(), apps.len());
    let matrix = CostMatrix::measure(&study, &apps);

    // A day's queue: bursty arrivals of mixed types (deterministic mix).
    let mut jobs = Vec::new();
    let mut t = 0.0;
    for wave in 0..6u32 {
        for (k, _) in apps.iter().enumerate() {
            jobs.push(Job {
                app: (k + wave as usize) % apps.len(),
                arrival: t + k as f64 * 0.5,
                work: 8.0 + (k as f64 * 2.0) % 7.0,
            });
        }
        t += 12.0;
    }
    println!("{} jobs arriving over {:.0} time units\n", jobs.len(), t);

    // Four two-slot nodes. At two slots, spread is the first-fit that
    // takes an empty node before sharing one.
    let qos = 1.5;
    let small = SimConfig { nodes: 4, slots: 2, qos_cap: qos, ..SimConfig::default() };
    let mut policies: Vec<(&str, Box<dyn ClusterPolicy>)> = vec![
        ("first-fit", Box::new(Spread)),
        ("interference-aware", Box::new(InterferenceAware::new(qos))),
        (
            "interference-strict",
            Box::new(InterferenceAware { qos_cap: qos, strict: true }),
        ),
    ];
    println!(
        "{:<22} {:>9} {:>9} {:>12} {:>12}",
        "policy", "makespan", "stretch", "QoS-viol t", "node-seconds"
    );
    for (label, p) in &mut policies {
        let out = simulate(&matrix, &matrix, p.as_mut(), &jobs, &small)
            .expect("no policy leaves jobs queued on an idle cluster");
        println!(
            "{label:<22} {:>9.1} {:>9.2} {:>12.1} {:>12.1}",
            out.makespan, out.mean_stretch, out.qos_violation_time, out.node_seconds
        );
    }
    println!("\nreading: interference-aware placement trades a little consolidation");
    println!("density for large QoS and stretch wins; the strict variant refuses any");
    println!("pairing above {qos}x and queues instead (Bubble-flux-style guarantees).");

    // Part 2: the same matrix at cluster scale (cochar-cluster). 64
    // four-slot nodes, a seeded Poisson workload, every policy scored
    // against the interference-aware baseline.
    let cfg = SimConfig { nodes: 64, slots: 4, qos_cap: qos, ..SimConfig::default() };
    let rate = Workload::rate_for_utilization(0.7, cfg.nodes, cfg.slots, 8.0);
    let wl = Workload { arrival_rate: rate, mean_work: 8.0, seed: 7 };
    let cluster_jobs = wl.generate(2000, matrix.len());
    println!(
        "\ncluster scale: {} jobs on {} nodes x {} slots (k-way max composition)\n",
        cluster_jobs.len(),
        cfg.nodes,
        cfg.slots
    );
    println!("{:<22} {:>9} {:>12} {:>12}", "policy", "stretch", "QoS-viol t", "node-seconds");
    for kind in PolicyKind::all() {
        let run_cfg = SimConfig {
            defrag_period: kind.wants_defrag().then_some(25.0),
            ..cfg
        };
        let mut p = kind.build(7, qos);
        let out = simulate(&matrix, &matrix, p.as_mut(), &cluster_jobs, &run_cfg)
            .expect("non-strict policies terminate");
        println!(
            "{:<22} {:>9.2} {:>12.1} {:>12.1}",
            kind.to_string(),
            out.mean_stretch,
            out.qos_violation_time,
            out.node_seconds
        );
    }
    println!("\nsee `cochar cluster compare` for the full regret report, including");
    println!("placement from the *predicted* matrix instead of the measured one.");
}
