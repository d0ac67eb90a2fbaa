//! Sensitivity ablation: do the paper's qualitative results survive
//! changes to the memory-system constants? Runs a miniature Figure-7
//! comparison under three machine configurations (faster/slower network,
//! longer line service). The orderings — SimpleLinear ahead at low P,
//! FunnelTree ahead at high P, SimpleTree collapsing — should hold in all
//! of them; only the absolute cycle counts move.

use funnelpq_bench::{lat, print_table, scaled_ops};
use funnelpq_sim::MachineConfig;
use funnelpq_simqueues::queues::Algorithm;
use funnelpq_simqueues::workload::{run_queue_workload, Workload};

fn main() {
    let configs = [
        (
            "alewife-like (net=10, svc=4)",
            MachineConfig::alewife_like(),
        ),
        (
            "fast net (net=4, svc=2)",
            MachineConfig {
                net_latency: 4,
                service: 2,
                line_words: 2,
                nodes: 1,
                remote_ratio: 1,
            },
        ),
        (
            "slow service (net=10, svc=12)",
            MachineConfig {
                net_latency: 10,
                service: 12,
                line_words: 2,
                nodes: 1,
                remote_ratio: 1,
            },
        ),
    ];
    for (label, machine) in configs {
        let mut rows = Vec::new();
        for &p in &[8usize, 64, 256] {
            let wl = Workload {
                procs: p,
                num_priorities: 16,
                ops_per_proc: scaled_ops(),
                local_work: 50,
                seed: 0xAB1A,
                machine,
                naive_events: false,
            };
            let mut row = vec![p.to_string()];
            for algo in Algorithm::SCALABLE {
                let r = run_queue_workload(algo, &wl);
                row.push(lat(r.all.mean()));
            }
            rows.push(row);
        }
        let mut header = vec!["P"];
        header.extend(Algorithm::SCALABLE.iter().map(|a| a.name()));
        print_table(
            &format!("Memory-model sensitivity — {label}"),
            &header,
            &rows,
        );
    }
}
