//! Ablation A3: how many IDT dependence/inform register pairs per epoch
//! are enough?
//!
//! §4.3 provisions 4 pairs (64 bytes per L1); an overflow falls back to an
//! online flush. This sweep runs the BSP application proxies — where
//! inter-thread dependences dominate — with 1/2/4/8 pairs and reports the
//! overflow rate and execution time, justifying the paper's sizing.
//!
//! Run: `cargo run -p pbm-bench --release --bin ablation_idt_pairs [--quick]
//!           [--jobs=N] [--trace-out=t.json] [--metrics-csv=m.csv]`

use pbm_bench::{print_system_header, print_table, quick_mode, Runner};
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::apps::{self, AppParams};

fn main() {
    let mut params = AppParams::paper();
    params.ops_per_thread = if quick_mode() { 800 } else { 4000 };
    if quick_mode() {
        params.threads = 8;
    }
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedStrictBulk;
    base.barrier = BarrierKind::LbPp;
    base.bsp_epoch_size = 1000;
    if quick_mode() {
        base.cores = 8;
        base.llc_banks = 8;
        base.mesh_rows = 2;
    }
    print_system_header(&base);

    let pairs = [1usize, 2, 4, 8];
    let mut jobs = Vec::new();
    for name in ["intruder", "ssca2", "vacation"] {
        let wl = apps::build(apps::profile(name).expect("known"), &params);
        for p in pairs {
            let mut cfg = base.clone();
            cfg.idt_pairs = p;
            jobs.push((format!("{p} pairs"), name.to_string(), cfg, wl.clone()));
        }
    }
    let results = Runner::from_args().run(jobs);

    let mut rows = Vec::new();
    for chunk in results.chunks(pairs.len()) {
        let base_cycles = chunk[chunk.len() - 1].stats.cycles as f64; // 8 pairs
        let mut cols = Vec::new();
        for r in chunk {
            cols.push(r.stats.cycles as f64 / base_cycles);
        }
        for r in chunk {
            let total = (r.stats.idt_recorded + r.stats.idt_overflows).max(1);
            cols.push(100.0 * r.stats.idt_overflows as f64 / total as f64);
        }
        rows.push((chunk[0].workload.clone(), cols));
    }
    print_table(
        "Ablation A3: IDT register pairs per epoch (time vs 8 pairs | overflow %)",
        &[
            "workload", "t@1", "t@2", "t@4", "t@8", "ovf%@1", "ovf%@2", "ovf%@4", "ovf%@8",
        ],
        &rows,
    );
    println!("\npaper: 4 pairs per epoch (64 B per L1) suffice");
}
