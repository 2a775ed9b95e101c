//! Ablation A4: the in-flight epoch window (the 3-bit epoch id).
//!
//! §4.3 supports 8 in-flight epochs per core. Fewer epochs mean the core
//! back-pressures at barriers sooner; more epochs cost tag bits. This sweep
//! runs the BEP micro-benchmarks with windows of 2/4/8/16 under LB (where
//! the window matters most — nothing flushes proactively).
//!
//! Run: `cargo run -p pbm-bench --release --bin ablation_inflight [--quick]
//!           [--jobs=N] [--trace-out=t.json] [--metrics-csv=m.csv]`

use pbm_bench::{gmean, print_system_header, print_table, quick_mode, Runner};
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::micro::{self, MicroParams};

fn main() {
    let mut params = MicroParams::paper();
    if quick_mode() {
        params.threads = 8;
        params.ops_per_thread = 16;
    }
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedEpoch;
    base.barrier = BarrierKind::Lb;
    if quick_mode() {
        base.cores = 8;
        base.llc_banks = 8;
        base.mesh_rows = 2;
    }
    print_system_header(&base);

    let windows = [2usize, 4, 8, 16];
    let mut jobs = Vec::new();
    for wl in micro::all(&params) {
        for w in windows {
            let mut cfg = base.clone();
            cfg.inflight_epochs = w;
            jobs.push((format!("{w} epochs"), wl.name.to_string(), cfg, wl.clone()));
        }
    }
    let results = Runner::from_args().run(jobs);

    let mut rows = Vec::new();
    let mut per_w: Vec<Vec<f64>> = vec![Vec::new(); windows.len()];
    for chunk in results.chunks(windows.len()) {
        // Normalize to the paper's window of 8 (index 2).
        let base_tput = chunk[2].stats.throughput();
        let normalized: Vec<f64> = chunk
            .iter()
            .map(|r| r.stats.throughput() / base_tput)
            .collect();
        for (k, v) in normalized.iter().enumerate() {
            per_w[k].push(*v);
        }
        rows.push((chunk[0].workload.clone(), normalized));
    }
    rows.push((
        "gmean".to_string(),
        per_w.iter().map(|v| gmean(v)).collect(),
    ));
    print_table(
        "Ablation A4: in-flight epoch window (throughput vs window = 8)",
        &["workload", "w=2", "w=4", "w=8", "w=16"],
        &rows,
    );
    println!("\npaper: 8 in-flight epochs (3-bit epoch id in cache tags)");
}
