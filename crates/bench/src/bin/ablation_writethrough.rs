//! Ablation A2 (§7.2 text): the naive write-through implementation of
//! strict persistency vs the NP baseline.
//!
//! Paper claim: ~8x slower than NP, which is why the paper implements BSP
//! in bulk mode instead.
//!
//! Run: `cargo run -p pbm-bench --release --bin ablation_writethrough
//!           [--quick] [--jobs=N] [--trace-out=t.json] [--metrics-csv=m.csv]`

use pbm_bench::{gmean, print_system_header, print_table, quick_mode, Runner};
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::apps::{self, AppParams};

fn main() {
    let mut params = AppParams::paper();
    if quick_mode() {
        params.threads = 8;
        params.ops_per_thread = 400;
    } else {
        // Write-through runs ~8x longer; keep the matrix affordable.
        params.ops_per_thread = 2000;
    }
    let mut base = SystemConfig::micro48();
    if quick_mode() {
        base.cores = 8;
        base.llc_banks = 8;
        base.mesh_rows = 2;
    }
    print_system_header(&base);

    let mut jobs = Vec::new();
    for wl in apps::all(&params) {
        let mut np = base.clone();
        np.barrier = BarrierKind::NoPersistency;
        np.persistency = PersistencyKind::BufferedEpoch;
        jobs.push(("NP".to_string(), wl.name.to_string(), np, wl.clone()));
        let mut wt = base.clone();
        wt.barrier = BarrierKind::WriteThrough;
        wt.persistency = PersistencyKind::Strict;
        jobs.push(("WT".to_string(), wl.name.to_string(), wt, wl.clone()));
    }
    let results = Runner::from_args().run(jobs);

    let mut rows = Vec::new();
    let mut slowdowns = Vec::new();
    for chunk in results.chunks(2) {
        let np = chunk[0].stats.cycles as f64;
        let wt = chunk[1].stats.cycles as f64;
        let slowdown = wt / np;
        slowdowns.push(slowdown);
        rows.push((chunk[0].workload.clone(), vec![slowdown]));
    }
    rows.push(("gmean".to_string(), vec![gmean(&slowdowns)]));
    print_table(
        "Ablation A2: naive write-through strict persistency vs NP",
        &["workload", "slowdown"],
        &rows,
    );
    println!("\npaper: write-through is ~8x slower than NP");
}
