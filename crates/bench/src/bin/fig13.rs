//! Figure 13: BSP-bulk execution time with epoch sizes 300 / 1000 / 10000
//! dynamic stores, normalized to the no-persistency baseline (NP).
//!
//! Paper shape: gmean ≈ 1.9 / 1.5 / 1.45; LB1K beats LB10K on canneal,
//! dedup, intruder and vacation.
//!
//! Run: `cargo run -p pbm-bench --release --bin fig13 [--quick] [--jobs=N]`

use pbm_bench::{gmean, print_system_header, print_table, quick_mode, Runner};
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::apps::{self, AppParams};

fn main() {
    let mut params = AppParams::paper();
    if quick_mode() {
        params.threads = 8;
        params.ops_per_thread = 800;
    }
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedStrictBulk;
    if quick_mode() {
        base.cores = 8;
        base.llc_banks = 8;
        base.mesh_rows = 2;
    }
    print_system_header(&base);

    let configs: Vec<(String, SystemConfig)> = {
        let mut v = Vec::new();
        let mut np = base.clone();
        np.barrier = BarrierKind::NoPersistency;
        v.push(("NP".to_string(), np));
        for size in [300u64, 1000, 10_000] {
            let mut c = base.clone();
            c.barrier = BarrierKind::Lb;
            c.bsp_epoch_size = size;
            v.push((format!("LB{size}"), c));
        }
        v
    };

    let mut jobs = Vec::new();
    for wl in apps::all(&params) {
        for (label, cfg) in &configs {
            jobs.push((label.clone(), wl.name.to_string(), cfg.clone(), wl.clone()));
        }
    }
    let results = Runner::from_args().run(jobs);

    let mut rows = Vec::new();
    let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for chunk in results.chunks(4) {
        let np_cycles = chunk[0].stats.cycles as f64;
        let normalized: Vec<f64> = chunk[1..]
            .iter()
            .map(|r| r.stats.cycles as f64 / np_cycles)
            .collect();
        for (k, v) in normalized.iter().enumerate() {
            per_cfg[k].push(*v);
        }
        rows.push((chunk[0].workload.clone(), normalized));
    }
    rows.push((
        "gmean".to_string(),
        per_cfg.iter().map(|v| gmean(v)).collect(),
    ));
    print_table(
        "Figure 13: execution time normalized to NP (BSP epoch-size sweep)",
        &["workload", "LB300", "LB1K", "LB10K"],
        &rows,
    );
    println!("\npaper gmean: LB300 1.9, LB1K 1.5, LB10K ~1.45");
}
