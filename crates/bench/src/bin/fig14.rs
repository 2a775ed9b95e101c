//! Figure 14: BSP-bulk execution time under LB / LB+IDT / LB++ /
//! LB++NOLOG (epoch size 10000), normalized to NP.
//!
//! Paper shape: gmean ≈ 1.5 / 1.35 / 1.3 / 1.16; ssca2 drops from 4.22x
//! to 2.62x.
//!
//! Run: `cargo run -p pbm-bench --release --bin fig14 [--quick] [--jobs=N]`

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
    base.bsp_epoch_size = 10_000;
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
        for (label, kind, logging) in [
            ("LB", BarrierKind::Lb, true),
            ("LB+IDT", BarrierKind::LbIdt, true),
            ("LB++", BarrierKind::LbPp, true),
            ("LB++NOLOG", BarrierKind::LbPp, false),
        ] {
            let mut c = base.clone();
            c.barrier = kind;
            c.logging = logging;
            v.push((label.to_string(), c));
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
    let mut per_cfg: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for chunk in results.chunks(5) {
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
        "Figure 14: execution time normalized to NP (BSP, epoch = 10K stores)",
        &["workload", "LB", "LB+IDT", "LB++", "LB++NOLOG"],
        &rows,
    );
    println!("\npaper gmean: LB 1.5, LB+IDT 1.35, LB++ 1.3, LB++NOLOG 1.16");
}
