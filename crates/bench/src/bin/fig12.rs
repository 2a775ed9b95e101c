//! Figure 12: percentage of epochs flushed because of a conflict, for the
//! five micro-benchmarks under LB / LB+IDT / LB+PF / LB++.
//!
//! Paper shape: amean ≈ 90 / 90 / 77 / 75 percent.
//!
//! Run: `cargo run -p pbm-bench --release --bin fig12 [--quick] [--jobs=N]`

use pbm_bench::{amean, print_system_header, print_table, quick_mode, Runner};
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
    if quick_mode() {
        base.cores = 8;
        base.llc_banks = 8;
        base.mesh_rows = 2;
    }
    print_system_header(&base);

    let mut jobs = Vec::new();
    for wl in micro::all(&params) {
        for kind in BarrierKind::LAZY_VARIANTS {
            let mut cfg = base.clone();
            cfg.barrier = kind;
            jobs.push((kind.to_string(), wl.name.to_string(), cfg, wl.clone()));
        }
    }
    let results = Runner::from_args().run(jobs);

    let mut rows = Vec::new();
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for chunk in results.chunks(4) {
        let pct: Vec<f64> = chunk
            .iter()
            .map(|r| r.stats.conflicting_epoch_pct())
            .collect();
        for (k, v) in pct.iter().enumerate() {
            per_kind[k].push(*v);
        }
        rows.push((chunk[0].workload.clone(), pct));
    }
    rows.push((
        "amean".to_string(),
        per_kind.iter().map(|v| amean(v)).collect(),
    ));
    print_table(
        "Figure 12: % conflicting epochs (BEP micro-benchmarks)",
        &["workload", "LB", "LB+IDT", "LB+PF", "LB++"],
        &rows,
    );
    println!("\npaper amean: LB 90, LB+IDT 90, LB+PF 77, LB++ 75");
}
