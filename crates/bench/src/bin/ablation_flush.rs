//! Ablation A1 (§7 text): invalidating (`clflush`-style) vs
//! non-invalidating (`clwb`-style) epoch flushes on the BEP
//! micro-benchmarks.
//!
//! Paper claim: non-invalidating flushes are ~30% faster, because
//! invalidating flushes evict the working set and later accesses re-fetch
//! from NVRAM.
//!
//! Run: `cargo run -p pbm-bench --release --bin ablation_flush [--quick]
//!           [--jobs=N] [--trace-out=t.json] [--metrics-csv=m.csv]`

use pbm_bench::{gmean, print_system_header, print_table, quick_mode, Runner};
use pbm_types::{BarrierKind, FlushMode, PersistencyKind, SystemConfig};
use pbm_workloads::micro::{self, MicroParams};

fn main() {
    let mut params = MicroParams::paper();
    if quick_mode() {
        params.threads = 8;
        params.ops_per_thread = 16;
    }
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedEpoch;
    base.barrier = BarrierKind::LbPp;
    if quick_mode() {
        base.cores = 8;
        base.llc_banks = 8;
        base.mesh_rows = 2;
    }
    print_system_header(&base);

    let mut jobs = Vec::new();
    for wl in micro::all(&params) {
        for (label, mode) in [
            ("clwb", FlushMode::NonInvalidating),
            ("clflush", FlushMode::Invalidating),
        ] {
            let mut cfg = base.clone();
            cfg.flush_mode = mode;
            jobs.push((label.to_string(), wl.name.to_string(), cfg, wl.clone()));
        }
    }
    let results = Runner::from_args().run(jobs);

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for chunk in results.chunks(2) {
        let clwb = chunk[0].stats.throughput();
        let clflush = chunk[1].stats.throughput();
        let speedup = clwb / clflush;
        speedups.push(speedup);
        rows.push((chunk[0].workload.clone(), vec![clwb, clflush, speedup]));
    }
    rows.push((
        "gmean".to_string(),
        vec![f64::NAN, f64::NAN, gmean(&speedups)],
    ));
    print_table(
        "Ablation A1: clwb vs clflush flush mode (LB++, BEP micros)",
        &["workload", "clwb", "clflush", "speedup"],
        &rows,
    );
    println!("\npaper: non-invalidating flush ~30% faster (speedup ~1.3)");
}
