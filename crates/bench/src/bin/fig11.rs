//! Figure 11: BEP transaction throughput of the five micro-benchmarks
//! under LB / LB+IDT / LB+PF / LB++, normalized to LB.
//!
//! Paper shape: gmean ≈ 1.00 / 1.03 / 1.17 / 1.22.
//!
//! Run: `cargo run -p pbm-bench --release --bin fig11 [--quick] [--jobs=N]`

use pbm_bench::profiling::{fig11_base, fig11_jobs};
use pbm_bench::{gmean, print_system_header, print_table, quick_mode, Runner};

fn main() {
    print_system_header(&fig11_base(quick_mode()));
    let jobs = fig11_jobs(quick_mode());
    let results = Runner::from_args().run(jobs);

    let mut rows = Vec::new();
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for chunk in results.chunks(4) {
        let lb_tput = chunk[0].stats.throughput();
        let normalized: Vec<f64> = chunk
            .iter()
            .map(|r| r.stats.throughput() / lb_tput)
            .collect();
        for (k, v) in normalized.iter().enumerate() {
            per_kind[k].push(*v);
        }
        rows.push((chunk[0].workload.clone(), normalized));
    }
    rows.push((
        "gmean".to_string(),
        per_kind.iter().map(|v| gmean(v)).collect(),
    ));
    print_table(
        "Figure 11: normalized transaction throughput (BEP micro-benchmarks)",
        &["workload", "LB", "LB+IDT", "LB+PF", "LB++"],
        &rows,
    );
    println!("\npaper gmean: LB 1.00, LB+IDT 1.03, LB+PF 1.17, LB++ 1.22");
}
