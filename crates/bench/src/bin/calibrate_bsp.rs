//! BSP calibration sweep: every application proxy across the barrier
//! ladder ([`pbm_bench::BSP_LADDER`]), normalized to NP — a quick way to
//! eyeball whether the proxies still land in the paper's Figure 13/14
//! range after a model change.
//!
//! Run: `cargo run -p pbm-bench --release --bin calibrate_bsp -- \
//!           [ops] [--quick] [--jobs=N]`
//!
//! `ops` is per thread: 8,000 by default, 1,000 under `--quick`.

use pbm_bench::{bsp_ladder_jobs, quick_mode, Job, Runner, BSP_LADDER};
use pbm_workloads::apps::{self, AppParams};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops: usize = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick_mode() { 1000 } else { 8000 });
    let mut params = AppParams::paper();
    params.ops_per_thread = ops;
    let cells: Vec<Job> = apps::PROFILES
        .iter()
        .flat_map(|prof| bsp_ladder_jobs(&apps::build(prof, &params)))
        .collect();
    let results = Runner::from_args().run(cells);

    print!("{:<9}", "app");
    for (label, ..) in &BSP_LADDER[1..] {
        print!(" {label:>7}");
    }
    println!();
    for chunk in results.chunks(BSP_LADDER.len()) {
        let np_c = chunk[0].stats.cycles as f64;
        print!("{:<9}", chunk[0].workload);
        for r in &chunk[1..] {
            print!(" {:>7.2}", r.stats.cycles as f64 / np_c);
        }
        println!();
    }
}
