//! Experiment harness: runs (configuration x workload) matrices and prints
//! the rows/series of the paper's tables and figures.
//!
//! Every figure binary (`fig11`, `fig12`, `fig13`, `fig14`) and ablation
//! (`ablation_flush`, `ablation_writethrough`) is built on these helpers;
//! see EXPERIMENTS.md at the repository root for the paper-vs-measured
//! record they produce.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod obs;
pub mod profiling;
pub mod runner;

pub use obs::{run_one_instrumented, ObsOptions};
pub use runner::{jobs_from_args, Runner};

use pbm_types::{BarrierKind, PersistencyKind, SimStats, SystemConfig};
use pbm_workloads::Workload;

/// One completed cell of the grid.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Configuration label (barrier kind, epoch size, ...).
    pub config: String,
    /// The run's statistics.
    pub stats: SimStats,
}

/// One grid job: `(config label, workload label, config, workload)`.
pub type Job = (String, String, SystemConfig, Workload);

/// The BSP barrier ladder `profile_bsp` and `calibrate_bsp` sweep: NP, LB
/// at three epoch sizes, IDT, LB++ and LB++ without the undo log, each
/// rung as `(label, barrier, epoch size, undo logging)`.
pub const BSP_LADDER: [(&str, BarrierKind, u64, bool); 7] = [
    ("NP", BarrierKind::NoPersistency, 10_000, true),
    ("LB300", BarrierKind::Lb, 300, true),
    ("LB1K", BarrierKind::Lb, 1000, true),
    ("LB10K", BarrierKind::Lb, 10_000, true),
    ("IDT10K", BarrierKind::LbIdt, 10_000, true),
    ("LB++10K", BarrierKind::LbPp, 10_000, true),
    ("NOLOG", BarrierKind::LbPp, 10_000, false),
];

/// Every ladder rung over `wl`, in ladder order, on the paper's 32-core
/// system under BSP-bulk persistency.
pub fn bsp_ladder_jobs(wl: &Workload) -> Vec<Job> {
    BSP_LADDER
        .iter()
        .map(|&(label, barrier, epoch_size, logging)| {
            let mut cfg = SystemConfig::micro48();
            cfg.persistency = PersistencyKind::BufferedStrictBulk;
            cfg.barrier = barrier;
            cfg.bsp_epoch_size = epoch_size;
            cfg.logging = logging;
            (label.to_string(), wl.name.to_string(), cfg, wl.clone())
        })
        .collect()
}

/// Geometric mean (the paper's summary statistic for throughput and
/// execution-time ratios).
///
/// # Panics
///
/// Panics if `xs` is empty or contains a non-positive value.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of nothing");
    let log_sum: f64 = xs
        .iter()
        .map(|x| {
            assert!(*x > 0.0, "gmean needs positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean (used for Figure 12's conflict percentages).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn amean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "amean of nothing");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Prints a fixed-width table: header row, one row per entry, with the
/// first column left-aligned and the rest right-aligned to 10 chars.
pub fn print_table(title: &str, headers: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    print!("{:<12}", headers[0]);
    for h in &headers[1..] {
        print!("{h:>10}");
    }
    println!();
    for (name, values) in rows {
        print!("{name:<12}");
        for v in values {
            print!("{v:>10.3}");
        }
        println!();
    }
}

/// Prints the Table 1 header (system parameters) so every experiment's
/// output records the platform it ran on.
pub fn print_system_header(cfg: &SystemConfig) {
    println!(
        "# system: {} cores, {}KiB L1 x{}-way, {}x{}MiB LLC x{}-way, {} MCs, \
         NVRAM w/r {}/{} cycles, mesh {}x{}, barrier {}, model {}",
        cfg.cores,
        cfg.l1_size / 1024,
        cfg.l1_assoc,
        cfg.llc_banks,
        cfg.llc_bank_size / (1024 * 1024),
        cfg.llc_assoc,
        cfg.mcs,
        cfg.nvram_write_latency,
        cfg.nvram_read_latency,
        cfg.mesh_rows,
        cfg.mesh_cols(),
        cfg.barrier,
        cfg.persistency,
    );
}

/// True if `--quick` was passed (smaller scale for CI / smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_constants() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn amean_basic() {
        assert!((amean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        let _ = gmean(&[0.0]);
    }
}
