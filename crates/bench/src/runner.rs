//! Parallel experiment runner: executes independent (workload, barrier,
//! config) grid cells on a scoped worker pool.
//!
//! Every figure and ablation binary builds its cell grid, hands it to a
//! [`Runner`], and prints from the returned results — which always come
//! back in grid order, regardless of worker count, so the tables are
//! byte-identical at any `--jobs=N`. Flags understood by every runner
//! binary:
//!
//! * `--jobs=N` — worker threads (default: available parallelism).
//! * `--trace-out=` / `--metrics-csv=` / `--metrics-interval=` — per-cell
//!   observability artifacts (see [`crate::obs::ObsOptions`]); each cell's
//!   outputs go to a distinct `-<config>-<workload>`-suffixed path so
//!   concurrent cells never interleave into one file.

use crate::obs::{run_one_instrumented, ObsOptions};
use crate::{Job, RunResult};
use pbm_prof::Profile;
use pbm_types::{Cycle, MetricSample, TraceEvent};
use std::thread;

/// Parses `--jobs=N` from the process arguments; defaults to the host's
/// available parallelism. Exits with a diagnostic on a malformed value.
pub fn jobs_from_args() -> usize {
    for arg in std::env::args() {
        if let Some(n) = arg.strip_prefix("--jobs=") {
            match n.parse::<usize>() {
                Ok(v) if v > 0 => return v,
                _ => {
                    eprintln!("error: --jobs takes a positive worker count, got {n:?}");
                    std::process::exit(2);
                }
            }
        }
    }
    thread::available_parallelism().map_or(4, usize::from)
}

/// One profiled cell: its result, the pbm-prof analysis of its trace and
/// its sampled metrics series.
pub type ProfiledRun = (RunResult, Profile, Vec<MetricSample>);

/// A worker pool that runs experiment cells in parallel.
///
/// Results are collected in deterministic grid order (input order), so
/// callers can keep indexing result chunks exactly as with a sequential
/// loop. When observability flags are active, every cell gets its own
/// artifact set at a label-suffixed path.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    obs: ObsOptions,
}

impl Runner {
    /// A runner configured from the process arguments (`--jobs=` and the
    /// observability flags).
    pub fn from_args() -> Self {
        Self::new(jobs_from_args(), ObsOptions::from_args())
    }

    /// A runner with explicit worker count and observability options.
    pub fn new(jobs: usize, obs: ObsOptions) -> Self {
        assert!(jobs > 0, "need at least one worker");
        Runner { jobs, obs }
    }

    /// Runs the cell grid on the worker pool; results in grid order.
    pub fn run(&self, cells: Vec<Job>) -> Vec<RunResult> {
        self.run_cells(cells, false, |result, _, _| result)
    }

    /// Like [`Runner::run`], but every cell runs traced and sampled at the
    /// metrics interval. Each worker analyzes its cell's trace with
    /// [`pbm_prof::analyze`] and drops the events (a traced paper-scale
    /// cell is millions of events, its profile a few hundred barriers), so
    /// peak memory stays bounded by one trace per worker.
    pub fn profile(&self, cells: Vec<Job>) -> Vec<ProfiledRun> {
        self.run_cells(cells, true, |result, events, samples| {
            (result, pbm_prof::analyze(events), samples)
        })
    }

    /// Simulates each cell once, instrumented as the observability options
    /// (or `profile`) require, writes its artifacts, and hands its result,
    /// events and samples to `keep` on the worker.
    fn run_cells<T: Send>(
        &self,
        cells: Vec<Job>,
        profile: bool,
        keep: impl Fn(RunResult, &[TraceEvent], Vec<MetricSample>) -> T + Sync,
    ) -> Vec<T> {
        let obs = &self.obs;
        let tracing = profile || obs.trace_out.is_some();
        let interval =
            (profile || obs.metrics_csv.is_some()).then(|| Cycle::new(obs.metrics_interval));
        pbm_check::parallel_map(self.jobs, cells, |(config, workload, cfg, wl)| {
            let (stats, events, samples) = run_one_instrumented(cfg, &wl, tracing, interval);
            obs.for_label(&format!("{config}-{workload}"))
                .write_artifacts(&events, &samples, &format!("{workload}/{config}"));
            let result = RunResult {
                workload,
                config,
                stats,
            };
            keep(result, &events, samples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_sim::ProgramBuilder;
    use pbm_types::{Addr, SystemConfig};
    use pbm_workloads::Workload;

    fn tiny_grid(n: usize) -> Vec<Job> {
        let mut cfg = SystemConfig::small_test();
        cfg.cores = 1;
        let mut b = ProgramBuilder::new();
        b.store(Addr::new(0), 1).barrier();
        let wl = Workload {
            name: "t",
            programs: vec![b.build()],
            preloads: vec![],
        };
        (0..n)
            .map(|i| (format!("c{i}"), "t".to_string(), cfg.clone(), wl.clone()))
            .collect()
    }

    #[test]
    fn results_come_back_in_grid_order() {
        let runner = Runner::new(3, ObsOptions::default());
        let results = runner.run(tiny_grid(7));
        assert_eq!(results.len(), 7);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.config, format!("c{i}"));
            assert_eq!(r.stats.stores, 1);
        }
    }

    #[test]
    fn profiled_runs_carry_the_profile_and_series() {
        let obs = ObsOptions {
            metrics_interval: 10,
            ..ObsOptions::default()
        };
        let runner = Runner::new(2, obs);
        let plain = runner.run(tiny_grid(2));
        let profiled = runner.profile(tiny_grid(2));
        assert_eq!(profiled.len(), 2);
        for ((r, profile, samples), p) in profiled.iter().zip(&plain) {
            assert_eq!(r.stats, p.stats, "tracing and sampling change no count");
            assert_eq!(profile.barriers.len() as u64, r.stats.epochs_persisted);
            assert!(!samples.is_empty(), "sampler attached");
        }
    }

    #[test]
    fn worker_counts_agree_on_stats() {
        let one = Runner::new(1, ObsOptions::default()).run(tiny_grid(5));
        let many = Runner::new(8, ObsOptions::default()).run(tiny_grid(5));
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.stats, b.stats);
        }
    }
}
