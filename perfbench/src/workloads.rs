//! The four workloads, with every input pinned here.
//!
//! Nothing is read from the library's `paper()` presets: thread counts,
//! operation counts, structure capacity, think/work cycles and seeds are
//! written out below, so a change to a preset cannot silently change what
//! the benchmark measures. The workload seed comes from `--seed`; the
//! programs are a deterministic function of it.

use pbm_check::CaseSpec;
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::apps::{self, AppParams};
use pbm_workloads::micro::{self, MicroParams};
use pbm_workloads::random::{random_programs, RandomProgramParams};
use pbm_workloads::Workload;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["bep_micro", "bsp_app", "crash_sweep", "trace_prof"];

/// Why each workload is in the benchmark (printed with every run).
pub fn why(name: &str) -> &'static str {
    match name {
        "bep_micro" => {
            "Fig 11/12 grid at paper scale: the simulator's event loop, access and flush \
             paths do ~99% of the work, and it is the only workload with paper reference numbers"
        }
        "bsp_app" => {
            "BSP-bulk ladder on two write-heavy app proxies: hardware epoch cuts replace \
             barriers and undo-log writes double NVRAM write traffic, so a flush-path change \
             that helps BEP but costs logging shows here"
        }
        "crash_sweep" => {
            "exhaustive crash sweeps of random 4-core programs: snapshot building and the \
             checker do nearly all the work and the simulator almost none"
        }
        "trace_prof" => {
            "Fig 11 quick grid with program tracing on, through pbm-prof and the Chrome \
             export: the only workload that runs obs emit/export and prof"
        }
        _ => "",
    }
}

/// What a workload's `items_per_s` counts: the per-workload throughput
/// metric it stands for, and the item.
pub fn item(name: &str) -> (&'static str, &'static str) {
    match name {
        "crash_sweep" => ("crash_points_per_s", "crash points"),
        "trace_prof" => ("trace_events_per_s", "trace events"),
        _ => ("sim_ops_per_s", "sim ops"),
    }
}

/// The Fig 11/12 grid: five micro-benchmarks under the four lazy barrier
/// variants, BEP, one cell per (micro, variant).
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// System shape shared by every cell (barrier set per cell).
    pub system: SystemConfig,
    /// Micro-benchmark inputs.
    pub micro: MicroParams,
}

/// The BSP-bulk ladder over a few application proxies.
#[derive(Debug, Clone)]
pub struct BspSpec {
    /// System shape shared by every cell (barrier and epoch size per cell).
    pub system: SystemConfig,
    /// Application proxies, by name.
    pub apps: Vec<&'static str>,
    /// Proxy inputs.
    pub params: AppParams,
    /// `(label, barrier, hardware epoch size in stores)`.
    pub ladder: Vec<(&'static str, BarrierKind, u64)>,
}

/// Crash-sweep cases: random programs checked at every crash point.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Shape of each core's random program.
    pub program: RandomProgramParams,
    /// `(barrier, persistency, cases)`; case `i` of the whole list uses
    /// program seed `seed + i`.
    pub groups: Vec<(BarrierKind, PersistencyKind, usize)>,
    /// BSP hardware epoch size (stores).
    pub bsp_epoch_size: u64,
    /// Base program seed.
    pub seed: u64,
}

/// One workload's complete input description.
#[derive(Debug, Clone)]
pub enum Spec {
    /// `bep_micro`: untraced grid.
    BepMicro(GridSpec),
    /// `bsp_app`: untraced BSP ladder.
    BspApp(BspSpec),
    /// `crash_sweep`.
    CrashSweep(SweepSpec),
    /// `trace_prof`: traced grid through prof and export.
    TraceProf(GridSpec),
}

impl Spec {
    /// The pinned, full-size inputs of workload `name` under `seed`.
    pub fn full(name: &str, seed: u64) -> Option<Spec> {
        Some(match name {
            "bep_micro" => Spec::BepMicro(grid(32, 4, 64, seed)),
            // 4,000 ops/thread keeps a pass near 1.5 s on a 2-core host.
            "bsp_app" => Spec::BspApp(bsp(32, 4, 4_000, seed)),
            // At 300 ops/core the sweep's super-linear cost already
            // outweighs the checked simulation about 200-fold.
            "crash_sweep" => Spec::CrashSweep(sweep(300, 4, seed)),
            // The quick grid: at paper scale one Chrome export alone takes
            // tens of seconds.
            "trace_prof" => Spec::TraceProf(grid(8, 2, 16, seed)),
            _ => return None,
        })
    }

    /// The same workload at a size a unit test can afford.
    #[cfg(test)]
    pub fn tiny(name: &str, seed: u64) -> Option<Spec> {
        Some(match name {
            "bep_micro" => Spec::BepMicro(grid(4, 2, 2, seed)),
            "bsp_app" => Spec::BspApp(bsp(4, 2, 100, seed)),
            "crash_sweep" => Spec::CrashSweep(sweep(20, 1, seed)),
            "trace_prof" => Spec::TraceProf(grid(4, 2, 2, seed)),
            _ => return None,
        })
    }
}

/// Table 1's machine with `cores` cores, one LLC bank per core, on a
/// mesh of `mesh_rows` rows.
fn system(cores: usize, mesh_rows: usize, persistency: PersistencyKind) -> SystemConfig {
    let mut cfg = SystemConfig::micro48();
    cfg.cores = cores;
    cfg.llc_banks = cores;
    cfg.mesh_rows = mesh_rows;
    cfg.persistency = persistency;
    cfg
}

fn grid(threads: usize, mesh_rows: usize, tx_per_thread: usize, seed: u64) -> GridSpec {
    GridSpec {
        system: system(threads, mesh_rows, PersistencyKind::BufferedEpoch),
        // The values Fig 11/12 were calibrated with, written out.
        micro: MicroParams {
            threads,
            ops_per_thread: tx_per_thread,
            entry_bytes: 512,
            capacity: 384,
            think_cycles: 6000,
            work_cycles: 1200,
            partition_locality: 0.90,
            seed,
        },
    }
}

fn bsp(threads: usize, mesh_rows: usize, ops_per_thread: usize, seed: u64) -> BspSpec {
    BspSpec {
        system: system(threads, mesh_rows, PersistencyKind::BufferedStrictBulk),
        // ssca2 shares at fine grain, canneal barely shares: the two ends
        // of the inter-thread conflict range among the write-heavy proxies.
        apps: vec!["ssca2", "canneal"],
        params: AppParams {
            threads,
            ops_per_thread,
            seed,
        },
        ladder: vec![
            ("NP", BarrierKind::NoPersistency, 10_000),
            ("LB300", BarrierKind::Lb, 300),
            ("LB10K", BarrierKind::Lb, 10_000),
            ("LB++10K", BarrierKind::LbPp, 10_000),
        ],
    }
}

fn sweep(ops_per_core: usize, cases_per_group: usize, seed: u64) -> SweepSpec {
    SweepSpec {
        // The fuzz campaign's mixed shape: shared stores over 16 lines.
        program: RandomProgramParams {
            ops: ops_per_core,
            shared_lines: 16,
            disjoint_stores: false,
            cores: 4,
        },
        groups: vec![
            (
                BarrierKind::LbPp,
                PersistencyKind::BufferedEpoch,
                cases_per_group,
            ),
            (
                BarrierKind::Lb,
                PersistencyKind::BufferedStrictBulk,
                cases_per_group,
            ),
        ],
        bsp_epoch_size: 7,
        seed,
    }
}

/// One simulated cell of a grid or ladder.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Configuration label (barrier variant, epoch size).
    pub config: String,
    /// Index into the generated workloads.
    pub workload: usize,
    /// The full system configuration.
    pub cfg: SystemConfig,
}

/// Generated programs plus the cells that run them.
#[derive(Debug)]
pub struct Generated {
    /// Generated workloads.
    pub workloads: Vec<Workload>,
    /// Cells, workload-major.
    pub cells: Vec<Cell>,
}

impl GridSpec {
    /// Generates the five micro-benchmarks; cells in Fig 11 order.
    pub fn generate(&self) -> Generated {
        let workloads = micro::all(&self.micro);
        let cells = (0..workloads.len())
            .flat_map(|w| {
                BarrierKind::LAZY_VARIANTS.into_iter().map(move |kind| {
                    let mut cfg = self.system.clone();
                    cfg.barrier = kind;
                    Cell {
                        config: kind.to_string(),
                        workload: w,
                        cfg,
                    }
                })
            })
            .collect();
        Generated { workloads, cells }
    }
}

impl BspSpec {
    /// Generates the proxies; cells app-major along the ladder.
    pub fn generate(&self) -> Generated {
        let workloads: Vec<Workload> = self
            .apps
            .iter()
            .map(|name| {
                let profile = apps::profile(name).expect("pinned proxy names exist");
                apps::build(profile, &self.params)
            })
            .collect();
        let cells = (0..workloads.len())
            .flat_map(|w| {
                self.ladder.iter().map(move |&(label, barrier, epoch)| {
                    let mut cfg = self.system.clone();
                    cfg.barrier = barrier;
                    cfg.bsp_epoch_size = epoch;
                    Cell {
                        config: label.to_string(),
                        workload: w,
                        cfg,
                    }
                })
            })
            .collect();
        Generated { workloads, cells }
    }
}

impl SweepSpec {
    /// Generates every case's programs.
    pub fn generate(&self) -> Vec<CaseSpec> {
        self.groups
            .iter()
            .flat_map(|&(barrier, persistency, n)| (0..n).map(move |_| (barrier, persistency)))
            .enumerate()
            .map(|(i, (barrier, persistency))| {
                let seed = self.seed.wrapping_add(i as u64);
                CaseSpec {
                    programs: random_programs(seed, self.program.cores, &self.program),
                    barrier,
                    persistency,
                    perturb_seed: None,
                    bsp_epoch_size: self.bsp_epoch_size,
                    seed,
                }
            })
            .collect()
    }
}
