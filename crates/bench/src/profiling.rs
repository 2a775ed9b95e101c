//! The causal-profiling pipeline behind the `prof` binary: the shared
//! fig11 grid and the `BENCH_prof.json` document built from
//! [`crate::Runner::profile`]'s traced per-cell runs.
//!
//! Lives in the library (rather than the binary) so the grid is shared
//! with `fig11` — the profiler attributes exactly the cells the figure
//! measures — and so the `--jobs` determinism of the whole pipeline is
//! testable in-process. `quick` is an explicit parameter everywhere (not
//! re-read from the environment) for the same reason.

use crate::runner::ProfiledRun;
use crate::Job;
use pbm_obs::json::JsonValue;
use pbm_prof::{report, Profile};
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::micro::{self, MicroParams};

/// The fig11 system base: micro48 under BEP, shrunk in quick mode.
pub fn fig11_base(quick: bool) -> SystemConfig {
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedEpoch;
    if quick {
        base.cores = 8;
        base.llc_banks = 8;
        base.mesh_rows = 2;
    }
    base
}

/// The fig11 micro-benchmark parameters, shrunk in quick mode.
pub fn fig11_params(quick: bool) -> MicroParams {
    let mut params = MicroParams::paper();
    if quick {
        params.threads = 8;
        params.ops_per_thread = 16;
    }
    params
}

/// The fig11 cell grid — every micro-benchmark under every lazy barrier
/// variant, in figure order (workload-major, [`BarrierKind::LAZY_VARIANTS`]
/// within each workload).
pub fn fig11_jobs(quick: bool) -> Vec<Job> {
    let params = fig11_params(quick);
    let base = fig11_base(quick);
    let mut jobs = Vec::new();
    for wl in micro::all(&params) {
        for kind in BarrierKind::LAZY_VARIANTS {
            let mut cfg = base.clone();
            cfg.barrier = kind;
            jobs.push((kind.to_string(), wl.name.to_string(), cfg, wl.clone()));
        }
    }
    jobs
}

/// Builds the `pbm-bench-prof/v1` document from profiled cells (grid
/// order preserved).
pub fn bench_prof_doc(profiles: &[ProfiledRun], quick: bool) -> JsonValue {
    report::bench_doc(
        profiles
            .iter()
            .map(|(r, profile, _)| report::cell_json(&r.config, &r.workload, profile))
            .collect(),
        quick,
    )
}

/// The component holding most of `profile`'s attributed cycles, with its
/// share (`nvram_write (41%)`), or `-` if nothing was attributed.
pub fn dominant_label(profile: &Profile) -> String {
    profile.totals.dominant().map_or("-".to_string(), |(c, n)| {
        format!("{c} ({}%)", n * 100 / profile.totals.total().max(1))
    })
}

/// Filesystem slug of a cell label pair (`LB++`, `queue` → `lb___queue`):
/// lowercase alphanumerics, everything else `_` — same convention as
/// [`crate::ObsOptions::for_label`].
pub fn cell_slug(config: &str, workload: &str) -> String {
    format!("{config}_{workload}")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_fig11_shape() {
        let jobs = fig11_jobs(true);
        assert_eq!(jobs.len(), 5 * BarrierKind::LAZY_VARIANTS.len());
        // Workload-major, variants in order within each workload.
        for chunk in jobs.chunks(BarrierKind::LAZY_VARIANTS.len()) {
            for (job, kind) in chunk.iter().zip(BarrierKind::LAZY_VARIANTS) {
                assert_eq!(job.0, kind.to_string());
                assert_eq!(job.3.name, chunk[0].3.name);
            }
        }
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(cell_slug("LB++", "queue"), "lb___queue");
        assert_eq!(cell_slug("LB+IDT", "sps"), "lb_idt_sps");
    }
}
