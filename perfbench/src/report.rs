//! Metric definitions and their values for one run.
//!
//! Every metric of `BENCHMARK.json` is named here once, with its unit.
//! Host times are medians of per-pass samples at reference speed (each
//! pass's raw seconds times its [`Timing::scale`]); percentiles of
//! persist latency are exact nearest-rank values over every barrier.

use crate::clock::{Layer, Timing};
use crate::passes::{CellOut, PassOut, ProfOut};
use crate::workloads::Spec;
use pbm_prof::Component;
use pbm_types::{BarrierKind, SimStats};

/// Reads one counter of a run's statistics.
type Counter = fn(&SimStats) -> u64;

/// Simulated counts read from `SimStats`, summed over cells.
const SIM_COUNTS: [(&str, Counter); 20] = [
    ("sim.cycles", |s| s.cycles),
    ("cache.l1_misses", |s| s.l1_misses),
    ("cache.llc_misses", |s| s.llc_misses),
    ("noc.messages", |s| s.noc_messages),
    ("noc.flits", |s| s.noc_flits),
    ("nvram.reads", |s| s.nvram_reads),
    ("nvram.writes", |s| s.nvram_writes),
    ("nvram.epoch_flush_writes", |s| s.epoch_flush_writes),
    ("nvram.log_writes", |s| s.log_writes),
    ("nvram.checkpoint_writes", |s| s.checkpoint_writes),
    ("core.epochs_persisted", |s| s.epochs_persisted),
    ("core.conflict_flushed", |s| s.epochs_conflict_flushed),
    ("core.proactive_flushed", |s| s.epochs_proactive_flushed),
    ("core.eviction_flushed", |s| s.epochs_eviction_flushed),
    ("core.idt_recorded", |s| s.idt_recorded),
    ("core.idt_overflows", |s| s.idt_overflows),
    ("core.deadlock_splits", |s| s.deadlock_splits),
    ("sim.online_persist_stall_cycles", |s| {
        s.online_persist_stall_cycles
    }),
    ("sim.barrier_stall_cycles", |s| s.barrier_stall_cycles),
    ("sim.lock_wait_cycles", |s| s.lock_wait_cycles),
];

/// Median of raw samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn sum(cells: &[CellOut], f: impl Fn(&CellOut) -> u64) -> f64 {
    cells.iter().map(f).sum::<u64>() as f64
}

/// The unit of work a workload's throughput counts, per pass.
pub fn items(spec: &Spec, cells: &[CellOut]) -> u64 {
    cells
        .iter()
        .map(|c| match spec {
            Spec::CrashSweep(_) => c.crash_points,
            Spec::TraceProf(_) => c.trace_events,
            _ => c.ops,
        })
        .sum()
}

/// Paper Fig 11 throughput gmeans (normalised to LB) for LB+IDT, LB+PF, LB++.
pub const PAPER_FIG11: [f64; 3] = [1.03, 1.17, 1.22];
/// Paper Fig 12 conflicting-epoch ameans (%) for LB, LB+IDT, LB+PF, LB++.
pub const PAPER_FIG12: [f64; 4] = [90.0, 90.0, 77.0, 75.0];

/// `(fig11_gap_pct, fig12_gap_pp)` of a Fig 11 grid's cells (workload
/// major, [`BarrierKind::LAZY_VARIANTS`] within each workload).
pub fn paper_gaps(cells: &[CellOut]) -> (f64, f64) {
    let k = BarrierKind::LAZY_VARIANTS.len();
    let mut log_tput = vec![0.0; k];
    let mut conflict = vec![0.0; k];
    let rows = cells.chunks(k).filter(|r| r.len() == k).collect::<Vec<_>>();
    for row in &rows {
        let lb = row[0].stats.throughput();
        for (v, cell) in row.iter().enumerate() {
            log_tput[v] += (cell.stats.throughput() / lb).ln();
            conflict[v] += cell.stats.conflicting_epoch_pct();
        }
    }
    let n = rows.len().max(1) as f64;
    let fig11 = PAPER_FIG11
        .iter()
        .zip(&log_tput[1..])
        .map(|(paper, l)| ((l / n).exp() - paper).abs() / paper)
        .sum::<f64>()
        / PAPER_FIG11.len() as f64
        * 100.0;
    let fig12 = PAPER_FIG12
        .iter()
        .zip(&conflict)
        .map(|(paper, c)| (c / n - paper).abs())
        .sum::<f64>()
        / PAPER_FIG12.len() as f64;
    (fig11, fig12)
}

/// Exact nearest-rank percentile over every barrier of every cell.
fn latency_percentile(cells: &[CellOut], p: u64) -> f64 {
    let mut all: Vec<u64> = cells
        .iter()
        .filter_map(|c| c.prof.as_ref())
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    all.sort_unstable();
    pbm_prof::report::percentile(&all, p) as f64
}

/// Median over `passes` of `f` at reference speed.
pub fn scaled_median(passes: &[&Timing], f: impl Fn(&Timing) -> f64) -> f64 {
    median(&passes.iter().map(|t| f(t) * t.scale()).collect::<Vec<_>>())
}

/// Every per-layer metric as `(name, unit, value)`: host times are
/// medians over `traced` passes at reference speed, the overhead compares
/// their `wall_s` with that of `untraced`, and counts are summed over
/// `cells`. Counts are simulated and repeat exactly; a layer the workload
/// does not exercise reads 0.
pub fn per_layer_values(
    spec: &Spec,
    cells: &[CellOut],
    traced: &[&Timing],
    untraced: &[&Timing],
) -> Vec<(String, &'static str, f64)> {
    let med = |ts: &[&Timing], f: &dyn Fn(&Timing) -> f64| scaled_median(ts, f);
    let ops = sum(cells, |c| c.ops);
    let run_s = med(traced, &|t| t.layer(Layer::Run));
    let (fig11, fig12) = match spec {
        Spec::BepMicro(_) | Spec::TraceProf(_) => paper_gaps(cells),
        _ => (0.0, 0.0),
    };
    let prof = |f: &dyn Fn(&ProfOut) -> u64| sum(cells, |c| c.prof.as_ref().map_or(0, f));

    let mut v: Vec<(String, &str, f64)> = Layer::ALL
        .iter()
        .map(|&l| (l.metric().to_string(), "s", med(traced, &|t| t.layer(l))))
        .collect();
    let mut push =
        |name: &str, unit: &'static str, value: f64| v.push((name.to_string(), unit, value));
    push(
        "sim.host_ns_per_op",
        "ns",
        if ops > 0.0 { run_s / ops * 1e9 } else { 0.0 },
    );
    push(
        "trace.overhead_s",
        "s",
        med(traced, &|t| t.wall_s) - med(untraced, &|t| t.wall_s),
    );
    push(
        "trace.unattributed_s",
        "s",
        med(traced, &Timing::unattributed_s),
    );
    push("sim.ops", "count", ops);
    push("noc.wait_cycles", "cycles", sum(cells, |c| c.noc_wait));
    let cases = match spec {
        Spec::CrashSweep(_) => cells.len() as f64,
        _ => 0.0,
    };
    push("check.cases", "count", cases);
    push(
        "check.crash_points",
        "count",
        sum(cells, |c| c.crash_points),
    );
    push("obs.trace_events", "count", sum(cells, |c| c.trace_events));
    push("obs.export_bytes", "bytes", sum(cells, |c| c.export_bytes));
    push(
        "prof.barriers",
        "count",
        prof(&|p| p.latencies.len() as u64),
    );
    push(
        "prof.persist_latency_p50_cycles",
        "cycles",
        latency_percentile(cells, 50),
    );
    push(
        "prof.persist_latency_p99_cycles",
        "cycles",
        latency_percentile(cells, 99),
    );
    push("model.fig11_gap_pct", "%", fig11);
    push("model.fig12_gap_pp", "pp", fig12);
    for (name, f) in SIM_COUNTS {
        let unit = if name.ends_with("cycles") {
            "cycles"
        } else {
            "count"
        };
        push(name, unit, sum(cells, |c| f(&c.stats)));
    }
    for (i, c) in Component::ALL.iter().enumerate() {
        push(
            &format!("prof.{}_cycles", c.name()),
            "cycles",
            prof(&|p| p.components[i]),
        );
    }
    v
}

/// FNV-1a digest of every simulated result of a pass, for comparing two
/// commits' outputs without storing them.
pub fn digest(cells: &[CellOut]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in cells {
        for b in format!("{c:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn json_line(attempted: u64, failed: u64, metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// The end-to-end metrics as `(name, unit, value)` from untraced passes,
/// and the process's peak resident set. Host times are medians over the
/// passes at reference speed (see [`crate::reference`]).
pub fn end_to_end_values(
    spec: &Spec,
    passes: &[&PassOut],
    peak_rss_mb: f64,
) -> Vec<(String, &'static str, f64)> {
    let timings: Vec<&Timing> = passes.iter().map(|p| &p.timing).collect();
    let wall_s = scaled_median(&timings, |t| t.wall_s);
    let items = passes.first().map_or(0, |p| items(spec, &p.cells));
    vec![
        ("wall_s".to_string(), "s", wall_s),
        (
            "setup_s".to_string(),
            "s",
            scaled_median(&timings, |t| t.setup_s),
        ),
        ("items_per_s".to_string(), "1/s", items as f64 / wall_s),
        ("peak_rss_mb".to_string(), "MB", peak_rss_mb),
    ]
}
