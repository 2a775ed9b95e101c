//! One pass of each workload: generate, set up, run, check.
//!
//! Untraced passes do exactly the work a user of the library does. Traced
//! passes add per-layer spans and, where a layer cannot be timed from
//! outside in one call, reference work excluded from both phases: the
//! untraced twin run behind `obs.emit_s`, and the crash-sweep replica
//! that splits `run_case` into its stages.

use crate::checks;
use crate::clock::{Clock, Layer, Timing};
use crate::workloads::{Generated, Spec};
use pbm_check::{run_case, CaseOk, CaseSpec, FailureKind};
use pbm_prof::{flame, report, Component};
use pbm_sim::System;
use pbm_types::{Cycle, PersistencyKind, SimStats};
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// What pbm-prof found in one cell's trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfOut {
    /// Every barrier's end-to-end persist latency, ascending.
    pub latencies: Vec<u64>,
    /// Cycles per component, in [`Component::ALL`] order.
    pub components: [u64; Component::ALL.len()],
}

/// The deterministic results of one cell or case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellOut {
    /// `config/workload` or `case seed`.
    pub label: String,
    /// Program operations simulated.
    pub ops: u64,
    /// The run's statistics.
    pub stats: SimStats,
    /// NoC head-flit queueing, summed over virtual networks.
    pub noc_wait: u64,
    /// Crash points checked.
    pub crash_points: u64,
    /// Trace events emitted.
    pub trace_events: u64,
    /// Bytes of Chrome trace JSON exported.
    pub export_bytes: u64,
    /// Attribution of the traced run.
    pub prof: Option<ProfOut>,
    /// The first check this cell failed, if any.
    pub error: Option<String>,
}

/// One finished pass.
#[derive(Debug)]
pub struct PassOut {
    /// Per-cell results, in grid order.
    pub cells: Vec<CellOut>,
    /// Host times.
    pub timing: Timing,
}

/// A workload ready to run passes.
#[derive(Debug)]
pub struct Bench {
    spec: Spec,
    /// `run_case` results of the last untraced crash-sweep pass, which the
    /// traced replica must reproduce.
    sweep_refs: Vec<Option<CaseOk>>,
}

impl Bench {
    /// A workload from its inputs.
    pub fn new(spec: Spec) -> Bench {
        Bench {
            spec,
            sweep_refs: Vec::new(),
        }
    }

    /// The workload's inputs.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Runs one pass.
    pub fn pass(&mut self, traced: bool) -> PassOut {
        let mut clock = Clock::start(traced);
        let cells = match &self.spec {
            Spec::BepMicro(grid) => {
                let generated = clock.setup(Layer::Gen, || grid.generate());
                clock.mark();
                sim_pass(&mut clock, generated)
            }
            Spec::BspApp(bsp) => {
                let generated = clock.setup(Layer::Gen, || bsp.generate());
                clock.mark();
                sim_pass(&mut clock, generated)
            }
            Spec::TraceProf(grid) => {
                let generated = clock.setup(Layer::Gen, || grid.generate());
                clock.mark();
                trace_pass(&mut clock, generated)
            }
            Spec::CrashSweep(sweep) => {
                let cases = clock.setup(Layer::Gen, || sweep.generate());
                clock.mark();
                if traced {
                    replica_pass(&mut clock, &cases, &self.sweep_refs)
                } else {
                    let (cells, refs) = sweep_pass(&mut clock, &cases);
                    self.sweep_refs = refs;
                    cells
                }
            }
        };
        PassOut {
            cells,
            timing: clock.finish(),
        }
    }
}

/// Runs one cell or case as a unit of work on `clock`, turning a panic (a
/// wedged or livelocked simulation) into a failed cell.
fn guarded(
    clock: &mut Clock,
    label: String,
    f: impl FnOnce(&mut Clock, &mut CellOut) -> Result<(), String>,
) -> CellOut {
    let mut out = CellOut {
        label,
        ..CellOut::default()
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(clock, &mut out)));
    clock.mark();
    out.error = match result {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(_) => Some(format!("{}: panicked", out.label)),
    };
    out
}

fn build(generated: &Generated, cell: usize, tracing: bool) -> System {
    let c = &generated.cells[cell];
    let wl = &generated.workloads[c.workload];
    let mut sys =
        System::new(c.cfg.clone(), wl.programs.clone()).expect("pinned configs are valid");
    wl.apply_preloads(&mut sys);
    if tracing {
        sys.enable_tracing();
    }
    sys
}

fn label(generated: &Generated, cell: usize) -> String {
    let c = &generated.cells[cell];
    format!("{}/{}", c.config, generated.workloads[c.workload].name)
}

/// `bep_micro` and `bsp_app`: set up and run every cell.
fn sim_pass(clock: &mut Clock, generated: Generated) -> Vec<CellOut> {
    (0..generated.cells.len())
        .map(|i| {
            guarded(clock, label(&generated, i), |clock, out| {
                let wl = &generated.workloads[generated.cells[i].workload];
                let mut sys = clock.setup(Layer::New, || build(&generated, i, false));
                out.stats = clock.span(Layer::Run, || sys.run());
                out.ops = wl.total_ops() as u64;
                out.noc_wait = sys.noc_wait_cycles().iter().sum();
                clock.span(Layer::Run, move || drop(sys));
                checks::committed(&out.label, &out.stats, &wl.programs)
            })
        })
        .collect()
}

/// `trace_prof`: traced run, analysis, report and export of every cell.
fn trace_pass(clock: &mut Clock, generated: Generated) -> Vec<CellOut> {
    (0..generated.cells.len())
        .map(|i| {
            let name = label(&generated, i);
            guarded(clock, name.clone(), |clock, out| {
                let wl = &generated.workloads[generated.cells[i].workload];
                let twin = clock.traced().then(|| {
                    clock.exclude(|| {
                        let mut sys = build(&generated, i, false);
                        let t = Instant::now();
                        let stats = sys.run();
                        (stats, t.elapsed().as_secs_f64())
                    })
                });
                let mut sys = clock.setup(Layer::New, || build(&generated, i, true));
                let t = Instant::now();
                out.stats = sys.run();
                let events = sys.take_trace_events();
                let traced_s = t.elapsed().as_secs_f64();
                if let Some((stats, untraced_s)) = &twin {
                    clock.charge(Layer::Run, *untraced_s);
                    clock.charge(Layer::Emit, traced_s - untraced_s);
                    checks::same_counts(&name, stats, &out.stats)?;
                }
                let profile = clock.span(Layer::Analyze, || pbm_prof::analyze(&events));
                let (doc, folded) = clock.span(Layer::Report, || {
                    (
                        report::report_json(&profile, 10).to_json(),
                        flame::profile_stacks(&name, &profile),
                    )
                });
                let chrome = clock.span(Layer::Export, || {
                    pbm_obs::chrome::export_chrome_trace(&events, &[])
                });
                out.ops = wl.total_ops() as u64;
                out.noc_wait = sys.noc_wait_cycles().iter().sum();
                out.trace_events = events.len() as u64;
                out.export_bytes = chrome.len() as u64;
                out.prof = Some(ProfOut {
                    latencies: profile.sorted_latencies(),
                    components: Component::ALL.map(|c| profile.totals.get(c)),
                });
                checks::committed(&out.label, &out.stats, &wl.programs)?;
                checks::conserves(&profile)?;
                if doc.is_empty() || folded.is_empty() || !chrome.starts_with('{') {
                    return Err(format!("{name}: empty report or export"));
                }
                clock.span(Layer::Run, move || drop(sys));
                clock.span(Layer::Emit, move || drop(events));
                clock.span(Layer::Export, move || drop(chrome));
                Ok(())
            })
        })
        .collect()
}

fn case_label(case: &CaseSpec) -> String {
    format!("{}/{} seed {}", case.barrier, case.persistency, case.seed)
}

/// `crash_sweep`, untraced: `run_case` on every case.
fn sweep_pass(clock: &mut Clock, cases: &[CaseSpec]) -> (Vec<CellOut>, Vec<Option<CaseOk>>) {
    cases
        .iter()
        .map(|case| {
            let result = run_case(case);
            let cell = guarded(clock, case_label(case), |_, out| {
                let ok = checks::verdict(case.seed, &result)?;
                fill_case(out, case, ok);
                checks::committed(&out.label, &ok.stats, &case.programs)
            });
            (cell, result.ok())
        })
        .unzip()
}

fn fill_case(out: &mut CellOut, case: &CaseSpec, ok: &CaseOk) {
    out.ops = case.total_ops() as u64;
    out.stats = ok.stats.clone();
    out.crash_points = ok.crash_points as u64;
}

/// `crash_sweep`, traced: the public calls `run_case` makes, one span per
/// stage, with the result checked against the untraced pass's `run_case`.
fn replica_pass(clock: &mut Clock, cases: &[CaseSpec], refs: &[Option<CaseOk>]) -> Vec<CellOut> {
    cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            guarded(clock, case_label(case), |clock, out| {
                let ok = replica(clock, case)
                    .map_err(|f| format!("case seed {}: replica: {f}", case.seed))?;
                fill_case(out, case, &ok);
                let reference = refs
                    .get(i)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| format!("case seed {}: no run_case result", case.seed))?;
                checks::replica_matches(case.seed, reference, &ok)
            })
        })
        .collect()
}

/// `run_case` without its panic capture, stage by stage.
fn replica(clock: &mut Clock, case: &CaseSpec) -> Result<CaseOk, FailureKind> {
    let bsp = case.persistency == PersistencyKind::BufferedStrictBulk;
    let (sys, stats) = clock.span(Layer::CheckSim, || {
        let mut sys = System::new(case.config(), case.programs.clone()).expect("valid config");
        sys.enable_checking();
        let stats = sys.run();
        (sys, stats)
    });
    let ck = sys.checker().expect("checking enabled");
    if !clock.span(Layer::CheckVerify, || ck.hb_graph().is_acyclic()) {
        return Err(FailureKind::CyclicDependences);
    }
    let points = clock.span(Layer::CheckSnapshot, || {
        let mut points = vec![Cycle::ZERO];
        points.extend(sys.persist_times());
        if bsp {
            for rec in sys.undo_log().records() {
                points.push(rec.durable_at);
                points.extend(rec.committed_at);
            }
        }
        let before: Vec<Cycle> = points
            .iter()
            .map(|t| Cycle::new(t.as_u64().saturating_sub(1)))
            .collect();
        points.extend(before);
        points.sort_unstable();
        points.dedup();
        points
    });
    for &at in &points {
        let snap = clock.span(Layer::CheckSnapshot, || {
            let snap = sys.persistent_snapshot_at(at);
            if bsp {
                snap.recover_with(sys.undo_log()).0
            } else {
                snap
            }
        });
        let checked = clock.span(Layer::CheckVerify, || {
            if bsp {
                ck.check_bsp_recovered(&snap)
            } else {
                ck.check_bep(&snap)
            }
        });
        if let Err(v) = checked {
            return Err(FailureKind::Violation {
                at: at.as_u64(),
                message: v.to_string(),
            });
        }
    }
    let final_values = clock.span(Layer::CheckSnapshot, || {
        sys.persistent_snapshot_at(Cycle::new(u64::MAX))
            .iter()
            .map(|(line, token)| (line.as_u64(), System::token_value(token)))
            .collect()
    });
    Ok(CaseOk {
        stats,
        crash_points: points.len(),
        final_values,
        epoch_lines: ck.epoch_line_write_count() as u64,
    })
}
