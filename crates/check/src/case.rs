//! One fuzzing case: a (programs, barrier, persistency, schedule) tuple,
//! run to completion and checked at every crash cycle that matters.
//!
//! The crash sweep is exhaustive, not sampled: the durable state only
//! changes at NVRAM persist timestamps (and, under BSP, recovery only
//! changes at undo-log durability/commit timestamps), so checking at cycle
//! 0 and at each of those instants covers every distinct crash state the
//! run could exhibit.
//!
//! It is also one pass: [`pbm_nvram::CrashReplay`] walks the points in
//! time order and reports the lines each one changed, and
//! [`pbm_core::recovery::IncrementalCheck`] updates the verdict from just
//! those lines. A case costs O(journal + points), not a journal rescan and
//! a full check per point. Only the first inconsistent point, if any, is
//! rebuilt and judged by the full `check_bep`/`check_bsp_recovered`, which
//! names the violation.

use pbm_core::recovery::{ConsistencyChecker, ConsistencyViolation};
use pbm_nvram::{CrashReplay, DurableSnapshot, UndoLog};
use pbm_sim::{Program, SchedulePerturbation, System};
use pbm_types::{BarrierKind, Cycle, PersistencyKind, SimStats, SystemConfig};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// A fully-specified, replayable fuzzing case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// One program per core (shorter vectors leave the remaining cores
    /// idle).
    pub programs: Vec<Program>,
    /// Barrier implementation under test.
    pub barrier: BarrierKind,
    /// Persistency model under test.
    pub persistency: PersistencyKind,
    /// Schedule-perturbation seed (`None` = the exact default schedule).
    pub perturb_seed: Option<u64>,
    /// Hardware epoch size for BSP bulk mode (ignored otherwise).
    pub bsp_epoch_size: u64,
    /// Program-generator seed, carried for provenance and replay labels.
    pub seed: u64,
}

impl CaseSpec {
    /// The simulated configuration this case runs under: the 4-core test
    /// system with the case's barrier/persistency axes applied.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.barrier = self.barrier;
        cfg.persistency = self.persistency;
        cfg.bsp_epoch_size = self.bsp_epoch_size;
        cfg
    }

    /// Total operation count across all cores (the shrinker's metric).
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(Program::len).sum()
    }
}

/// Why a case failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The persistency model's guarantee was violated at a crash cycle.
    Violation {
        /// The crash cycle the violating snapshot was taken at.
        at: u64,
        /// The violation, rendered (`ConsistencyViolation`'s `Display`).
        message: String,
    },
    /// The recorded inter-thread dependence graph has a cycle.
    CyclicDependences,
    /// The simulation panicked (wedge, livelock watchdog, protocol
    /// assertion).
    Panic(String),
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Violation { at, message } => {
                write!(f, "violation at crash cycle {at}: {message}")
            }
            FailureKind::CyclicDependences => write!(f, "cyclic inter-thread dependences"),
            FailureKind::Panic(msg) => write!(f, "simulation panicked: {msg}"),
        }
    }
}

/// What a passing case yields (the campaign's differential stage compares
/// these across barrier kinds).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOk {
    /// The run's statistics.
    pub stats: SimStats,
    /// Number of crash cycles the sweep checked.
    pub crash_points: usize,
    /// Final drained persistent state as `line -> stored value` (token
    /// sequence numbers stripped, so the map is comparable across runs).
    pub final_values: BTreeMap<u64, u32>,
    /// Distinct `(epoch, line)` write pairs the checker journaled — the
    /// lower bound on flush writes the §4 zero-extra-writes argument is
    /// stated against.
    pub epoch_lines: u64,
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Suppresses the default panic message on this thread for the guard's
/// lifetime. Fuzzing deliberately provokes panics (that is how injected
/// protocol bugs surface), and a hook firing per case would swamp the
/// output of every worker.
fn quiet_panics() -> impl Drop {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            QUIET.with(|q| q.set(false));
        }
    }
    QUIET.with(|q| q.set(true));
    Guard
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one case end to end: simulate, then sweep every distinct crash
/// state and check the model's guarantee at each.
pub fn run_case(spec: &CaseSpec) -> Result<CaseOk, FailureKind> {
    let (sys, stats) = simulate(spec)?;
    let ck = sys.checker().expect("checking enabled");
    let bsp = spec.persistency == PersistencyKind::BufferedStrictBulk;
    let crash_points = first_inconsistent(sys.crash_replay(), ck, bsp).map_err(|at| {
        let violation =
            check_at(&sys, bsp, at).expect_err("incremental and full checks agree on the verdict");
        FailureKind::Violation {
            at: at.as_u64(),
            message: violation.to_string(),
        }
    })?;
    Ok(case_ok(&sys, stats, crash_points))
}

/// Simulates `spec` with checking on; a panic or a cyclic dependence graph
/// is the case's failure.
fn simulate(spec: &CaseSpec) -> Result<(System, SimStats), FailureKind> {
    let _quiet = quiet_panics();
    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut sys = System::new(spec.config(), spec.programs.clone()).expect("valid config");
        sys.enable_checking();
        if let Some(seed) = spec.perturb_seed {
            sys.set_perturbation(&SchedulePerturbation::from_seed(seed));
        }
        let stats = sys.run();
        (sys, stats)
    }));
    let (sys, stats) = ran.map_err(|payload| FailureKind::Panic(panic_message(payload)))?;
    if !sys
        .checker()
        .expect("checking enabled")
        .hb_graph()
        .is_acyclic()
    {
        return Err(FailureKind::CyclicDependences);
    }
    Ok((sys, stats))
}

/// Walks every crash point of `replay` with an incremental check of `ck`
/// (`atomic` under BSP). Returns the number of points visited, or the
/// first point whose image is inconsistent.
fn first_inconsistent(
    mut replay: CrashReplay<'_>,
    ck: &ConsistencyChecker,
    atomic: bool,
) -> Result<usize, Cycle> {
    let mut check = ck.incremental(atomic);
    while let Some((at, changes)) = replay.next_point() {
        for c in changes {
            check.update(c.line, c.before, c.after);
        }
        if !check.is_consistent() {
            return Err(at);
        }
    }
    Ok(replay.crash_points())
}

/// The full check of one crash image: the persistent snapshot at `at`,
/// recovered with the undo log under BSP.
fn check_at(sys: &System, bsp: bool, at: Cycle) -> Result<(), ConsistencyViolation> {
    let ck = sys.checker().expect("checking enabled");
    check_image(
        ck,
        sys.persistent_snapshot_at(at),
        bsp.then(|| sys.undo_log()),
    )
}

/// `check_bep` of a snapshot, or with an undo log `check_bsp_recovered`
/// of its recovery.
fn check_image(
    ck: &ConsistencyChecker,
    snap: DurableSnapshot,
    log: Option<&UndoLog>,
) -> Result<(), ConsistencyViolation> {
    match log {
        Some(log) => ck.check_bsp_recovered(&snap.recover_with(log).0),
        None => ck.check_bep(&snap),
    }
}

fn case_ok(sys: &System, stats: SimStats, crash_points: usize) -> CaseOk {
    let final_values = sys
        .persistent_snapshot_at(Cycle::new(u64::MAX))
        .iter()
        .map(|(line, token)| (line.as_u64(), System::token_value(token)))
        .collect();
    CaseOk {
        stats,
        crash_points,
        final_values,
        epoch_lines: sys
            .checker()
            .expect("checking enabled")
            .epoch_line_write_count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_core::recovery::CompletionReason;
    use pbm_nvram::NvramDevice;
    use pbm_types::{CoreId, EpochId, EpochTag, LineAddr};
    use pbm_workloads::random::{random_programs, RandomProgramParams};
    use proptest::prelude::*;

    /// Crash points as the per-point sweep enumerates them: `{0}` ∪
    /// persist times ∪ (with a log) record durability and commit times,
    /// each also minus one.
    fn oracle_points(persist_times: Vec<Cycle>, log: Option<&UndoLog>) -> Vec<Cycle> {
        let mut points = vec![Cycle::ZERO];
        points.extend(persist_times);
        for rec in log.map_or(&[][..], UndoLog::records) {
            points.push(rec.durable_at);
            points.extend(rec.committed_at);
        }
        for i in 0..points.len() {
            points.push(Cycle::new(points[i].as_u64().saturating_sub(1)));
        }
        points.sort_unstable();
        points.dedup();
        points
    }

    /// The oracle: `run_case` with every point's snapshot rebuilt from the
    /// journal and judged by the full check.
    fn run_case_oracle(spec: &CaseSpec) -> Result<CaseOk, FailureKind> {
        let (sys, stats) = simulate(spec)?;
        let bsp = spec.persistency == PersistencyKind::BufferedStrictBulk;
        let points = oracle_points(sys.persist_times(), bsp.then(|| sys.undo_log()));
        for &at in &points {
            if let Err(v) = check_at(&sys, bsp, at) {
                return Err(FailureKind::Violation {
                    at: at.as_u64(),
                    message: v.to_string(),
                });
            }
        }
        Ok(case_ok(&sys, stats, points.len()))
    }

    /// A hand-built run: the checker's journal, the NVRAM journal and, for
    /// BSP, the undo log.
    struct Journal {
        ck: ConsistencyChecker,
        nvram: NvramDevice,
        log: Option<UndoLog>,
    }

    type SweepResult = Result<usize, (Cycle, ConsistencyViolation)>;

    impl Journal {
        fn new(bsp: bool) -> Self {
            Journal {
                ck: ConsistencyChecker::new(),
                nvram: NvramDevice::with_history(),
                log: bsp.then(UndoLog::new),
            }
        }

        /// The one-pass sweep, the violation rendered as `run_case` does.
        fn incremental(&self) -> SweepResult {
            let log = self.log.as_ref();
            let replay = CrashReplay::new(&self.nvram, log, |_| true);
            first_inconsistent(replay, &self.ck, log.is_some()).map_err(|at| {
                let v = check_image(&self.ck, self.nvram.snapshot_at(at), log)
                    .expect_err("incremental and full checks agree on the verdict");
                (at, v)
            })
        }

        /// The per-point sweep.
        fn oracle(&self) -> SweepResult {
            let log = self.log.as_ref();
            let points = oracle_points(self.nvram.persist_times(), log);
            for &at in &points {
                check_image(&self.ck, self.nvram.snapshot_at(at), log).map_err(|v| (at, v))?;
            }
            Ok(points.len())
        }

        /// Both sweeps, asserted equal.
        fn sweep(&self) -> SweepResult {
            let got = self.incremental();
            assert_eq!(
                got,
                self.oracle(),
                "incremental sweep differs from the oracle"
            );
            got
        }
    }

    fn tag(core: u32, epoch: u64) -> EpochTag {
        EpochTag::new(CoreId::new(core), EpochId::new(epoch))
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn journal_with_a_phantom_value() {
        let mut j = Journal::new(false);
        j.ck.record_write(line(1), 10, tag(0, 0));
        j.nvram.persist(line(1), 10, Cycle::new(5));
        j.nvram.persist(line(2), 999, Cycle::new(9));
        let (at, v) = j.sweep().unwrap_err();
        assert_eq!(at, Cycle::new(9));
        assert_eq!(
            v,
            ConsistencyViolation::PhantomValue {
                line: line(2),
                token: 999
            }
        );
    }

    #[test]
    fn journal_out_of_program_order() {
        let mut j = Journal::new(false);
        j.ck.record_write(line(1), 10, tag(0, 0));
        j.ck.record_write(line(2), 20, tag(0, 0));
        j.ck.record_write(line(3), 30, tag(0, 1));
        j.nvram.persist(line(1), 10, Cycle::new(10));
        j.nvram.persist(line(3), 30, Cycle::new(20)); // epoch 1 before line 2
        j.nvram.persist(line(2), 20, Cycle::new(30));
        let (at, v) = j.sweep().unwrap_err();
        assert_eq!(at, Cycle::new(20));
        assert_eq!(
            v,
            ConsistencyViolation::IncompleteEpoch {
                epoch: tag(0, 0),
                line: line(2),
                because: CompletionReason::ProgramOrder {
                    newer: EpochId::new(1)
                },
            }
        );
    }

    #[test]
    fn journal_breaking_an_inter_thread_dependence() {
        let mut j = Journal::new(false);
        j.ck.record_write(line(1), 10, tag(0, 0));
        j.ck.record_write(line(2), 20, tag(1, 0));
        j.ck.record_dependence(tag(0, 0), tag(1, 0));
        j.nvram.persist(line(2), 20, Cycle::new(10)); // dependent first
        j.nvram.persist(line(1), 10, Cycle::new(20));
        let (at, v) = j.sweep().unwrap_err();
        assert_eq!(at, Cycle::new(10));
        assert_eq!(
            v,
            ConsistencyViolation::IncompleteEpoch {
                epoch: tag(0, 0),
                line: line(1),
                because: CompletionReason::InterThread {
                    dependent: tag(1, 0)
                },
            }
        );
    }

    /// One BSP epoch writing preloaded lines 1 and 2, committed at 40.
    /// Line 1 is always undo-logged; line 2 only if `log_line_2`.
    fn bsp_epoch(log_line_2: bool) -> Journal {
        let mut j = Journal::new(true);
        for (l, old, new) in [(1, 1, 11), (2, 2, 12)] {
            j.ck.record_initial(line(l), old);
            j.nvram.persist(line(l), old, Cycle::ZERO);
            j.ck.record_write(line(l), new, tag(0, 0));
        }
        let log = j.log.as_mut().unwrap();
        log.append(tag(0, 0), line(1), Some(1), Cycle::new(5));
        if log_line_2 {
            log.append(tag(0, 0), line(2), Some(2), Cycle::new(6));
        }
        log.commit_epoch(tag(0, 0), Cycle::new(40));
        j.nvram.persist(line(1), 11, Cycle::new(10));
        j.nvram.persist(line(2), 12, Cycle::new(20));
        j
    }

    #[test]
    fn journal_with_a_partial_bsp_epoch() {
        // Recovery rolls line 1 back until the commit, but nothing rolls
        // back line 2's early write: the epoch is half durable.
        let (at, v) = bsp_epoch(false).sweep().unwrap_err();
        assert_eq!(at, Cycle::new(20));
        assert_eq!(
            v,
            ConsistencyViolation::PartialEpoch {
                epoch: tag(0, 0),
                line: line(1),
            }
        );
        assert!(
            bsp_epoch(true).sweep().is_ok(),
            "logging both lines is atomic"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Random journals, nearly all inconsistent somewhere: both sweeps
        /// agree on the verdict, the first violating cycle, the violation
        /// and the number of points.
        #[test]
        fn random_journals_sweep_like_the_oracle(
            writes in proptest::collection::vec((0u64..5, 0u32..3, 0u64..3), 1..16),
            deps in proptest::collection::vec(((0u32..3, 0u64..3), (0u32..3, 0u64..3)), 0..4),
            persists in proptest::collection::vec((0usize..20, 0u64..50), 0..24),
            undo in proptest::collection::vec((0usize..20, 0u64..50, 0u64..90), 0..10),
            bsp in any::<bool>(),
        ) {
            let mut j = Journal::new(bsp);
            j.ck.record_initial(line(0), 1);
            j.nvram.persist(line(0), 1, Cycle::ZERO);
            for (i, &(l, core, epoch)) in writes.iter().enumerate() {
                j.ck.record_write(line(l), 100 + i as u64, tag(core, epoch));
            }
            for &((sc, se), (dc, de)) in &deps {
                j.ck.record_dependence(tag(sc, se), tag(dc, de));
            }
            // Persist recorded tokens (to their own line, or 1-in-20 a
            // stray) at random times.
            for &(w, t) in &persists {
                let (l, token) = match writes.get(w) {
                    Some(&(l, _, _)) => (l, 100 + w as u64),
                    None => (w as u64 % 5, 999),
                };
                j.nvram.persist(line(l), token, Cycle::new(t));
            }
            if let Some(log) = j.log.as_mut() {
                for &(w, t, commit) in &undo {
                    let (l, core, epoch) = writes[w % writes.len()];
                    let old = (w % 3 != 0).then_some(1);
                    log.append(tag(core, epoch), line(l), old, Cycle::new(t));
                    if commit < 60 {
                        log.commit_epoch(tag(core, epoch), Cycle::new(commit));
                    }
                }
            }
            let _ = j.sweep(); // asserts the two sweeps agree
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Real runs, BEP under LB++ and BSP under LB with 7-store
        /// hardware epochs, default and perturbed schedules: `run_case`
        /// returns exactly what the per-point sweep does.
        #[test]
        fn run_case_matches_the_per_point_sweep(
            seed in 0u64..1_000_000,
            ops in 5usize..60,
            bsp in any::<bool>(),
            perturb in proptest::option::of(any::<u64>()),
        ) {
            let (barrier, persistency) = if bsp {
                (BarrierKind::Lb, PersistencyKind::BufferedStrictBulk)
            } else {
                (BarrierKind::LbPp, PersistencyKind::BufferedEpoch)
            };
            let spec = CaseSpec {
                programs: random_programs(seed, 4, &RandomProgramParams::mixed(ops, 8)),
                barrier,
                persistency,
                perturb_seed: perturb,
                bsp_epoch_size: 7,
                seed,
            };
            prop_assert_eq!(run_case(&spec), run_case_oracle(&spec));
        }
    }

    fn spec(barrier: BarrierKind, persistency: PersistencyKind, seed: u64) -> CaseSpec {
        let params = RandomProgramParams::mixed(30, 8);
        CaseSpec {
            programs: random_programs(seed, 4, &params),
            barrier,
            persistency,
            perturb_seed: None,
            bsp_epoch_size: 7,
            seed,
        }
    }

    #[test]
    fn clean_design_passes_bep_and_bsp() {
        let ok = run_case(&spec(BarrierKind::LbPp, PersistencyKind::BufferedEpoch, 42))
            .expect("no violation");
        assert!(ok.crash_points > 2, "sweep found persist boundaries");
        assert!(!ok.final_values.is_empty(), "stores drained");
        let ok = run_case(&spec(
            BarrierKind::Lb,
            PersistencyKind::BufferedStrictBulk,
            43,
        ))
        .unwrap();
        assert!(ok.stats.log_writes > 0, "BSP logged");
    }

    #[test]
    fn perturbed_schedule_preserves_architectural_results() {
        let base = run_case(&spec(BarrierKind::LbPp, PersistencyKind::BufferedEpoch, 7)).unwrap();
        let mut jittered = spec(BarrierKind::LbPp, PersistencyKind::BufferedEpoch, 7);
        jittered.perturb_seed = Some(99);
        let perturbed = run_case(&jittered).expect("still consistent");
        assert_eq!(base.final_values, perturbed.final_values);
        assert_eq!(base.stats.stores, perturbed.stats.stores);
    }

    #[test]
    fn panics_are_reported_not_propagated() {
        // An unvalidatable config panic is simulated via a program that the
        // watchdog would reject is hard to build cheaply; instead check the
        // plumbing directly.
        let _quiet = quiet_panics();
        let caught = panic::catch_unwind(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(panic_message(caught), "boom 1");
    }
}
