//! Output checks. Each returns `Err` with a message naming what broke; a
//! failed check counts its cell or case as failed and makes the run
//! report `"correct": false`.

use crate::clock::Timing;
use pbm_check::{CaseOk, FailureKind};
use pbm_prof::Profile;
use pbm_sim::{Op, Program};
use pbm_types::SimStats;

/// Committed stores and transactions equal the generated programs'. The
/// simulator counts lock acquires and releases as stores: each writes its
/// lock line.
pub fn committed(what: &str, stats: &SimStats, programs: &[Program]) -> Result<(), String> {
    let count = |f: fn(&Op) -> bool| {
        programs
            .iter()
            .flat_map(|p| p.ops())
            .filter(|op| f(op))
            .count() as u64
    };
    let stores = count(|op| matches!(op, Op::Store(..) | Op::Lock(_) | Op::Unlock(_)));
    let txs = count(|op| matches!(op, Op::TxEnd));
    if stats.stores != stores || stats.transactions != txs {
        return Err(format!(
            "{what}: committed {} stores / {} transactions, programs hold {stores} / {txs}",
            stats.stores, stats.transactions
        ));
    }
    Ok(())
}

/// A `run_case` verdict is `Ok`.
pub fn verdict(case: u64, result: &Result<CaseOk, FailureKind>) -> Result<&CaseOk, String> {
    result
        .as_ref()
        .map_err(|f| format!("case seed {case}: {f}"))
}

/// pbm-prof's attribution conserves for every barrier (components sum to
/// the barrier's end-to-end latency) and no epoch was left incomplete.
pub fn conserves(profile: &Profile) -> Result<(), String> {
    if profile.incomplete > 0 {
        return Err(format!("{} incomplete epochs", profile.incomplete));
    }
    match profile
        .barriers
        .iter()
        .find(|b| b.attribution.total() != b.latency())
    {
        Some(b) => Err(format!(
            "barrier {:?} attributes {} cycles of a {}-cycle latency",
            b.tag,
            b.attribution.total(),
            b.latency()
        )),
        None => Ok(()),
    }
}

/// The traced sweep replica reached the same result as `run_case`:
/// crash-point count, simulated counts and final durable image.
pub fn replica_matches(case: u64, run_case: &CaseOk, replica: &CaseOk) -> Result<(), String> {
    if run_case != replica {
        return Err(format!(
            "case seed {case}: replica checked {} crash points, run_case {} (or their \
             counts or final images differ)",
            replica.crash_points, run_case.crash_points
        ));
    }
    Ok(())
}

/// Two simulations of one cell (traced and untraced, or two passes)
/// produced the same counts.
pub fn same_counts(what: &str, a: &SimStats, b: &SimStats) -> Result<(), String> {
    if a != b {
        return Err(format!("{what}: simulated counts differ between runs"));
    }
    Ok(())
}

/// Largest share of a traced pass's `wall_s` that may fall outside every
/// layer span.
pub const CONSERVATION_SLACK: f64 = 0.05;

/// A traced pass's layer spans account for its timed phase within
/// [`CONSERVATION_SLACK`].
pub fn conserves_time(t: &Timing) -> Result<(), String> {
    if t.traced && t.unattributed_s().abs() > CONSERVATION_SLACK * t.wall_s {
        return Err(format!(
            "traced pass: {:.4} s of {:.4} s wall_s outside every layer span",
            t.unattributed_s(),
            t.wall_s
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Layer;
    use pbm_prof::BarrierProfile;
    use pbm_sim::{ProgramBuilder, System};
    use pbm_types::{Addr, CoreId, Cycle, EpochId, EpochTag, FlushReason, SystemConfig};

    fn program() -> Vec<Program> {
        let mut b = ProgramBuilder::new();
        b.lock(Addr::new(1 << 40))
            .store(Addr::new(0), 1)
            .barrier()
            .unlock(Addr::new(1 << 40))
            .tx_end();
        vec![b.build()]
    }

    #[test]
    fn committed_trips_on_op_count_mismatch() {
        let programs = program();
        let mut cfg = SystemConfig::small_test();
        cfg.cores = 1;
        let stats = System::new(cfg, programs.clone()).expect("valid").run();
        committed("ok", &stats, &programs).expect("the run commits every op");
        let mut more = programs[0].ops().to_vec();
        more.push(Op::Store(Addr::new(64), 2));
        let mut b = ProgramBuilder::new();
        for op in more {
            b.push(op);
        }
        let err = committed("extra store", &stats, &[b.build()]).unwrap_err();
        assert!(err.contains("committed 3 stores"), "{err}");
        let mut fewer_txs = stats.clone();
        fewer_txs.transactions = 0;
        assert!(committed("lost tx", &fewer_txs, &programs).is_err());
    }

    #[test]
    fn verdict_trips_on_failing_case() {
        let failing: Result<CaseOk, FailureKind> = Err(FailureKind::Violation {
            at: 7,
            message: "forced".to_string(),
        });
        assert!(verdict(3, &failing).unwrap_err().contains("crash cycle 7"));
        assert!(verdict(3, &Err(FailureKind::CyclicDependences)).is_err());
    }

    fn barrier(requested: u64, persisted: u64) -> BarrierProfile {
        BarrierProfile {
            tag: EpochTag::new(CoreId::new(0), EpochId::new(0)),
            reason: FlushReason::Conflict,
            requested: Cycle::new(requested),
            flush_start: Cycle::new(requested),
            persisted: Cycle::new(persisted),
            straggler_bank: None,
            attribution: Default::default(),
            dep_sources: Vec::new(),
        }
    }

    #[test]
    fn conserves_trips_on_non_conserving_attribution() {
        let mut profile = Profile::default();
        profile.barriers.push(barrier(10, 10));
        conserves(&profile).expect("a zero-latency barrier with nothing attributed conserves");
        profile.barriers.push(barrier(10, 110));
        assert!(conserves(&profile)
            .unwrap_err()
            .contains("0 cycles of a 100-cycle"));
        let incomplete = Profile {
            incomplete: 1,
            ..Profile::default()
        };
        assert!(conserves(&incomplete).is_err());
    }

    #[test]
    fn replica_check_trips_on_crash_point_mismatch() {
        let ok = CaseOk {
            stats: SimStats::default(),
            crash_points: 5,
            final_values: Default::default(),
            epoch_lines: 0,
        };
        replica_matches(1, &ok, &ok.clone()).expect("identical results match");
        let drifted = CaseOk {
            crash_points: 4,
            ..ok.clone()
        };
        assert!(replica_matches(1, &ok, &drifted)
            .unwrap_err()
            .contains("4 crash points"));
    }

    #[test]
    fn time_conservation_trips_on_unspanned_time() {
        let mut t = Timing {
            traced: true,
            setup_s: 0.0,
            wall_s: 1.0,
            layers: [0.0; Layer::ALL.len()],
            ref_chunks: Vec::new(),
        };
        t.layers[Layer::Run as usize] = 0.99;
        conserves_time(&t).expect("1% unattributed is within the slack");
        t.layers[Layer::Run as usize] = 0.5;
        assert!(conserves_time(&t).is_err());
    }
}
