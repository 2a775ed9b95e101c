//! Crash-consistency integration tests: random multithreaded workloads,
//! every barrier variant, every crash point — the persistency model's
//! guarantees must hold at all of them.
//!
//! The random-program generator lives in `pbm_workloads::random` and is
//! shared with the `pbm-check` fuzzing harness, so any program shape that
//! exposes a bug here can be replayed there (and vice versa).

use pbm::prelude::*;
use pbm_check::{run_case, CaseSpec};
use pbm_workloads::random::{programs, random_programs, RandomProgramParams};
use proptest::prelude::*;

fn small_cfg(barrier: BarrierKind, persistency: PersistencyKind) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.barrier = barrier;
    cfg.persistency = persistency;
    cfg
}

/// Runs `programs` under `small_cfg` through [`run_case`]: the recorded
/// dependence graph must be acyclic (deadlock freedom), and the model's
/// guarantee must hold at every crash point — cycle 0 and each instant the
/// durable state (under BSP, its undo-log recovery) changes.
fn check_every_crash_point(
    programs: Vec<Program>,
    barrier: BarrierKind,
    persistency: PersistencyKind,
    bsp_epoch_size: u64,
    seed: u64,
) {
    let spec = CaseSpec {
        programs,
        barrier,
        persistency,
        perturb_seed: None,
        bsp_epoch_size,
        seed,
    };
    let mut cfg = small_cfg(barrier, persistency);
    cfg.bsp_epoch_size = bsp_epoch_size;
    assert_eq!(
        spec.config(),
        cfg,
        "run_case simulates the small test system"
    );
    match run_case(&spec) {
        Ok(ok) => assert!(
            ok.crash_points > 1,
            "{barrier} seed={seed}: nothing persisted"
        ),
        Err(failure) => panic!("{barrier} {persistency} seed={seed}: {failure}"),
    }
}

fn check_bep_programs(programs: Vec<Program>, barrier: BarrierKind, seed: u64) {
    let epoch = SystemConfig::small_test().bsp_epoch_size;
    check_every_crash_point(
        programs,
        barrier,
        PersistencyKind::BufferedEpoch,
        epoch,
        seed,
    );
}

fn check_bep_everywhere(seed: u64, barrier: BarrierKind) {
    let cfg = small_cfg(barrier, PersistencyKind::BufferedEpoch);
    let params = RandomProgramParams::mixed(60, 16);
    check_bep_programs(random_programs(seed, cfg.cores, &params), barrier, seed);
}

#[test]
fn bep_invariants_hold_for_every_lazy_barrier() {
    for barrier in BarrierKind::LAZY_VARIANTS {
        for seed in [1u64, 2, 3] {
            check_bep_everywhere(seed, barrier);
        }
    }
}

#[test]
fn bsp_recovery_is_atomic_for_every_lazy_barrier() {
    for barrier in BarrierKind::LAZY_VARIANTS {
        for seed in [11u64, 12] {
            let cores = SystemConfig::small_test().cores;
            let params = RandomProgramParams::mixed(50, 12);
            let programs = random_programs(seed, cores, &params);
            check_every_crash_point(
                programs,
                barrier,
                PersistencyKind::BufferedStrictBulk,
                7,
                seed,
            );
        }
    }
}

#[test]
fn strict_write_through_persists_in_program_order() {
    let cfg = small_cfg(BarrierKind::WriteThrough, PersistencyKind::Strict);
    let mut b = ProgramBuilder::new();
    for i in 0..20u64 {
        b.store(Addr::new(i * 64), i as u32);
    }
    let mut sys = System::new(cfg, vec![b.build()]).expect("valid config");
    sys.enable_checking();
    let stats = sys.run();
    // At every crash point, the durable lines must be a prefix of program
    // order: if line k is durable, lines 0..k are durable.
    for at in (0..stats.cycles + 1000).step_by(97) {
        let snap = sys.persistent_snapshot_at(Cycle::new(at));
        let durable: Vec<bool> = (0..20u64)
            .map(|i| snap.line(LineAddr::new(i)).is_some())
            .collect();
        let first_gap = durable.iter().position(|d| !d).unwrap_or(20);
        assert!(
            durable[first_gap..].iter().all(|d| !d),
            "crash@{at}: durable set {durable:?} is not a program-order prefix"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random programs, every crash point: LB++ never violates BEP.
    #[test]
    fn prop_lbpp_bep_consistency(
        case in programs(4, RandomProgramParams::mixed(60, 16))
    ) {
        let (seed, progs) = case;
        check_bep_programs(progs, BarrierKind::LbPp, seed);
    }

    /// Determinism: a workload produces identical statistics on every run.
    #[test]
    fn prop_runs_are_deterministic(seed in 0u64..50) {
        let mk = || {
            let cfg = small_cfg(BarrierKind::LbPp, PersistencyKind::BufferedEpoch);
            let params = RandomProgramParams::mixed(40, 8);
            let programs = random_programs(seed, cfg.cores, &params);
            let mut sys = System::new(cfg, programs).expect("valid config");
            sys.run()
        };
        prop_assert_eq!(mk(), mk());
    }
}
