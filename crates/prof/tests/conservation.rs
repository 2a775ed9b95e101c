//! The conservation invariant on real traces: for **every** barrier of
//! every built-in micro-benchmark, under both the baseline (LB) and the
//! full (LB++) barrier, the attributed segments sum *exactly* to the
//! barrier's end-to-end persist latency — and that latency itself matches
//! an independent recomputation from the raw event stream. The BSP
//! application proxies are held to the same invariant, and their profiles
//! are tied to the simulator's own counters.

use pbm_prof::analyze;
use pbm_sim::System;
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig, TraceEvent, TraceEventKind};
use pbm_workloads::apps::{self, AppParams};
use pbm_workloads::micro::{self, MicroParams};
use std::collections::BTreeMap;

fn traced_events(kind: BarrierKind, wl: &pbm_workloads::Workload) -> Vec<TraceEvent> {
    let mut cfg = SystemConfig::small_test();
    cfg.persistency = PersistencyKind::BufferedEpoch;
    cfg.barrier = kind;
    let mut sys = System::new(cfg, wl.programs.clone()).expect("valid config");
    wl.apply_preloads(&mut sys);
    sys.enable_tracing();
    sys.run();
    sys.take_trace_events()
}

#[test]
fn attribution_conserves_for_every_barrier_under_lb_and_lbpp() {
    let mut params = MicroParams::paper();
    params.threads = 4;
    params.ops_per_thread = 6;
    let mut checked = 0usize;
    for wl in micro::all(&params) {
        for kind in [BarrierKind::Lb, BarrierKind::LbPp] {
            let events = traced_events(kind, &wl);
            let profile = analyze(&events);
            assert!(
                !profile.barriers.is_empty(),
                "{kind}/{}: expected persisted epochs",
                wl.name
            );
            assert_eq!(
                profile.incomplete, 0,
                "{kind}/{}: a drained run leaves no dangling flushes",
                wl.name
            );
            // Independent anchors straight from the raw stream: first
            // FlushRequested per tag (FlushEpoch as fallback), first
            // PersistCmp per tag.
            let mut requested: BTreeMap<(u32, u64), u64> = BTreeMap::new();
            let mut persisted: BTreeMap<(u32, u64), u64> = BTreeMap::new();
            for ev in &events {
                match ev.kind {
                    TraceEventKind::FlushRequested { tag, .. }
                    | TraceEventKind::FlushEpoch { tag, .. } => {
                        requested
                            .entry((tag.core.as_u32(), tag.epoch.as_u64()))
                            .or_insert(ev.cycle.as_u64());
                    }
                    TraceEventKind::PersistCmp { tag } => {
                        persisted
                            .entry((tag.core.as_u32(), tag.epoch.as_u64()))
                            .or_insert(ev.cycle.as_u64());
                    }
                    _ => {}
                }
            }
            for b in &profile.barriers {
                let key = (b.tag.core.as_u32(), b.tag.epoch.as_u64());
                let want = persisted[&key] - requested[&key];
                assert_eq!(
                    b.latency(),
                    want,
                    "{kind}/{}: {} latency disagrees with the raw stream",
                    wl.name,
                    b.tag
                );
                assert_eq!(
                    b.attribution.total(),
                    b.latency(),
                    "{kind}/{}: {} attribution does not conserve",
                    wl.name,
                    b.tag
                );
                checked += 1;
            }
            // The profile's totals are the sum over barriers.
            let lat_sum: u64 = profile.barriers.iter().map(|b| b.latency()).sum();
            assert_eq!(profile.totals.total(), lat_sum, "{kind}/{}", wl.name);
        }
    }
    assert!(checked > 50, "only {checked} barriers checked — scale up");
}

/// BSP application proxies under a small LB epoch, LB++ and LB++ without
/// the undo log: every barrier conserves, the drained run leaves no
/// incomplete flush, and the profile's counts tie to `SimStats`.
#[test]
fn bsp_profiles_conserve_and_tie_to_sim_stats() {
    let mut params = AppParams::tiny();
    params.threads = 4;
    params.ops_per_thread = 4000;
    let rungs = [
        ("LB300", BarrierKind::Lb, 300, true),
        ("LB++10K", BarrierKind::LbPp, 10_000, true),
        ("NOLOG", BarrierKind::LbPp, 10_000, false),
    ];
    let (mut checked, mut splits) = (0usize, 0u64);
    for wl in apps::all(&params) {
        for (label, barrier, epoch_size, logging) in rungs {
            let mut cfg = SystemConfig::small_test();
            cfg.persistency = PersistencyKind::BufferedStrictBulk;
            cfg.barrier = barrier;
            cfg.bsp_epoch_size = epoch_size;
            cfg.logging = logging;
            let mut sys = System::new(cfg, wl.programs.clone()).expect("valid config");
            wl.apply_preloads(&mut sys);
            sys.enable_tracing();
            let stats = sys.run();
            let profile = analyze(&sys.take_trace_events());
            let cell = format!("{label}/{}", wl.name);
            assert_eq!(profile.incomplete, 0, "{cell}: dangling flushes");
            assert_eq!(
                profile.barriers.len() as u64,
                stats.epochs_persisted,
                "{cell}: one barrier per persisted epoch"
            );
            assert_eq!(
                profile.deadlock_splits, stats.deadlock_splits,
                "{cell}: deadlock splits"
            );
            for b in &profile.barriers {
                assert_eq!(
                    b.attribution.total(),
                    b.latency(),
                    "{cell}: {} attribution does not conserve",
                    b.tag
                );
            }
            checked += profile.barriers.len();
            splits += profile.deadlock_splits;
        }
    }
    assert!(checked > 100, "only {checked} barriers checked — scale up");
    assert!(splits > 0, "no deadlock split exercised — scale up");
}
