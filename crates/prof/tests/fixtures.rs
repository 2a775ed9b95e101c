//! Hand-built traces with critical paths known by construction: every
//! cycle of each fixture's persist latency is placed deliberately, and
//! the tests assert the analyzer attributes **exactly** those cycles to
//! exactly those components.

use pbm_prof::{analyze, Component};
use pbm_types::{
    BankId, CoreId, Cycle, EpochId, EpochTag, FlushReason, McId, TraceEvent, TraceEventKind,
};

fn tag(core: u32, epoch: u64) -> EpochTag {
    EpochTag::new(CoreId::new(core), EpochId::new(epoch))
}

fn ev(cycle: u64, kind: TraceEventKind) -> TraceEvent {
    TraceEvent::new(Cycle::new(cycle), kind)
}

fn bank_start(
    t: EpochTag,
    bank: u32,
    start: u64,
    (cmd_at, wb_at, log_at, chk_at): (u64, u64, u64, u64),
    lines: u32,
) -> TraceEvent {
    ev(
        start,
        TraceEventKind::BankFlushStart {
            tag: t,
            bank: BankId::new(bank),
            cmd_at: Cycle::new(cmd_at),
            wb_at: Cycle::new(wb_at),
            log_at: Cycle::new(log_at),
            chk_at: Cycle::new(chk_at),
            lines,
        },
    )
}

fn write(
    t: EpochTag,
    bank: u32,
    stamp: u64,
    (mc_at, begin, durable, ack_at): (u64, u64, u64, u64),
) -> TraceEvent {
    ev(
        stamp,
        TraceEventKind::PersistWrite {
            tag: t,
            bank: BankId::new(bank),
            mc: McId::new(0),
            mc_at: Cycle::new(mc_at),
            begin: Cycle::new(begin),
            durable: Cycle::new(durable),
            ack_at: Cycle::new(ack_at),
        },
    )
}

/// A single-core BEP barrier with every handshake segment nonzero:
///
/// ```text
/// request+flush @100 → bank gate held by command delivery until 110
/// → line: MC @115, queue exit @120, durable @480, ack @485
/// → BankAck @490 → PersistCMP @490
/// ```
///
/// Latency 390 = flush_cmd 10 + noc_to_mc 5 + mc_queue 5 +
/// nvram_write 360 + noc_ack 5 + bank_ack 5.
#[test]
fn single_core_bep_exact_attribution() {
    let t = tag(0, 0);
    let events = vec![
        ev(
            100,
            TraceEventKind::FlushRequested {
                tag: t,
                reason: FlushReason::Barrier,
            },
        ),
        ev(
            100,
            TraceEventKind::FlushEpoch {
                tag: t,
                reason: FlushReason::Barrier,
            },
        ),
        bank_start(t, 0, 110, (110, 105, 100, 100), 1),
        write(t, 0, 110, (115, 120, 480, 485)),
        ev(
            490,
            TraceEventKind::BankAck {
                tag: t,
                bank: BankId::new(0),
            },
        ),
        ev(490, TraceEventKind::PersistCmp { tag: t }),
    ];
    let profile = analyze(&events);
    assert_eq!(profile.barriers.len(), 1);
    let b = &profile.barriers[0];
    assert_eq!(b.tag, t);
    assert_eq!(b.reason, FlushReason::Barrier);
    assert_eq!(b.latency(), 390);
    assert_eq!(b.straggler_bank, Some(BankId::new(0)));
    let expect = [
        (Component::DepWait, 0),
        (Component::ArbQueue, 0),
        (Component::FlushCmd, 10),
        (Component::L1Writeback, 0),
        (Component::UndoLog, 0),
        (Component::Checkpoint, 0),
        (Component::NocToMc, 5),
        (Component::McQueue, 5),
        (Component::NvramWrite, 360),
        (Component::NocAck, 5),
        (Component::BankAck, 5),
        (Component::Retire, 0),
    ];
    for (c, n) in expect {
        assert_eq!(b.attribution.get(c), n, "{c}");
    }
    assert_eq!(b.attribution.total(), b.latency(), "conservation");
    assert_eq!(
        b.attribution.dominant(),
        Some((Component::NvramWrite, 360)),
        "the NVRAM cell write dominates a quiet single-core barrier"
    );
}

/// A two-core IDT chain: C1:E0's flush was requested at 100 but the
/// arbiter sat on it until its IDT source (C0:E0) persisted at 490 —
/// every one of those 390 cycles is `dep_wait`, witnessed by the
/// recorded source.
#[test]
fn idt_chain_attributes_dep_wait_with_witness() {
    let src = tag(0, 0);
    let dep = tag(1, 0);
    let events = vec![
        ev(
            90,
            TraceEventKind::IdtRecord {
                source: src,
                dependent: dep,
            },
        ),
        // Source epoch: flushes promptly, persists at 490.
        ev(
            100,
            TraceEventKind::FlushRequested {
                tag: src,
                reason: FlushReason::Conflict,
            },
        ),
        ev(
            100,
            TraceEventKind::FlushEpoch {
                tag: src,
                reason: FlushReason::Conflict,
            },
        ),
        ev(490, TraceEventKind::PersistCmp { tag: src }),
        // Dependent epoch: requested at 100, released only at 490.
        ev(
            100,
            TraceEventKind::FlushRequested {
                tag: dep,
                reason: FlushReason::Barrier,
            },
        ),
        ev(
            490,
            TraceEventKind::FlushEpoch {
                tag: dep,
                reason: FlushReason::Barrier,
            },
        ),
        ev(520, TraceEventKind::PersistCmp { tag: dep }),
    ];
    let profile = analyze(&events);
    assert_eq!(profile.barriers.len(), 2);
    assert_eq!(profile.idt_records, 1);
    let b = profile.barriers.iter().find(|b| b.tag == dep).unwrap();
    assert_eq!(b.latency(), 420);
    assert_eq!(b.attribution.get(Component::DepWait), 390);
    assert_eq!(
        b.attribution.get(Component::Retire),
        30,
        "no bank detail in this fixture: post-flush time is retirement"
    );
    assert_eq!(b.attribution.total(), b.latency(), "conservation");
    assert_eq!(b.dep_sources, vec![src], "the IDT witness survives");
    // The source itself never waited.
    let s = profile.barriers.iter().find(|b| b.tag == src).unwrap();
    assert_eq!(s.attribution.get(Component::DepWait), 0);
}

/// Same-core queueing: E1's flush was requested at 120, but E0's flush
/// window [100, 490) was still in flight (the arbiter serializes one
/// core's epochs), so E1 queues for 370 cycles (`arb_queue`) and then
/// waits 10 more (`dep_wait`) before its own FlushEpoch at 500.
#[test]
fn same_core_serialization_is_arb_queue() {
    let e0 = tag(0, 0);
    let e1 = tag(0, 1);
    let events = vec![
        ev(
            100,
            TraceEventKind::FlushRequested {
                tag: e0,
                reason: FlushReason::Barrier,
            },
        ),
        ev(
            100,
            TraceEventKind::FlushEpoch {
                tag: e0,
                reason: FlushReason::Barrier,
            },
        ),
        ev(490, TraceEventKind::PersistCmp { tag: e0 }),
        ev(
            120,
            TraceEventKind::FlushRequested {
                tag: e1,
                reason: FlushReason::Barrier,
            },
        ),
        ev(
            500,
            TraceEventKind::FlushEpoch {
                tag: e1,
                reason: FlushReason::Barrier,
            },
        ),
        ev(530, TraceEventKind::PersistCmp { tag: e1 }),
    ];
    let profile = analyze(&events);
    let b = profile.barriers.iter().find(|b| b.tag == e1).unwrap();
    assert_eq!(b.latency(), 410);
    assert_eq!(b.attribution.get(Component::ArbQueue), 370);
    assert_eq!(b.attribution.get(Component::DepWait), 10);
    assert_eq!(b.attribution.get(Component::Retire), 30);
    assert_eq!(b.attribution.total(), b.latency(), "conservation");
}

/// Two banks, one straggler: B0 finishes early, B1 was gated on a late
/// L1 writeback and its line persists last. The critical path must run
/// through B1 — its gate, its line, its ack — and ignore B0 entirely.
#[test]
fn straggler_bank_owns_the_critical_path() {
    let t = tag(0, 0);
    let events = vec![
        ev(
            0,
            TraceEventKind::FlushRequested {
                tag: t,
                reason: FlushReason::Drain,
            },
        ),
        ev(
            0,
            TraceEventKind::FlushEpoch {
                tag: t,
                reason: FlushReason::Drain,
            },
        ),
        bank_start(t, 0, 0, (0, 0, 0, 0), 1),
        bank_start(t, 1, 20, (5, 20, 0, 0), 1),
        write(t, 0, 0, (5, 5, 365, 370)),
        write(t, 1, 20, (25, 30, 390, 395)),
        ev(
            375,
            TraceEventKind::BankAck {
                tag: t,
                bank: BankId::new(0),
            },
        ),
        ev(
            400,
            TraceEventKind::BankAck {
                tag: t,
                bank: BankId::new(1),
            },
        ),
        ev(410, TraceEventKind::PersistCmp { tag: t }),
    ];
    let profile = analyze(&events);
    let b = &profile.barriers[0];
    assert_eq!(b.latency(), 410);
    assert_eq!(b.straggler_bank, Some(BankId::new(1)));
    let expect = [
        (Component::L1Writeback, 20),
        (Component::FlushCmd, 0),
        (Component::NocToMc, 5),
        (Component::McQueue, 5),
        (Component::NvramWrite, 360),
        (Component::NocAck, 5),
        (Component::BankAck, 5),
        (Component::Retire, 10),
    ];
    for (c, n) in expect {
        assert_eq!(b.attribution.get(c), n, "{c}");
    }
    assert_eq!(b.attribution.total(), b.latency(), "conservation");
}

/// Straggler ties break to the smallest bank id, so the choice is
/// deterministic regardless of event order.
#[test]
fn straggler_tie_breaks_to_smallest_bank() {
    let t = tag(0, 0);
    let events = vec![
        ev(
            0,
            TraceEventKind::FlushEpoch {
                tag: t,
                reason: FlushReason::Drain,
            },
        ),
        ev(
            50,
            TraceEventKind::BankAck {
                tag: t,
                bank: BankId::new(3),
            },
        ),
        ev(
            50,
            TraceEventKind::BankAck {
                tag: t,
                bank: BankId::new(1),
            },
        ),
        ev(60, TraceEventKind::PersistCmp { tag: t }),
    ];
    let profile = analyze(&events);
    assert_eq!(profile.barriers[0].straggler_bank, Some(BankId::new(1)));
}

/// Epochs whose PersistCMP never arrived (truncated trace) are counted,
/// not attributed.
#[test]
fn truncated_trace_counts_incomplete_epochs() {
    let t = tag(0, 0);
    let events = vec![ev(
        0,
        TraceEventKind::FlushEpoch {
            tag: t,
            reason: FlushReason::Drain,
        },
    )];
    let profile = analyze(&events);
    assert!(profile.barriers.is_empty());
    assert_eq!(profile.incomplete, 1);
}

/// A missing `FlushRequested` (an older or truncated trace)
/// falls back to the flush start — attribution still conserves.
#[test]
fn missing_request_anchor_falls_back_to_flush_start() {
    let t = tag(0, 0);
    let events = vec![
        ev(
            200,
            TraceEventKind::FlushEpoch {
                tag: t,
                reason: FlushReason::Eviction,
            },
        ),
        ev(260, TraceEventKind::PersistCmp { tag: t }),
    ];
    let profile = analyze(&events);
    let b = &profile.barriers[0];
    assert_eq!(b.requested.as_u64(), 200);
    assert_eq!(b.latency(), 60);
    assert_eq!(b.attribution.total(), 60);
    assert_eq!(b.attribution.get(Component::Retire), 60);
}
