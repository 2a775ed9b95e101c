//! Simulation statistics: counters.

use serde::{Deserialize, Serialize};

/// Aggregated counters from one simulation run.
///
/// Every counter is cumulative over the whole run; per-core statistics are
/// summed by the simulator before being reported. The field groups mirror
/// the quantities the paper reports: execution time, epoch/conflict
/// accounting (Figure 12), persist traffic, and stall attribution.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total execution time in cycles (max over cores).
    pub cycles: u64,
    /// Committed load operations.
    pub loads: u64,
    /// Committed store operations.
    pub stores: u64,
    /// Persist barriers executed (programmer- or hardware-inserted).
    pub barriers: u64,
    /// Completed application-level transactions (micro-benchmarks only).
    pub transactions: u64,

    /// L1 hits (loads + stores).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses (serviced by NVRAM).
    pub llc_misses: u64,

    /// Cache-line reads from NVRAM.
    pub nvram_reads: u64,
    /// Cache-line writes (persists) to NVRAM, excluding log/checkpoint.
    pub nvram_writes: u64,
    /// The subset of [`SimStats::nvram_writes`] performed by epoch flushes
    /// (the Figure 8 handshake), excluding evictions and write-through
    /// persists. Equals the number of distinct dirty lines per flushed
    /// epoch, which is why proactive flushing (§4) cannot change it — the
    /// differential checker in `pbm-check` asserts exactly that.
    pub epoch_flush_writes: u64,
    /// Undo-log line writes to NVRAM (BSP).
    pub log_writes: u64,
    /// Processor-state checkpoint line writes to NVRAM (BSP).
    pub checkpoint_writes: u64,

    /// Epochs closed (persist barrier retired or hardware cut).
    pub epochs_created: u64,
    /// Epochs fully persisted.
    pub epochs_persisted: u64,
    /// Epochs whose flush was triggered by a conflict (online persist).
    pub epochs_conflict_flushed: u64,
    /// Epochs flushed proactively on completion (PF, offline persist).
    pub epochs_proactive_flushed: u64,
    /// Epochs flushed because a dirty line had to be evicted.
    pub epochs_eviction_flushed: u64,

    /// Intra-thread epoch conflicts detected (§3.2).
    pub conflicts_intra: u64,
    /// Inter-thread epoch conflicts detected (§3.1).
    pub conflicts_inter: u64,
    /// Inter-thread dependences recorded in IDT registers instead of
    /// flushing online.
    pub idt_recorded: u64,
    /// Inter-thread conflicts that fell back to an online flush because all
    /// IDT register pairs were in use.
    pub idt_overflows: u64,
    /// Epoch splits performed by the deadlock-avoidance mechanism (§3.3).
    pub deadlock_splits: u64,

    /// Cycles cores spent stalled waiting for online epoch persists.
    pub online_persist_stall_cycles: u64,
    /// Cycles cores spent blocked on demand loads.
    pub load_cycles: u64,
    /// Number of times a core parked waiting for an epoch persist.
    pub parks: u64,
    /// Cycles cores spent spinning on contended locks.
    pub lock_wait_cycles: u64,
    /// Cycles cores spent stalled at persist barriers (EP rule E2, or BEP
    /// in-flight-epoch back-pressure).
    pub barrier_stall_cycles: u64,
    /// Messages injected into the on-chip network.
    pub noc_messages: u64,
    /// Flits injected into the on-chip network.
    pub noc_flits: u64,
}

impl SimStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of epochs whose flush was conflict-triggered, in percent —
    /// the quantity plotted in Figure 12. Returns 0.0 if no epoch ever
    /// flushed.
    pub fn conflicting_epoch_pct(&self) -> f64 {
        let flushed = self.epochs_persisted;
        if flushed == 0 {
            0.0
        } else {
            100.0 * self.epochs_conflict_flushed as f64 / flushed as f64
        }
    }

    /// Total epoch conflicts of both kinds.
    pub fn total_conflicts(&self) -> u64 {
        self.conflicts_intra + self.conflicts_inter
    }

    /// Transactions per million cycles (micro-benchmark throughput metric).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.transactions as f64 * 1.0e6 / self.cycles as f64
        }
    }

    /// Merges per-core statistics into an aggregate: counters add, `cycles`
    /// takes the max (wall-clock is the slowest core).
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.loads += other.loads;
        self.stores += other.stores;
        self.barriers += other.barriers;
        self.transactions += other.transactions;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.llc_hits += other.llc_hits;
        self.llc_misses += other.llc_misses;
        self.nvram_reads += other.nvram_reads;
        self.nvram_writes += other.nvram_writes;
        self.epoch_flush_writes += other.epoch_flush_writes;
        self.log_writes += other.log_writes;
        self.checkpoint_writes += other.checkpoint_writes;
        self.epochs_created += other.epochs_created;
        self.epochs_persisted += other.epochs_persisted;
        self.epochs_conflict_flushed += other.epochs_conflict_flushed;
        self.epochs_proactive_flushed += other.epochs_proactive_flushed;
        self.epochs_eviction_flushed += other.epochs_eviction_flushed;
        self.conflicts_intra += other.conflicts_intra;
        self.conflicts_inter += other.conflicts_inter;
        self.idt_recorded += other.idt_recorded;
        self.idt_overflows += other.idt_overflows;
        self.deadlock_splits += other.deadlock_splits;
        self.online_persist_stall_cycles += other.online_persist_stall_cycles;
        self.load_cycles += other.load_cycles;
        self.parks += other.parks;
        self.lock_wait_cycles += other.lock_wait_cycles;
        self.barrier_stall_cycles += other.barrier_stall_cycles;
        self.noc_messages += other.noc_messages;
        self.noc_flits += other.noc_flits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicting_epoch_pct() {
        let mut s = SimStats::new();
        assert_eq!(s.conflicting_epoch_pct(), 0.0);
        s.epochs_persisted = 10;
        s.epochs_conflict_flushed = 9;
        assert!((s.conflicting_epoch_pct() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn throughput() {
        let mut s = SimStats::new();
        assert_eq!(s.throughput(), 0.0);
        s.transactions = 100;
        s.cycles = 1_000_000;
        assert!((s.throughput() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn merge_takes_max_cycles_and_adds_counters() {
        let mut a = SimStats {
            cycles: 10,
            loads: 1,
            ..SimStats::new()
        };
        let b = SimStats {
            cycles: 20,
            loads: 2,
            conflicts_inter: 3,
            ..SimStats::new()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.loads, 3);
        assert_eq!(a.conflicts_inter, 3);
        assert_eq!(a.total_conflicts(), 3);
    }
}
