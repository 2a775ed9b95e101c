//! The NVRAM device: durable line store with optional write history.

use crate::crash::DurableSnapshot;
use pbm_types::{Cycle, FxHashMap, LineAddr};
use std::collections::HashMap;

/// The modelled contents of one 64-byte line: an opaque token.
///
/// Workloads store meaningful tokens (sequence numbers, pointers) so that
/// recovery checks can reason about application state; the memory system
/// treats tokens as opaque.
pub type LineValue = u64;

/// Byte-addressable non-volatile memory at line granularity.
///
/// `persist` applies a durable write at a given cycle; `read` returns the
/// current durable value. When constructed [`NvramDevice::with_history`],
/// every write is also journalled so [`NvramDevice::snapshot_at`] can
/// reconstruct the durable state at any past cycle — the primitive on which
/// all crash-consistency checking in this repository is built.
#[derive(Debug, Clone, Default)]
pub struct NvramDevice {
    lines: FxHashMap<LineAddr, LineValue>,
    history: Option<Vec<(Cycle, LineAddr, LineValue)>>,
    writes: u64,
    reads: u64,
}

impl NvramDevice {
    /// Creates a device that keeps no write history (fast; for benches).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a device that journals every write so durable state at any
    /// cycle can be reconstructed (for crash-consistency tests).
    pub fn with_history() -> Self {
        NvramDevice {
            history: Some(Vec::new()),
            ..Self::default()
        }
    }

    /// Durably writes `value` to `line`, effective at cycle `at`.
    ///
    /// The caller (memory-controller timing model) is responsible for `at`
    /// being the *completion* time of the NVRAM write; the device itself is
    /// timing-free.
    pub fn persist(&mut self, line: LineAddr, value: LineValue, at: Cycle) {
        self.lines.insert(line, value);
        self.writes += 1;
        if let Some(h) = &mut self.history {
            h.push((at, line, value));
        }
    }

    /// Reads the durable value of `line`, or `None` if never persisted.
    pub fn read(&mut self, line: LineAddr) -> Option<LineValue> {
        self.reads += 1;
        self.lines.get(&line).copied()
    }

    /// Reads without bumping the access counter (for checkers/tests).
    pub fn peek(&self, line: LineAddr) -> Option<LineValue> {
        self.lines.get(&line).copied()
    }

    /// Total durable line writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Total line reads served.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of distinct lines currently holding durable data.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Reconstructs the durable state as of cycle `at` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the device was not created [`Self::with_history`] — asking
    /// for a historical snapshot without a journal is a test-harness bug.
    pub fn snapshot_at(&self, at: Cycle) -> DurableSnapshot {
        let mut lines = HashMap::new();
        for &(_, line, value) in self.journal().iter().filter(|(t, _, _)| *t <= at) {
            lines.insert(line, value);
        }
        DurableSnapshot::new(lines, at)
    }

    /// Every durable write as `(completion cycle, line, value)`, in the
    /// order [`Self::persist`] was called.
    ///
    /// # Panics
    ///
    /// Panics if the device was not created [`Self::with_history`].
    pub(crate) fn journal(&self) -> &[(Cycle, LineAddr, LineValue)] {
        self.history
            .as_deref()
            .expect("the write journal requires NvramDevice::with_history")
    }

    /// The current durable state as a snapshot (works without history).
    pub fn snapshot_now(&self, at: Cycle) -> DurableSnapshot {
        DurableSnapshot::new(self.lines.iter().map(|(l, v)| (*l, *v)).collect(), at)
    }

    /// The distinct cycles at which at least one durable write completed,
    /// sorted ascending.
    ///
    /// Durable state only changes at these instants, so a crash sweep over
    /// `{0} ∪ persist_times()` is *exhaustive*: it observes every durable
    /// state the run ever exposed (the `pbm-check` harness relies on this).
    ///
    /// # Panics
    ///
    /// Panics if the device was not created [`Self::with_history`].
    pub fn persist_times(&self) -> Vec<Cycle> {
        let mut times: Vec<Cycle> = self.journal().iter().map(|&(t, _, _)| t).collect();
        times.sort_unstable();
        times.dedup();
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_after_persist() {
        let mut nv = NvramDevice::new();
        assert_eq!(nv.read(LineAddr::new(5)), None);
        nv.persist(LineAddr::new(5), 42, Cycle::new(10));
        assert_eq!(nv.read(LineAddr::new(5)), Some(42));
        assert_eq!(nv.peek(LineAddr::new(5)), Some(42));
        assert_eq!(nv.write_count(), 1);
        assert_eq!(nv.read_count(), 2);
        assert_eq!(nv.resident_lines(), 1);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut nv = NvramDevice::new();
        nv.persist(LineAddr::new(1), 1, Cycle::new(1));
        nv.persist(LineAddr::new(1), 2, Cycle::new(2));
        assert_eq!(nv.peek(LineAddr::new(1)), Some(2));
        assert_eq!(nv.resident_lines(), 1);
        assert_eq!(nv.write_count(), 2);
    }

    #[test]
    fn snapshot_reconstructs_past() {
        let mut nv = NvramDevice::with_history();
        nv.persist(LineAddr::new(1), 10, Cycle::new(100));
        nv.persist(LineAddr::new(2), 20, Cycle::new(200));
        nv.persist(LineAddr::new(1), 11, Cycle::new(300));
        let s = nv.snapshot_at(Cycle::new(250));
        assert_eq!(s.line(LineAddr::new(1)), Some(10));
        assert_eq!(s.line(LineAddr::new(2)), Some(20));
        let s0 = nv.snapshot_at(Cycle::new(50));
        assert_eq!(s0.line(LineAddr::new(1)), None);
        let s_end = nv.snapshot_at(Cycle::new(300));
        assert_eq!(s_end.line(LineAddr::new(1)), Some(11));
    }

    #[test]
    fn persist_times_are_sorted_and_deduped() {
        let mut nv = NvramDevice::with_history();
        nv.persist(LineAddr::new(1), 10, Cycle::new(300));
        nv.persist(LineAddr::new(2), 20, Cycle::new(100));
        nv.persist(LineAddr::new(3), 30, Cycle::new(300));
        assert_eq!(nv.persist_times(), vec![Cycle::new(100), Cycle::new(300)]);
    }

    #[test]
    #[should_panic(expected = "with_history")]
    fn snapshot_without_history_panics() {
        let nv = NvramDevice::new();
        let _ = nv.snapshot_at(Cycle::new(1));
    }

    #[test]
    fn snapshot_now_works_without_history() {
        let mut nv = NvramDevice::new();
        nv.persist(LineAddr::new(9), 9, Cycle::new(9));
        let s = nv.snapshot_now(Cycle::new(9));
        assert_eq!(s.line(LineAddr::new(9)), Some(9));
    }
}
