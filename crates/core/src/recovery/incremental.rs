//! The BEP/BSP verdict kept current across a crash sweep.
//!
//! A sweep visits crash points in time order, and between two points only
//! a few lines change value. [`IncrementalCheck`] holds the counts that
//! decide [`ConsistencyChecker::check_bep`] and
//! [`ConsistencyChecker::check_bsp_recovered`] and updates them per changed
//! line, so a whole sweep costs time linear in the journal instead of a
//! full check per point:
//!
//! * per epoch, its lines holding its own durable value (`durable`) and
//!   its lines whose durable value is older than its last write to them
//!   (`uncovered`; the epoch is complete when this is zero);
//! * per core, the epochs with durable effects (the largest is the durable
//!   frontier), the incomplete epochs (the smallest is the oldest
//!   incomplete one), and the dependent epochs of recorded dependences
//!   whose source is still incomplete;
//! * the number of lines holding an unattributable value, and the number
//!   of epochs that are durable in part.

use super::ConsistencyChecker;
use pbm_nvram::LineValue;
use pbm_types::{CoreId, EpochId, EpochTag, LineAddr};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Incrementally maintained consistency verdict over one durable image.
///
/// Starts from the empty image; feed it every change of a line's durable
/// (under BSP: recovered) value with [`IncrementalCheck::update`]. At any
/// point [`IncrementalCheck::is_consistent`] equals
/// `check_bep(&image).is_ok()` — or `check_bsp_recovered(&image).is_ok()`
/// when built `atomic` — for the image the updates describe.
#[derive(Debug)]
pub struct IncrementalCheck<'a> {
    ck: &'a ConsistencyChecker,
    atomic: bool,
    /// Dense index of every epoch that recorded a write.
    index: HashMap<EpochTag, usize>,
    /// Per line: `(position of an epoch's last write, epoch index)`,
    /// ascending by position.
    last_writes: HashMap<LineAddr, Vec<(usize, usize)>>,
    /// Per epoch index: the dependents of its recorded dependences.
    dependents: Vec<Vec<EpochTag>>,
    counts: Counts,
}

/// The part of the state that changes with the image.
#[derive(Debug)]
struct Counts {
    epochs: Vec<EpochCounts>,
    cores: BTreeMap<CoreId, CoreSets>,
    phantoms: usize,
    partial: usize,
}

#[derive(Debug, Clone, Copy)]
struct EpochCounts {
    tag: EpochTag,
    durable: usize,
    uncovered: usize,
}

#[derive(Debug, Default)]
struct CoreSets {
    durable: BTreeSet<EpochId>,
    incomplete: BTreeSet<EpochId>,
    /// Multiset of dependent epochs blocked on an incomplete source.
    blocked: BTreeMap<EpochId, usize>,
}

impl ConsistencyChecker {
    /// An [`IncrementalCheck`] over this journal, starting from the empty
    /// image; `atomic` adds the BSP all-or-nothing rule.
    pub fn incremental(&self, atomic: bool) -> IncrementalCheck<'_> {
        let mut index = HashMap::with_capacity(self.epoch_writes.len());
        let mut last_writes: HashMap<LineAddr, Vec<(usize, usize)>> = HashMap::new();
        let mut epochs = Vec::with_capacity(self.epoch_writes.len());
        let mut cores: BTreeMap<CoreId, CoreSets> = BTreeMap::new();
        for (e, (&tag, lines)) in self.epoch_writes.iter().enumerate() {
            index.insert(tag, e);
            for (&line, &pos) in lines {
                last_writes.entry(line).or_default().push((pos, e));
            }
            // Nothing is durable yet, so every epoch is wholly uncovered.
            epochs.push(EpochCounts {
                tag,
                durable: 0,
                uncovered: lines.len(),
            });
            cores
                .entry(tag.core)
                .or_default()
                .incomplete
                .insert(tag.epoch);
        }
        for writes in last_writes.values_mut() {
            writes.sort_unstable();
        }
        let mut dependents = vec![Vec::new(); epochs.len()];
        for &(source, dependent) in &self.dependences {
            // A source that wrote nothing is vacuously complete.
            if let Some(&e) = index.get(&source) {
                dependents[e].push(dependent);
                *cores
                    .entry(dependent.core)
                    .or_default()
                    .blocked
                    .entry(dependent.epoch)
                    .or_default() += 1;
            }
        }
        IncrementalCheck {
            ck: self,
            atomic,
            index,
            last_writes,
            dependents,
            counts: Counts {
                epochs,
                cores,
                phantoms: 0,
                partial: 0,
            },
        }
    }
}

impl IncrementalCheck<'_> {
    /// Applies one line's change of durable value from `before` to `after`
    /// (`None` = the line holds nothing).
    pub fn update(&mut self, line: LineAddr, before: Option<LineValue>, after: Option<LineValue>) {
        let was = before.map(|tok| self.ck.attribute(line, tok));
        let now = after.map(|tok| self.ck.attribute(line, tok));
        let counts = &mut self.counts;
        counts.phantoms += usize::from(matches!(now, Some(None)));
        counts.phantoms -= usize::from(matches!(was, Some(None)));
        let (was, now) = (was.flatten(), now.flatten());
        // Preloaded values belong to no epoch and are not indexed.
        if let Some(&e) = was.and_then(|(_, tag)| self.index.get(&tag)) {
            counts.change(&self.dependents, e, |c| c.durable -= 1);
        }
        if let Some(&e) = now.and_then(|(_, tag)| self.index.get(&tag)) {
            counts.change(&self.dependents, e, |c| c.durable += 1);
        }
        // An epoch's write at position `p` is covered iff the durable
        // value's position is >= p; the epochs whose last write lies
        // between the old and new positions flip.
        let (from, to) = (was.map(|(p, _)| p), now.map(|(p, _)| p));
        if from == to {
            return;
        }
        let Some(writes) = self.last_writes.get(&line) else {
            return;
        };
        let covered_below = |pos: Option<usize>| writes.partition_point(|&(p, _)| Some(p) <= pos);
        let (a, b) = (covered_below(from), covered_below(to));
        for &(_, e) in &writes[a.min(b)..a.max(b)] {
            if b > a {
                counts.change(&self.dependents, e, |c| c.uncovered -= 1);
            } else {
                counts.change(&self.dependents, e, |c| c.uncovered += 1);
            }
        }
    }

    /// True when the image described so far passes the check.
    pub fn is_consistent(&self) -> bool {
        let counts = &self.counts;
        counts.phantoms == 0
            && (!self.atomic || counts.partial == 0)
            && counts.cores.values().all(|c| {
                let Some(&frontier) = c.durable.last() else {
                    return true;
                };
                // Program order: nothing older than the frontier incomplete.
                c.incomplete.first().is_none_or(|&o| o >= frontier)
                    // Inter-thread: no started dependent on an incomplete source.
                    && c.blocked.keys().next().is_none_or(|&d| d > frontier)
            })
    }
}

impl Counts {
    /// Applies `f` to epoch `e`'s counts and moves the epoch between the
    /// per-core sets whose membership changed.
    fn change(&mut self, dependents: &[Vec<EpochTag>], e: usize, f: impl FnOnce(&mut EpochCounts)) {
        let before = self.epochs[e];
        f(&mut self.epochs[e]);
        let after = self.epochs[e];
        let tag = after.tag;
        let partial = |c: EpochCounts| c.durable > 0 && c.uncovered > 0;
        self.partial += usize::from(partial(after));
        self.partial -= usize::from(partial(before));
        let core = self
            .cores
            .get_mut(&tag.core)
            .expect("writers have core sets");
        if (before.durable > 0) != (after.durable > 0) {
            if after.durable > 0 {
                core.durable.insert(tag.epoch);
            } else {
                core.durable.remove(&tag.epoch);
            }
        }
        if (before.uncovered > 0) == (after.uncovered > 0) {
            return;
        }
        let incomplete = after.uncovered > 0;
        if incomplete {
            core.incomplete.insert(tag.epoch);
        } else {
            core.incomplete.remove(&tag.epoch);
        }
        for d in &dependents[e] {
            let blocked = &mut self.cores.entry(d.core).or_default().blocked;
            if incomplete {
                *blocked.entry(d.epoch).or_default() += 1;
            } else if let Some(n) = blocked.get_mut(&d.epoch) {
                *n -= 1;
                if *n == 0 {
                    blocked.remove(&d.epoch);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_nvram::DurableSnapshot;
    use pbm_types::Cycle;
    use proptest::prelude::*;

    const LINES: u64 = 4;

    /// `((source core, epoch), (dependent core, epoch))`.
    type Dep = ((u32, u64), (u32, u64));

    /// A journal from `(line, core, epoch)` writes (tokens 100, 101, ...),
    /// preloads of lines 0 and 1 (tokens 1, 2) and `(source, dependent)`
    /// dependences.
    fn journal(writes: &[(u64, u32, u64)], deps: &[Dep]) -> ConsistencyChecker {
        let tag = |(c, e): (u32, u64)| EpochTag::new(CoreId::new(c), EpochId::new(e));
        let mut ck = ConsistencyChecker::new();
        ck.record_initial(LineAddr::new(0), 1);
        ck.record_initial(LineAddr::new(1), 2);
        for (i, &(line, core, epoch)) in writes.iter().enumerate() {
            ck.record_write(LineAddr::new(line), 100 + i as u64, tag((core, epoch)));
        }
        for &(s, d) in deps {
            ck.record_dependence(tag(s), tag(d));
        }
        ck
    }

    proptest! {
        /// After every single-line change the incremental verdict equals
        /// the full check of the same image, under both rule sets.
        #[test]
        fn verdict_matches_full_check_after_every_change(
            writes in proptest::collection::vec((0..LINES, 0u32..2, 0u64..3), 1..14),
            deps in proptest::collection::vec(((0u32..2, 0u64..3), (0u32..2, 0u64..3)), 0..4),
            changes in proptest::collection::vec((0..LINES, 0usize..20), 1..40),
        ) {
            let ck = journal(&writes, &deps);
            // Candidate values: anything written or preloaded (to any
            // line, so misplaced tokens occur), a token nobody wrote, or
            // nothing.
            let mut values: Vec<Option<LineValue>> = vec![None, Some(1), Some(2), Some(999)];
            values.extend((0..writes.len() as u64).map(|i| Some(100 + i)));
            for atomic in [false, true] {
                let mut check = ck.incremental(atomic);
                let mut image: HashMap<LineAddr, LineValue> = HashMap::new();
                for &(line, pick) in &changes {
                    let line = LineAddr::new(line);
                    let after = values[pick % values.len()];
                    let before = match after {
                        Some(v) => image.insert(line, v),
                        None => image.remove(&line),
                    };
                    check.update(line, before, after);
                    let snap = DurableSnapshot::new(image.clone(), Cycle::ZERO);
                    let full = if atomic {
                        ck.check_bsp_recovered(&snap)
                    } else {
                        ck.check_bep(&snap)
                    };
                    prop_assert_eq!(check.is_consistent(), full.is_ok(), "{:?}", full);
                }
            }
        }
    }
}
