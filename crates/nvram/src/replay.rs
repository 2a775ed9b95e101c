//! Forward replay of a journalled run's durable state, for crash sweeps.

use crate::device::{LineValue, NvramDevice};
use crate::log::UndoLog;
use pbm_types::{Cycle, LineAddr};
use std::collections::{BTreeSet, HashMap};

/// One line's change of value between two consecutive crash points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineChange {
    /// The line.
    pub line: LineAddr,
    /// Its value at the previous point (`None` = absent).
    pub before: Option<LineValue>,
    /// Its value now.
    pub after: Option<LineValue>,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Journal entry `i` became durable.
    Write(usize),
    /// Undo record `i` became durable while its epoch was uncommitted.
    Pend(usize),
    /// Pending undo record `i`'s commit marker became durable.
    Commit(usize),
}

/// Walks every crash point of a journalled run in time order, reporting
/// which lines of the crash image changed since the previous point.
///
/// The crash points are `{0}` ∪ the journal's persist times ∪ (with an
/// undo log) every record's durability and commit times, each also minus
/// one: every instant the image can change, probed under either snapshot
/// inclusivity convention. The image at point `at` is exactly
/// [`NvramDevice::snapshot_at`]`(at)` restricted to the kept lines, then,
/// with a log, [`DurableSnapshot::recover_with`](crate::DurableSnapshot::recover_with)
/// that log. A line's recovered value is the pre-image of its oldest
/// pending record, else its durable value.
///
/// The journal and log are sorted into one event list once, so a whole
/// replay costs O((journal + records) log) rather than a rescan per point.
#[derive(Debug)]
pub struct CrashReplay<'a> {
    journal: &'a [(Cycle, LineAddr, LineValue)],
    log: Option<&'a UndoLog>,
    events: Vec<(Cycle, Event)>,
    next_event: usize,
    points: Vec<Cycle>,
    next_point: usize,
    /// Per line: the newest-appended journal entry applied so far.
    durable: HashMap<LineAddr, (usize, LineValue)>,
    /// Per line: indices of its pending undo records.
    pending: HashMap<LineAddr, BTreeSet<usize>>,
    changes: Vec<LineChange>,
}

impl<'a> CrashReplay<'a> {
    /// A replay of `nvram`'s journal keeping only lines for which `keep`
    /// holds, recovered with `log` if given.
    ///
    /// # Panics
    ///
    /// Panics if `nvram` was not created [`NvramDevice::with_history`].
    pub fn new(
        nvram: &'a NvramDevice,
        log: Option<&'a UndoLog>,
        keep: impl Fn(LineAddr) -> bool,
    ) -> Self {
        let journal = nvram.journal();
        let records = log.map_or(&[][..], UndoLog::records);
        let boundaries = 1 + journal.len() + 2 * records.len();
        let mut points = Vec::with_capacity(2 * boundaries);
        points.push(Cycle::ZERO);
        let mut events = Vec::with_capacity(boundaries);
        for (i, &(t, line, _)) in journal.iter().enumerate() {
            points.push(t);
            if keep(line) {
                events.push((t, Event::Write(i)));
            }
        }
        for (i, r) in records.iter().enumerate() {
            points.push(r.durable_at);
            points.extend(r.committed_at);
            // Pending from `durable_at` until the commit marker is durable
            // (never, if the marker was durable first).
            if r.committed_at.is_none_or(|c| c > r.durable_at) {
                events.push((r.durable_at, Event::Pend(i)));
                events.extend(r.committed_at.map(|c| (c, Event::Commit(i))));
            }
        }
        for i in 0..points.len() {
            points.push(Cycle::new(points[i].as_u64().saturating_sub(1)));
        }
        points.sort_unstable();
        points.dedup();
        events.sort_by_key(|&(t, _)| t);
        CrashReplay {
            journal,
            log,
            events,
            next_event: 0,
            points,
            next_point: 0,
            durable: HashMap::new(),
            pending: HashMap::new(),
            changes: Vec::new(),
        }
    }

    /// Number of crash points the replay visits.
    pub fn crash_points(&self) -> usize {
        self.points.len()
    }

    /// Advances to the next crash point and returns it with the lines whose
    /// value changed since the previous one (from the empty image, for the
    /// first point). A line may appear more than once; apply the changes in
    /// order. `None` once every point was visited.
    pub fn next_point(&mut self) -> Option<(Cycle, &[LineChange])> {
        let &at = self.points.get(self.next_point)?;
        self.next_point += 1;
        self.changes.clear();
        while let Some(&(t, event)) = self.events.get(self.next_event) {
            if t > at {
                break;
            }
            self.next_event += 1;
            self.apply(event);
        }
        Some((at, &self.changes))
    }

    fn apply(&mut self, event: Event) {
        let records = self.log.map_or(&[][..], UndoLog::records);
        let line = match event {
            Event::Write(i) => self.journal[i].1,
            Event::Pend(r) | Event::Commit(r) => records[r].line,
        };
        let before = self.value(line);
        match event {
            // Among entries durable by now, the last appended wins, as in
            // `snapshot_at`.
            Event::Write(i) => {
                let entry = self.durable.entry(line).or_insert((i, self.journal[i].2));
                if i >= entry.0 {
                    *entry = (i, self.journal[i].2);
                }
            }
            Event::Pend(r) => {
                self.pending.entry(line).or_default().insert(r);
            }
            Event::Commit(r) => {
                if let Some(set) = self.pending.get_mut(&line) {
                    set.remove(&r);
                    if set.is_empty() {
                        self.pending.remove(&line);
                    }
                }
            }
        }
        let after = self.value(line);
        if before != after {
            self.changes.push(LineChange {
                line,
                before,
                after,
            });
        }
    }

    /// `line`'s value in the current (recovered) image.
    fn value(&self, line: LineAddr) -> Option<LineValue> {
        match self.pending.get(&line).and_then(BTreeSet::first) {
            Some(&r) => {
                self.log
                    .expect("pending records come from the log")
                    .records()[r]
                    .old
            }
            None => self.durable.get(&line).map(|&(_, v)| v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_types::{CoreId, EpochId, EpochTag};
    use proptest::prelude::*;

    fn tag(core: u32, epoch: u64) -> EpochTag {
        EpochTag::new(CoreId::new(core), EpochId::new(epoch))
    }

    /// Replays to the end, checking every point's image against the
    /// per-point reconstruction.
    fn assert_matches_snapshots(nv: &NvramDevice, log: Option<&UndoLog>) -> usize {
        let mut replay = CrashReplay::new(nv, log, |_| true);
        let mut image: HashMap<LineAddr, LineValue> = HashMap::new();
        let mut visited = 0;
        while let Some((at, changes)) = replay.next_point() {
            visited += 1;
            for c in changes {
                assert_eq!(image.get(&c.line).copied(), c.before, "at {at}");
                match c.after {
                    Some(v) => image.insert(c.line, v),
                    None => image.remove(&c.line),
                };
            }
            let mut want = nv.snapshot_at(at);
            if let Some(log) = log {
                want = want.recover_with(log).0;
            }
            let got: HashMap<_, _> = want.iter().collect();
            assert_eq!(image, got, "image differs at {at}");
        }
        assert_eq!(visited, replay.crash_points());
        visited
    }

    #[test]
    fn points_cover_every_boundary_and_the_cycle_before() {
        let mut nv = NvramDevice::with_history();
        nv.persist(LineAddr::new(1), 10, Cycle::new(5));
        nv.persist(LineAddr::new(2), 20, Cycle::new(9));
        let mut log = UndoLog::new();
        log.append(tag(0, 0), LineAddr::new(1), None, Cycle::new(3));
        log.commit_epoch(tag(0, 0), Cycle::new(12));
        let bep = CrashReplay::new(&nv, None, |_| true);
        assert_eq!(bep.points, [0, 4, 5, 8, 9].map(Cycle::new));
        let bsp = CrashReplay::new(&nv, Some(&log), |_| true);
        assert_eq!(bsp.points, [0, 2, 3, 4, 5, 8, 9, 11, 12].map(Cycle::new));
        assert_eq!(assert_matches_snapshots(&nv, Some(&log)), 9);
    }

    #[test]
    fn last_appended_write_wins_even_if_durable_earlier() {
        let mut nv = NvramDevice::with_history();
        nv.persist(LineAddr::new(1), 10, Cycle::new(300));
        nv.persist(LineAddr::new(1), 20, Cycle::new(200));
        assert_matches_snapshots(&nv, None);
    }

    #[test]
    fn filtered_lines_never_appear() {
        let mut nv = NvramDevice::with_history();
        nv.persist(LineAddr::new(1), 10, Cycle::new(3));
        nv.persist(LineAddr::new(2), 20, Cycle::new(4));
        let mut replay = CrashReplay::new(&nv, None, |l| l != LineAddr::new(2));
        let mut seen = Vec::new();
        while let Some((_, changes)) = replay.next_point() {
            seen.extend(changes.iter().map(|c| c.line));
        }
        assert_eq!(seen, [LineAddr::new(1)]);
        assert_eq!(
            replay.crash_points(),
            4,
            "filtered writes still mark points"
        );
    }

    proptest! {
        #[test]
        fn replay_equals_per_point_snapshots(
            writes in proptest::collection::vec((0u64..6, 0u64..60), 0..40),
            records in proptest::collection::vec((0u64..6, 0u64..4, 0u64..60, 0u64..80), 0..20),
        ) {
            let mut nv = NvramDevice::with_history();
            for (i, &(line, t)) in writes.iter().enumerate() {
                nv.persist(LineAddr::new(line), 100 + i as u64, Cycle::new(t));
            }
            let mut log = UndoLog::new();
            for (i, &(line, epoch, t, _)) in records.iter().enumerate() {
                let old = (i % 3 != 0).then_some(500 + i as u64);
                log.append(tag(0, epoch), LineAddr::new(line), old, Cycle::new(t));
            }
            for &(_, epoch, _, commit) in &records {
                if commit < 70 {
                    log.commit_epoch(tag(0, epoch), Cycle::new(commit));
                }
            }
            assert_matches_snapshots(&nv, None);
            assert_matches_snapshots(&nv, Some(&log));
        }
    }
}
