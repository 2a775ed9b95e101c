//! Per-core programs: the operations a core executes.
//!
//! [`Op`] and [`Program`] are the IR every downstream consumer shares: the
//! simulator executes them, the static analyzer (`pbm-analyze`) partitions
//! them into epochs, and the fuzzing corpus serializes them. The canonical
//! serialized form lives here too ([`Op::to_json_value`] /
//! [`Op::from_json_value`] and the [`Program`] equivalents) so corpus
//! artifacts and analyzer reports reference ops through one encoding.

use pbm_obs::json::JsonValue;
use pbm_types::Addr;
use serde::{Deserialize, Serialize};

/// One operation in a core's program.
///
/// Programs are straight-line (no data-dependent control flow) except for
/// [`Op::Lock`], which spins until it wins the named lock — enough to
/// express the paper's workloads (persistent data-structure transactions
/// under locks, and barrier-free BSP applications) while keeping traces
/// replayable and deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Load the line containing `addr`; the core blocks until data returns.
    Load(Addr),
    /// Store `value` to the line containing `addr`; retires into the write
    /// buffer (the core continues unless the buffer is full or the store
    /// conflicts).
    Store(Addr, u32),
    /// A persist barrier (programmer-inserted; BEP/EP semantics).
    Barrier,
    /// Local computation for the given number of cycles.
    Compute(u32),
    /// Acquire a spin lock at `addr` (architecturally atomic; the line is
    /// in the volatile region by convention).
    Lock(Addr),
    /// Release the lock at `addr`.
    Unlock(Addr),
    /// Marks the completion of one application-level transaction
    /// (throughput accounting for the micro-benchmarks).
    TxEnd,
}

/// An immutable per-core operation sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// An empty program (the core finishes immediately).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if there are no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Count of store operations (useful for sizing expectations in tests).
    pub fn store_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Store(_, _)))
            .count()
    }
}

impl Op {
    /// True for memory accesses (loads and stores; locks spin on volatile
    /// lines and are not accesses in the persistence sense).
    pub const fn is_access(self) -> bool {
        matches!(self, Op::Load(_) | Op::Store(_, _))
    }

    /// The canonical JSON encoding used by corpus artifacts and analyzer
    /// reports, e.g. `{"op":"store","addr":64,"value":3}`.
    pub fn to_json_value(self) -> JsonValue {
        let f = |name: &str, rest: Vec<(String, JsonValue)>| {
            let mut fields = vec![("op".to_string(), JsonValue::Str(name.to_string()))];
            fields.extend(rest);
            JsonValue::Object(fields)
        };
        match self {
            Op::Load(a) => f("load", vec![("addr".into(), JsonValue::Num(a.as_u64()))]),
            Op::Store(a, v) => f(
                "store",
                vec![
                    ("addr".into(), JsonValue::Num(a.as_u64())),
                    ("value".into(), JsonValue::Num(u64::from(v))),
                ],
            ),
            Op::Barrier => f("barrier", vec![]),
            Op::Compute(c) => f(
                "compute",
                vec![("cycles".into(), JsonValue::Num(u64::from(c)))],
            ),
            Op::Lock(a) => f("lock", vec![("addr".into(), JsonValue::Num(a.as_u64()))]),
            Op::Unlock(a) => f("unlock", vec![("addr".into(), JsonValue::Num(a.as_u64()))]),
            Op::TxEnd => f("txend", vec![]),
        }
    }

    /// Parses the [`Self::to_json_value`] encoding.
    pub fn from_json_value(v: &JsonValue) -> Result<Op, String> {
        let name = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("op object without \"op\" field")?;
        let field = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("op {name:?} without \"{key}\""))
        };
        let addr = || field("addr").map(Addr::new);
        let narrow = |key: &str| {
            let n = field(key)?;
            u32::try_from(n).map_err(|_| format!("op {name:?} field \"{key}\" out of range: {n}"))
        };
        Ok(match name {
            "load" => Op::Load(addr()?),
            "store" => Op::Store(addr()?, narrow("value")?),
            "barrier" => Op::Barrier,
            "compute" => Op::Compute(narrow("cycles")?),
            "lock" => Op::Lock(addr()?),
            "unlock" => Op::Unlock(addr()?),
            "txend" => Op::TxEnd,
            other => return Err(format!("unknown op {other:?}")),
        })
    }
}

impl Program {
    /// The program as a JSON array of [`Op::to_json_value`] objects.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Array(self.ops.iter().map(|&op| op.to_json_value()).collect())
    }

    /// Parses the [`Self::to_json_value`] encoding.
    pub fn from_json_value(v: &JsonValue) -> Result<Program, String> {
        v.as_array()
            .ok_or_else(|| "program is not an array".to_string())?
            .iter()
            .map(Op::from_json_value)
            .collect()
    }
}

impl FromIterator<Op> for Program {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Self {
        Program {
            ops: iter.into_iter().collect(),
        }
    }
}

/// Non-consuming builder for [`Program`]s.
///
/// # Example
///
/// ```
/// use pbm_sim::ProgramBuilder;
/// use pbm_types::Addr;
///
/// let mut b = ProgramBuilder::new();
/// b.lock(Addr::new(4096))
///     .store(Addr::new(0), 7)
///     .barrier()
///     .unlock(Addr::new(4096))
///     .tx_end();
/// let p = b.build();
/// assert_eq!(p.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a load.
    pub fn load(&mut self, addr: Addr) -> &mut Self {
        self.ops.push(Op::Load(addr));
        self
    }

    /// Appends a store of `value`.
    pub fn store(&mut self, addr: Addr, value: u32) -> &mut Self {
        self.ops.push(Op::Store(addr, value));
        self
    }

    /// Appends a persist barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.ops.push(Op::Barrier);
        self
    }

    /// Appends `cycles` of local compute.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.ops.push(Op::Compute(cycles));
        self
    }

    /// Appends a lock acquire.
    pub fn lock(&mut self, addr: Addr) -> &mut Self {
        self.ops.push(Op::Lock(addr));
        self
    }

    /// Appends a lock release.
    pub fn unlock(&mut self, addr: Addr) -> &mut Self {
        self.ops.push(Op::Unlock(addr));
        self
    }

    /// Appends a transaction-end marker.
    pub fn tx_end(&mut self) -> &mut Self {
        self.ops.push(Op::TxEnd);
        self
    }

    /// Appends stores covering `bytes` bytes starting at `addr` (one store
    /// per 64-byte line), all with `value` — the shape of the paper's
    /// 512-byte entry copies.
    pub fn store_span(&mut self, addr: Addr, bytes: u64, value: u32) -> &mut Self {
        let lines = pbm_types::LineAddr::lines_for(bytes);
        for l in addr.line().span(lines) {
            self.store(l.base(), value);
        }
        self
    }

    /// Appends a raw op.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Number of ops so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops have been added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finalizes the program.
    pub fn build(&self) -> Program {
        Program {
            ops: self.ops.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_round_trip() {
        let mut b = ProgramBuilder::new();
        assert!(b.is_empty());
        b.load(Addr::new(0))
            .store(Addr::new(64), 1)
            .barrier()
            .compute(10)
            .tx_end();
        let p = b.build();
        assert_eq!(p.len(), 5);
        assert_eq!(p.store_count(), 1);
        assert_eq!(p.ops()[0], Op::Load(Addr::new(0)));
        assert_eq!(p.ops()[2], Op::Barrier);
    }

    #[test]
    fn store_span_covers_lines() {
        let mut b = ProgramBuilder::new();
        b.store_span(Addr::new(0), 512, 9);
        let p = b.build();
        assert_eq!(p.store_count(), 8);
        assert_eq!(p.ops()[7], Op::Store(Addr::new(7 * 64), 9));
    }

    #[test]
    fn empty_program() {
        let p = Program::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn from_iterator() {
        let p: Program = vec![Op::Barrier, Op::TxEnd].into_iter().collect();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn json_round_trip_covers_every_op() {
        let mut b = ProgramBuilder::new();
        b.load(Addr::new(0))
            .store(Addr::new(64), 7)
            .barrier()
            .compute(12)
            .lock(Addr::new(1 << 41))
            .unlock(Addr::new(1 << 41))
            .tx_end();
        let p = b.build();
        let back = Program::from_json_value(&p.to_json_value()).expect("parses");
        assert_eq!(back, p);
        assert_eq!(
            Op::Store(Addr::new(64), 7).to_json_value().to_json(),
            r#"{"op":"store","addr":64,"value":7}"#
        );
        assert!(Op::from_json_value(&JsonValue::Null).is_err());
        let too_big = u64::from(u32::MAX) + 1;
        for (name, key) in [("store", "value"), ("compute", "cycles")] {
            let op = JsonValue::Object(vec![
                ("op".into(), JsonValue::Str(name.into())),
                ("addr".into(), JsonValue::Num(64)),
                (key.into(), JsonValue::Num(too_big)),
            ]);
            let err = Op::from_json_value(&op).expect_err("out-of-range field rejected");
            assert!(err.contains(key), "{err}");
        }
        assert!(Op::from_json_value(&JsonValue::Object(vec![(
            "op".into(),
            JsonValue::Str("jmp".into())
        )]))
        .is_err());
    }

    proptest! {
        #[test]
        fn prop_json_round_trip(ops in proptest::collection::vec(
            prop_oneof![
                (0u64..1 << 41).prop_map(|a| Op::Load(Addr::new(a))),
                ((0u64..1 << 41), any::<u32>()).prop_map(|(a, v)| Op::Store(Addr::new(a), v)),
                Just(Op::Barrier),
                any::<u32>().prop_map(Op::Compute),
                (0u64..1 << 41).prop_map(|a| Op::Lock(Addr::new(a))),
                (0u64..1 << 41).prop_map(|a| Op::Unlock(Addr::new(a))),
                Just(Op::TxEnd),
            ],
            0..60,
        )) {
            let p: Program = ops.into_iter().collect();
            let text = p.to_json_value().to_json();
            let doc = pbm_obs::json::parse(&text).expect("valid JSON");
            let round = Program::from_json_value(&doc).expect("parses");
            prop_assert_eq!(p, round);
        }
    }

    #[test]
    fn op_access_classification() {
        assert!(Op::Load(Addr::new(0)).is_access());
        assert!(Op::Store(Addr::new(0), 1).is_access());
        for op in [
            Op::Barrier,
            Op::Compute(3),
            Op::Lock(Addr::new(0)),
            Op::Unlock(Addr::new(0)),
            Op::TxEnd,
        ] {
            assert!(!op.is_access());
        }
    }
}
