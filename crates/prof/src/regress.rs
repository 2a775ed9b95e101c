//! Perf-regression diffing: compare a freshly produced `BENCH_prof.json`
//! against its committed baseline.
//!
//! `BENCH_prof.json` holds **simulated-cycle** metrics, which are
//! machine-independent and deterministic, so every divergence beyond the
//! (default **zero**) tolerance is a finding, and every finding fails — in
//! *either* direction. An improvement fails too: golden-file style, so
//! baselines are consciously updated rather than silently drifting.
//!
//! The CI gate (`regress` binary in `pbm-bench`) renders the findings as a
//! table, optionally emits a JSON verdict, and exits nonzero iff there is
//! any finding.

use pbm_obs::json::JsonValue;

/// Schema tag of the JSON verdict document.
pub const VERDICT_SCHEMA: &str = "pbm-regress/v2";

/// One divergence between baseline and current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Dotted path of the diverging metric (e.g.
    /// `cells[lb/micro48].latency.p99`).
    pub metric: String,
    /// Human-readable explanation with both values.
    pub detail: String,
}

/// The outcome of diffing one document pair.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Which document was compared (e.g. `BENCH_prof.json`).
    pub name: String,
    /// Every divergence found, in document order.
    pub findings: Vec<Finding>,
}

impl Comparison {
    fn new(name: &str) -> Self {
        Comparison {
            name: name.to_string(),
            findings: Vec::new(),
        }
    }

    fn push(&mut self, metric: impl Into<String>, detail: impl Into<String>) {
        self.findings.push(Finding {
            metric: metric.into(),
            detail: detail.into(),
        });
    }

    /// True if the current document matches its baseline.
    pub fn pass(&self) -> bool {
        self.findings.is_empty()
    }
}

/// True if `current` is outside `tol_pct` percent (relative) of
/// `baseline`, in either direction. A zero baseline tolerates only a zero
/// current. Exact integer arithmetic (no float rounding at the gate).
pub fn out_of_tolerance(baseline: u64, current: u64, tol_pct: u64) -> bool {
    let diff = baseline.abs_diff(current) as u128;
    diff * 100 > (tol_pct as u128) * (baseline as u128)
}

/// Structural diff of two integer-JSON trees: every leaf divergence (or
/// shape mismatch) becomes a finding, numeric leaves judged by
/// [`out_of_tolerance`] with `tol_pct`.
fn diff_tree(
    out: &mut Comparison,
    path: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    tol_pct: u64,
) {
    match (baseline, current) {
        (JsonValue::Num(b), JsonValue::Num(c)) => {
            if out_of_tolerance(*b, *c, tol_pct) {
                out.push(
                    path,
                    format!("baseline {b}, current {c} (tolerance {tol_pct}%)"),
                );
            }
        }
        (JsonValue::Str(b), JsonValue::Str(c)) => {
            if b != c {
                out.push(path, format!("baseline {b:?}, current {c:?}"));
            }
        }
        (JsonValue::Bool(b), JsonValue::Bool(c)) => {
            if b != c {
                out.push(path, format!("baseline {b}, current {c}"));
            }
        }
        (JsonValue::Null, JsonValue::Null) => {}
        (JsonValue::Array(b), JsonValue::Array(c)) => {
            if b.len() != c.len() {
                out.push(
                    path,
                    format!(
                        "array length changed: baseline {}, current {}",
                        b.len(),
                        c.len()
                    ),
                );
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                diff_tree(out, &format!("{path}[{i}]"), bv, cv, tol_pct);
            }
        }
        (JsonValue::Object(b), JsonValue::Object(c)) => {
            for (k, bv) in b {
                match current.get(k) {
                    Some(cv) => diff_tree(out, &format!("{path}.{k}"), bv, cv, tol_pct),
                    None => out.push(format!("{path}.{k}"), "missing from current"),
                }
            }
            for (k, _) in c {
                if baseline.get(k).is_none() {
                    out.push(format!("{path}.{k}"), "not in baseline");
                }
            }
        }
        _ => out.push(path, "value type changed"),
    }
}

fn cell_key(cell: &JsonValue) -> (String, String) {
    let s = |k: &str| {
        cell.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    (s("config"), s("workload"))
}

/// Diffs a current `pbm-bench-prof/v1` document against its baseline.
/// All metrics are simulated cycles — deterministic — so every divergence
/// beyond `tol_cycles_pct` (default policy: 0) is a finding.
pub fn compare_prof(baseline: &JsonValue, current: &JsonValue, tol_cycles_pct: u64) -> Comparison {
    let mut out = Comparison::new("BENCH_prof.json");
    for key in ["schema", "quick"] {
        diff_tree(
            &mut out,
            key,
            baseline.get(key).unwrap_or(&JsonValue::Null),
            current.get(key).unwrap_or(&JsonValue::Null),
            0,
        );
    }
    let empty: [JsonValue; 0] = [];
    let bcells = baseline
        .get("cells")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let ccells = current
        .get("cells")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    for bcell in bcells {
        let (cfg, wl) = cell_key(bcell);
        let path = format!("cells[{cfg}/{wl}]");
        match ccells
            .iter()
            .find(|c| cell_key(c) == (cfg.clone(), wl.clone()))
        {
            Some(ccell) => diff_tree(&mut out, &path, bcell, ccell, tol_cycles_pct),
            None => out.push(path, "cell missing from current run"),
        }
    }
    for ccell in ccells {
        let (cfg, wl) = cell_key(ccell);
        if !bcells
            .iter()
            .any(|b| cell_key(b) == (cfg.clone(), wl.clone()))
        {
            out.push(
                format!("cells[{cfg}/{wl}]"),
                "cell not in baseline (update results/baselines/)",
            );
        }
    }
    out
}

/// Renders a comparison as a human-readable table (one `FAIL` line per
/// finding, or one `ok` line for a clean document).
pub fn render_table(c: &Comparison) -> String {
    let mut out = String::new();
    if c.pass() {
        out.push_str(&format!("ok    {}: matches baseline\n", c.name));
    }
    for f in &c.findings {
        out.push_str(&format!("FAIL  {}: {} — {}\n", c.name, f.metric, f.detail));
    }
    out.push_str(&format!("# regress: {} failure(s)\n", c.findings.len()));
    out
}

/// The machine-readable verdict (`pbm-regress/v2`).
pub fn verdict_json(c: &Comparison) -> JsonValue {
    JsonValue::Object(vec![
        ("schema".into(), JsonValue::Str(VERDICT_SCHEMA.into())),
        ("document".into(), JsonValue::Str(c.name.clone())),
        ("pass".into(), JsonValue::Bool(c.pass())),
        (
            "findings".into(),
            JsonValue::Array(
                c.findings
                    .iter()
                    .map(|f| {
                        JsonValue::Object(vec![
                            ("metric".into(), JsonValue::Str(f.metric.clone())),
                            ("detail".into(), JsonValue::Str(f.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbm_obs::json::parse;

    fn prof_doc(p99: u64, quick: bool) -> JsonValue {
        parse(&format!(
            r#"{{"schema":"pbm-bench-prof/v1","quick":{quick},
                "cells":[{{"config":"lb","workload":"micro48",
                           "barriers":10,
                           "latency":{{"count":10,"p99":{p99}}},
                           "attribution":{{"nvram_write":3600}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn tolerance_is_relative_and_two_sided() {
        assert!(!out_of_tolerance(100, 100, 0));
        assert!(out_of_tolerance(100, 101, 0));
        assert!(out_of_tolerance(100, 99, 0), "improvements fail too");
        assert!(!out_of_tolerance(100, 105, 5));
        assert!(!out_of_tolerance(100, 95, 5));
        assert!(out_of_tolerance(100, 106, 5));
        assert!(
            out_of_tolerance(0, 1, 50),
            "zero baseline tolerates only zero"
        );
        assert!(!out_of_tolerance(0, 0, 0));
        assert!(
            !out_of_tolerance(u64::MAX, u64::MAX / 2 + 1, 50),
            "no overflow at the extremes"
        );
    }

    #[test]
    fn identical_prof_docs_pass() {
        let c = compare_prof(&prof_doc(500, true), &prof_doc(500, true), 0);
        assert!(c.pass(), "{:?}", c.findings);
        assert!(c.findings.is_empty());
    }

    #[test]
    fn cycle_drift_fails_both_directions() {
        let worse = compare_prof(&prof_doc(500, true), &prof_doc(600, true), 0);
        assert_eq!(worse.findings.len(), 1);
        assert!(worse.findings[0].metric.contains("latency.p99"));
        let better = compare_prof(&prof_doc(500, true), &prof_doc(400, true), 0);
        assert_eq!(
            better.findings.len(),
            1,
            "golden-file: improvements gate too"
        );
        let tolerated = compare_prof(&prof_doc(500, true), &prof_doc(510, true), 5);
        assert!(tolerated.pass());
    }

    #[test]
    fn quick_mode_mismatch_fails() {
        let c = compare_prof(&prof_doc(500, true), &prof_doc(500, false), 0);
        assert!(!c.pass());
        assert!(c.findings.iter().any(|f| f.metric == "quick"));
    }

    #[test]
    fn missing_and_extra_cells_fail() {
        let base = prof_doc(500, true);
        let none = parse(r#"{"schema":"pbm-bench-prof/v1","quick":true,"cells":[]}"#).unwrap();
        let missing = compare_prof(&base, &none, 0);
        assert!(missing
            .findings
            .iter()
            .any(|f| f.detail.contains("missing from current")));
        let extra = compare_prof(&none, &base, 0);
        assert!(extra
            .findings
            .iter()
            .any(|f| f.detail.contains("not in baseline")));
    }

    #[test]
    fn table_and_verdict_shapes() {
        let clean = compare_prof(&prof_doc(500, true), &prof_doc(500, true), 0);
        let dirty = compare_prof(&prof_doc(500, true), &prof_doc(600, true), 0);
        assert!(render_table(&clean).contains("ok    BENCH_prof.json"));
        assert!(render_table(&clean).contains("0 failure(s)"));
        let table = render_table(&dirty);
        assert!(table.contains("FAIL  BENCH_prof.json: cells[lb/micro48].latency.p99"));
        assert!(table.contains("1 failure(s)"));
        assert_eq!(
            verdict_json(&clean).get("pass"),
            Some(&JsonValue::Bool(true))
        );
        let v = verdict_json(&dirty);
        assert_eq!(v.get("pass"), Some(&JsonValue::Bool(false)));
        assert_eq!(v.get("schema").unwrap().as_str(), Some(VERDICT_SCHEMA));
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }
}
