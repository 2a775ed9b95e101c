//! CI perf-regression gate: diffs a freshly produced `BENCH_prof.json`
//! against the committed baseline.
//!
//! Policy (see `pbm_prof::regress`): simulated-cycle metrics are
//! deterministic, so any divergence beyond `--tol-cycles-pct` (default
//! **0**) fails — in either direction, golden-file style.
//!
//! Run: `cargo run -p pbm-bench --release --bin regress
//! [--baselines=DIR] [--current=DIR] [--tol-cycles-pct=N] [--json=PATH]`
//!
//! Exit status: 0 clean, 1 regression, 2 usage/IO error (including a
//! missing `BENCH_prof.json` on either side — seed baselines by copying a
//! fresh run into `results/baselines/`).

use pbm_obs::json::{self, JsonValue};
use pbm_prof::regress::{compare_prof, render_table, verdict_json};
use std::path::{Path, PathBuf};

struct Options {
    baselines: PathBuf,
    current: PathBuf,
    tol_cycles_pct: u64,
    json: Option<PathBuf>,
}

fn options() -> Options {
    let mut opts = Options {
        baselines: PathBuf::from("results/baselines"),
        current: PathBuf::from("."),
        tol_cycles_pct: 0,
        json: None,
    };
    for arg in std::env::args().skip(1) {
        if let Some(p) = arg.strip_prefix("--baselines=") {
            opts.baselines = PathBuf::from(p);
        } else if let Some(p) = arg.strip_prefix("--current=") {
            opts.current = PathBuf::from(p);
        } else if let Some(n) = arg.strip_prefix("--tol-cycles-pct=") {
            opts.tol_cycles_pct = n.parse().unwrap_or_else(|_| {
                die(&format!("--tol-cycles-pct takes a percentage, got {n:?}"))
            });
        } else if let Some(p) = arg.strip_prefix("--json=") {
            opts.json = Some(PathBuf::from(p));
        } else {
            die(&format!("unknown argument {arg:?}"));
        }
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn load(path: &Path) -> Option<JsonValue> {
    let text = std::fs::read_to_string(path).ok()?;
    match json::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => die(&format!("{} is not valid JSON: {e}", path.display())),
    }
}

fn main() {
    let opts = options();
    let prof_base = opts.baselines.join("BENCH_prof.json");
    let prof_cur = opts.current.join("BENCH_prof.json");
    let comparison = match (load(&prof_base), load(&prof_cur)) {
        (Some(base), Some(cur)) => compare_prof(&base, &cur, opts.tol_cycles_pct),
        (None, _) => die(&format!(
            "no baseline {} — run `prof` and commit its BENCH_prof.json there",
            prof_base.display()
        )),
        (_, None) => die(&format!(
            "no current {} — run the `prof` binary first",
            prof_cur.display()
        )),
    };

    print!("{}", render_table(&comparison));
    if let Some(path) = &opts.json {
        let mut text = verdict_json(&comparison).to_json();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            die(&format!("cannot write {}: {e}", path.display()));
        }
    }
    if !comparison.pass() {
        std::process::exit(1);
    }
}
