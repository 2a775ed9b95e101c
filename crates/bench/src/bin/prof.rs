//! Causal critical-path profiler over the fig11 grid: runs every
//! micro-benchmark under every lazy barrier variant with tracing enabled,
//! attributes each barrier's persist latency with `pbm-prof`, and writes
//!
//! * `BENCH_prof.json` — the `pbm-bench-prof/v1` summary the `regress`
//!   gate diffs against `results/baselines/` (byte-identical at any
//!   `--jobs=N`);
//! * per-cell `flame-<cell>.folded` + `report-<cell>.json` under
//!   `--out-dir=` (folded stacks render with `inferno-flamegraph` or
//!   `flamegraph.pl`).
//!
//! Run: `cargo run -p pbm-bench --release --bin prof [--quick] [--jobs=N]
//! [--bench-json=PATH] [--out-dir=DIR] [--top=K]`

use pbm_bench::profiling::{bench_prof_doc, cell_slug, dominant_label, fig11_base, fig11_jobs};
use pbm_bench::{jobs_from_args, print_system_header, quick_mode, ObsOptions, Runner};
use pbm_prof::{flame, report};
use std::path::PathBuf;

struct Options {
    bench_json: PathBuf,
    out_dir: Option<PathBuf>,
    top: usize,
}

fn options() -> Options {
    let mut opts = Options {
        bench_json: PathBuf::from("BENCH_prof.json"),
        out_dir: None,
        top: 5,
    };
    for arg in std::env::args().skip(1) {
        if let Some(p) = arg.strip_prefix("--bench-json=") {
            opts.bench_json = PathBuf::from(p);
        } else if let Some(p) = arg.strip_prefix("--out-dir=") {
            opts.out_dir = Some(PathBuf::from(p));
        } else if let Some(k) = arg.strip_prefix("--top=") {
            match k.parse() {
                Ok(v) => opts.top = v,
                Err(_) => die(&format!("--top takes a count, got {k:?}")),
            }
        } else if arg == "--quick" || arg.starts_with("--jobs=") {
            // Parsed elsewhere.
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

fn write(path: &PathBuf, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
}

fn main() {
    let opts = options();
    let quick = quick_mode();
    print_system_header(&fig11_base(quick));
    let profiles = Runner::new(jobs_from_args(), ObsOptions::default()).profile(fig11_jobs(quick));

    println!("\n== persist-latency attribution (fig11 grid) ==");
    println!(
        "{:<8}{:<10}{:>9}{:>10}{:>10}{:>10}  dominant",
        "config", "workload", "barriers", "mean", "p50", "p99"
    );
    for (r, profile, _) in &profiles {
        let lat = profile.sorted_latencies();
        let count = lat.len() as u64;
        let mean = lat.iter().sum::<u64>().checked_div(count).unwrap_or(0);
        println!(
            "{:<8}{:<10}{:>9}{:>10}{:>10}{:>10}  {}",
            r.config,
            r.workload,
            count,
            mean,
            report::percentile(&lat, 50),
            report::percentile(&lat, 99),
            dominant_label(profile),
        );
    }

    if let Some(dir) = &opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
        for (r, profile, _) in &profiles {
            let slug = cell_slug(&r.config, &r.workload);
            write(
                &dir.join(format!("flame-{slug}.folded")),
                &flame::profile_stacks(&format!("{};{}", r.config, r.workload), profile),
            );
            let mut text = report::report_json(profile, opts.top).to_json();
            text.push('\n');
            write(&dir.join(format!("report-{slug}.json")), &text);
        }
        eprintln!(
            "# prof: {} flame graphs + reports -> {}",
            profiles.len(),
            dir.display()
        );
    }

    let mut text = bench_prof_doc(&profiles, quick).to_json();
    text.push('\n');
    write(&opts.bench_json, &text);
    eprintln!(
        "# prof: {} cells -> {}",
        profiles.len(),
        opts.bench_json.display()
    );
}
