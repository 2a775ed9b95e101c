//! BSP configuration profiler: runs one application across the barrier
//! ladder ([`pbm_bench::BSP_LADDER`]: NP, LB at three epoch sizes, IDT,
//! LB++, no-log) traced and with the metrics sampler attached, and prints,
//! per configuration, a stall-attribution breakdown (compute vs
//! online-persist vs barrier cycles), pbm-prof's exact persist-latency
//! summary and dominant component, and the headline counters the roadmap
//! tracks.
//!
//! Run: `cargo run -p pbm-bench --release --bin profile_bsp -- \
//!           [app] [ops] [--quick] [--jobs=N] [--json=p.json] \
//!           [--trace-out=t.json] [--metrics-csv=m.csv]`
//!
//! `ops` is per thread: 10,000 by default, 1,000 under `--quick`. The
//! ladder's configurations run in parallel on the runner's worker pool,
//! each simulated once; its trace is analyzed on the worker and dropped.
//! With `--trace-out` / `--metrics-csv` the artifacts are written per
//! configuration, suffixed with the config and workload labels. With
//! `--json=` the stall attribution, the latency summary and the
//! 12-component attribution are also written as a machine-readable
//! `pbm-profile-bsp/v2` document.

use pbm_bench::profiling::dominant_label;
use pbm_bench::{bsp_ladder_jobs, quick_mode, Runner, BSP_LADDER};
use pbm_obs::json::JsonValue;
use pbm_prof::{report, Profile};
use pbm_types::{SimStats, SystemConfig};
use pbm_workloads::apps::{self, AppParams};

/// `pbm-profile-bsp/v2`: one ladder run as integer-only JSON.
const JSON_SCHEMA: &str = "pbm-profile-bsp/v2";

/// One ladder rung: the stall attribution in raw core-cycles (consumers
/// derive percentages; the integers keep the document exact) plus the
/// persist-latency summary and attribution from the rung's trace.
fn config_json(label: &str, stats: &SimStats, profile: &Profile, cores: usize) -> JsonValue {
    let core_cycles = stats.cycles * cores as u64;
    let stalled = stats.online_persist_stall_cycles + stats.barrier_stall_cycles;
    JsonValue::Object(vec![
        ("config".into(), JsonValue::Str(label.into())),
        ("cycles".into(), JsonValue::Num(stats.cycles)),
        (
            "epochs_created".into(),
            JsonValue::Num(stats.epochs_created),
        ),
        (
            "deadlock_splits".into(),
            JsonValue::Num(stats.deadlock_splits),
        ),
        (
            "stall_attribution".into(),
            JsonValue::Object(vec![
                ("core_cycles".into(), JsonValue::Num(core_cycles)),
                (
                    "online_persist".into(),
                    JsonValue::Num(stats.online_persist_stall_cycles),
                ),
                ("barrier".into(), JsonValue::Num(stats.barrier_stall_cycles)),
                (
                    "compute".into(),
                    JsonValue::Num(core_cycles.saturating_sub(stalled)),
                ),
            ]),
        ),
        (
            "latency".into(),
            report::latency_summary_json(&profile.sorted_latencies()),
        ),
        (
            "dominant".into(),
            JsonValue::Str(
                profile
                    .totals
                    .dominant()
                    .map_or("-", |(c, _)| c.name())
                    .into(),
            ),
        ),
        (
            "attribution".into(),
            report::attribution_json(&profile.totals),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_out = args
        .iter()
        .find_map(|a| a.strip_prefix("--json="))
        .map(String::from);
    let mut positional = args.iter().skip(1).filter(|a| !a.starts_with("--"));
    let app = positional.next().map_or("ssca2", String::as_str);
    let ops: usize = positional
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick_mode() { 1000 } else { 10_000 });
    let Some(profile) = apps::profile(app) else {
        let names: Vec<&str> = apps::PROFILES.iter().map(|p| p.name).collect();
        eprintln!("error: unknown app {app:?}; one of {}", names.join(", "));
        std::process::exit(2);
    };
    let mut params = AppParams::paper();
    params.ops_per_thread = ops;
    let wl = apps::build(profile, &params);
    let cores = SystemConfig::micro48().cores;
    let results = Runner::from_args().profile(bsp_ladder_jobs(&wl));

    println!(
        "{:<10}{:>12}{:>8}{:>10}{:>10}{:>10}{:>9}{:>9}{:>9}",
        "config", "cycles", "norm", "epochs", "cfl%", "splits", "comp%", "onl%", "bar%"
    );
    let np_cycles = results[0].0.stats.cycles as f64;
    for (r, profile, samples) in &results {
        let stats = &r.stats;
        // Stall attribution: total core-cycles split into stalled-online,
        // stalled-at-barrier, and everything else (compute + memory).
        let core_cycles = (stats.cycles * cores as u64).max(1) as f64;
        let onl = stats.online_persist_stall_cycles as f64 / core_cycles * 100.0;
        let bar = stats.barrier_stall_cycles as f64 / core_cycles * 100.0;
        let comp = 100.0 - onl - bar;
        println!(
            "{:<10}{:>12}{:>8.2}{:>10}{:>10.1}{:>10}{:>9.1}{:>9.1}{:>9.1}",
            r.config,
            stats.cycles,
            stats.cycles as f64 / np_cycles,
            stats.epochs_created,
            stats.conflicting_epoch_pct(),
            stats.deadlock_splits,
            comp,
            onl,
            bar,
        );
        let lat = profile.sorted_latencies();
        if !lat.is_empty() {
            println!(
                "           persist latency: n={} mean={} p50={} p99={} max={} dominant={}",
                lat.len(),
                lat.iter().sum::<u64>() / lat.len() as u64,
                report::percentile(&lat, 50),
                report::percentile(&lat, 99),
                lat[lat.len() - 1],
                dominant_label(profile),
            );
        }
        // Saturation sketch from the sampled series: peak MC write-queue
        // depth and peak simultaneously-stalled cores.
        let peak_q = samples.iter().map(|s| s.mc_queue_depth).max().unwrap_or(0);
        let peak_stalled = samples.iter().map(|s| s.stalled_cores).max().unwrap_or(0);
        println!(
            "           detail: I={} X={} ovf={} log={} chk={} evf={} parks={} \
             peak_mcq={peak_q} peak_stalled={peak_stalled}",
            stats.conflicts_intra,
            stats.conflicts_inter,
            stats.idt_overflows,
            stats.log_writes,
            stats.checkpoint_writes,
            stats.epochs_eviction_flushed,
            stats.parks,
        );
    }
    if let Some(path) = json_out {
        let doc = JsonValue::Object(vec![
            ("schema".into(), JsonValue::Str(JSON_SCHEMA.into())),
            ("app".into(), JsonValue::Str(app.into())),
            ("ops_per_thread".into(), JsonValue::Num(ops as u64)),
            (
                "configs".into(),
                JsonValue::Array(
                    results
                        .iter()
                        .map(|(r, profile, _)| config_json(&r.config, &r.stats, profile, cores))
                        .collect(),
                ),
            ),
        ]);
        let mut text = doc.to_json();
        text.push('\n');
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("# profile_bsp: {} configs -> {path}", BSP_LADDER.len());
    }
}
