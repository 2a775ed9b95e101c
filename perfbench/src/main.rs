//! Outside-in host benchmark of the pbm simulator and toolchain.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bep_micro|bsp_app|crash_sweep|trace_prof|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process, one thread. A run does one warm-up pass, then repeats
//! passes of the workload until `--seconds` is used up. With `--trace 0`
//! it prints the end-to-end metrics, measured with the benchmark's
//! per-layer spans off. Host times are medians over the passes at
//! reference speed: each pass's raw seconds are scaled by how fast a fixed
//! reference kernel, run between its units of work, went in that pass
//! (see [`reference`]); raw whole-pass times are printed beside them. With
//! `--trace 1` it alternates untraced and traced passes and prints the
//! per-layer metrics, the tracing overhead (traced minus untraced wall
//! time) and the host time no layer accounts for. The last line of
//! standard output is one JSON object; the exit code is 1 if any output
//! check failed.

mod checks;
mod clock;
mod passes;
mod reference;
mod report;
mod workloads;

use passes::{Bench, PassOut};
use report::{digest, end_to_end_values, json_line, median, per_layer_values};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Spec, NAMES};

const USAGE: &str = "usage: perfbench --workload <bep_micro|bsp_app|crash_sweep|trace_prof|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workload != "all" && !NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

/// The passes of one run.
struct Run {
    warm: PassOut,
    untraced: Vec<PassOut>,
    traced: Vec<PassOut>,
}

impl Run {
    fn measured(&self) -> impl Iterator<Item = &PassOut> {
        self.untraced.iter().chain(&self.traced)
    }
}

/// Warm-up pass, then measured passes (alternating untraced and traced
/// when `trace`) until the next pass would overrun `budget`.
fn measure(bench: &mut Bench, budget: Duration, trace: bool) -> Run {
    let start = Instant::now();
    let warm = bench.pass(false);
    let mut lengths = vec![start.elapsed().as_secs_f64()];
    let mut run = Run {
        warm,
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    loop {
        let traced = trace && run.traced.len() < run.untraced.len();
        let enough = !run.untraced.is_empty() && (!trace || !run.traced.is_empty());
        let next = Duration::from_secs_f64(median(&lengths));
        if enough && start.elapsed() + next > budget {
            return run;
        }
        let t = Instant::now();
        let pass = bench.pass(traced);
        lengths.push(t.elapsed().as_secs_f64());
        if traced {
            run.traced.push(pass);
        } else {
            run.untraced.push(pass);
        }
    }
}

/// Every failed check of a cell or case in the run (its own checks, and
/// equality with the warm-up pass), with the number attempted.
fn cell_failures(run: &Run) -> (u64, Vec<String>) {
    let mut attempted = run.warm.cells.len() as u64;
    let mut errors: Vec<String> = run
        .warm
        .cells
        .iter()
        .filter_map(|c| c.error.clone())
        .collect();
    for (n, pass) in run.measured().enumerate() {
        attempted += pass.cells.len() as u64;
        for (cell, reference) in pass.cells.iter().zip(&run.warm.cells) {
            if let Some(e) = &cell.error {
                errors.push(e.clone());
            } else if cell != reference {
                errors.push(format!(
                    "{}: pass {} differs from the warm-up",
                    cell.label,
                    n + 1
                ));
            }
        }
    }
    (attempted, errors)
}

/// [`cell_failures`] plus traced passes whose layers do not account for
/// their time.
fn failures(run: &Run) -> (u64, Vec<String>) {
    let (attempted, mut errors) = cell_failures(run);
    errors.extend(
        run.traced
            .iter()
            .filter_map(|p| checks::conserves_time(&p.timing).err()),
    );
    (attempted, errors)
}

/// `ru_maxrss` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    // The leading fields of Linux's `struct rusage` on 64-bit targets:
    // two `timeval`s, then `long ru_maxrss` (KiB) and thirteen more longs.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable value with the layout of `struct
    // rusage` on 64-bit Linux, and 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0
}

/// The checkout's commit, when it is a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

fn describe(spec: &Spec, pass: &PassOut) -> String {
    let cells = pass.cells.len();
    let sum = |f: &dyn Fn(&passes::CellOut) -> u64| pass.cells.iter().map(f).sum::<u64>();
    let (unit, cores) = match spec {
        Spec::BepMicro(g) | Spec::TraceProf(g) => ("cells", g.system.cores),
        Spec::BspApp(b) => ("cells", b.system.cores),
        Spec::CrashSweep(s) => ("cases", s.program.cores),
    };
    format!(
        "{cells} {unit} x {cores} cores, {} sim ops, {} crash points, {} trace events",
        sum(&|c| c.ops),
        sum(&|c| c.crash_points),
        sum(&|c| c.trace_events)
    )
}

fn spread(values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "median of {} passes at reference speed; raw: fastest {lo:.6}, median {:.6}, slowest {hi:.6}",
        values.len(),
        median(values)
    )
}

/// Runs one workload, prints its description, metrics and result line;
/// returns whether every check passed.
fn run_workload(name: &str, args: &Args) -> bool {
    let spec = Spec::full(name, args.seed).expect("workload names are validated");
    let mut bench = Bench::new(spec);
    let run = measure(&mut bench, Duration::from_secs(args.seconds), args.trace);
    let spec = bench.spec();
    let (attempted, errors) = failures(&run);
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {name}: seed {}, seconds {}, trace {}, nproc {parallelism}, one worker thread, commit {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    println!("  why: {}", workloads::why(name));
    println!("  size per pass: {}", describe(spec, &run.warm));
    println!(
        "  passes: 1 warm-up, {} untraced, {} traced",
        run.untraced.len(),
        run.traced.len()
    );
    let untraced: Vec<&PassOut> = run.untraced.iter().collect();
    let e2e = end_to_end_values(spec, &untraced, peak_rss_mb());
    let samples = |f: &dyn Fn(&PassOut) -> f64| untraced.iter().map(|p| f(p)).collect::<Vec<_>>();
    for (metric, unit, value) in &e2e {
        let detail = match metric.as_str() {
            "wall_s" => spread(&samples(&|p| p.timing.wall_s)),
            "setup_s" => spread(&samples(&|p| p.timing.setup_s)),
            "items_per_s" => {
                let (alias, noun) = workloads::item(name);
                format!(
                    "= {alias}: {noun} per second of wall_s ({} per pass)",
                    report::items(spec, &run.warm.cells)
                )
            }
            _ => "peak resident set of the process, reference kernel included".to_string(),
        };
        println!("  {metric:<13} {value:>16.6} {unit:<4} {detail}");
    }
    let chunks: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.timing.ref_chunks.iter().copied())
        .collect();
    println!(
        "  reference     {:>16.6} s    median raw chunk of {} (nominal {} s): the host ran at {:.3}x reference speed",
        median(&chunks),
        chunks.len(),
        reference::NOMINAL_CHUNK_S,
        reference::NOMINAL_CHUNK_S / median(&chunks)
    );
    println!(
        "  fail_frac     {:>16.6}      {} of {attempted} cells/cases failed a check",
        errors.len() as f64 / attempted as f64,
        errors.len()
    );
    let traced_t: Vec<&clock::Timing> = run.traced.iter().map(|p| &p.timing).collect();
    let untraced_t: Vec<&clock::Timing> = run.untraced.iter().map(|p| &p.timing).collect();
    let layers = per_layer_values(spec, &run.warm.cells, &traced_t, &untraced_t);
    let value = |m: &str| layers.iter().find(|(n, _, _)| n == m).map_or(0.0, |l| l.2);
    if matches!(spec, Spec::BepMicro(_) | Spec::TraceProf(_)) {
        println!(
            "  fig11_gap_pct {:>16.6} %    mean |measured - paper| / paper of the LB+IDT, LB+PF, LB++ throughput gmeans",
            value("model.fig11_gap_pct")
        );
        println!(
            "  fig12_gap_pp  {:>16.6} pp   mean |measured - paper| of the conflicting-epoch ameans",
            value("model.fig12_gap_pp")
        );
        println!(
            "  note: the micro-benchmark parameters were calibrated against Fig 11/12 at seed \
             0x5eed0001, so the model is otherwise unvalidated; other seeds give held-out error"
        );
    }
    println!(
        "  digest of simulated results: {:016x}",
        digest(&run.warm.cells)
    );
    let metrics = if args.trace {
        let wall = report::scaled_median(&traced_t, |t| t.wall_s);
        println!("  per layer (medians of {} traced passes):", traced_t.len());
        for (metric, unit, v) in &layers {
            println!("    {metric:<34} {v:>20.6} {unit}");
        }
        println!("  traced wall_s (median pass, reference speed): {wall:.6} s");
        println!(
            "  tracing overhead: {:.6} s; unattributed: {:.6} s (slack {}% of wall_s per pass)",
            value("trace.overhead_s"),
            value("trace.unattributed_s"),
            checks::CONSERVATION_SLACK * 100.0
        );
        let share = |ms: &[&str]| ms.iter().map(|m| value(m)).sum::<f64>() / wall * 100.0;
        let (what, pct) = match spec {
            Spec::BepMicro(_) | Spec::BspApp(_) => ("sim.run_s", share(&["sim.run_s"])),
            Spec::CrashSweep(_) => (
                "check.snapshot_s + check.verify_s",
                share(&["check.snapshot_s", "check.verify_s"]),
            ),
            Spec::TraceProf(_) => ("obs.export_s", share(&["obs.export_s"])),
        };
        let verdict = if pct > 50.0 {
            "most of it"
        } else {
            "NOT most of it"
        };
        println!("  split: {what} is {pct:.1}% of traced wall_s ({verdict})");
        layers
    } else {
        e2e
    };
    println!("{}", json_line(attempted, errors.len() as u64, &metrics));
    errors.is_empty()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        ok &= run_workload(name, &args);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one `BENCHMARK.json` list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start
            ..json[start..]
                .find(']')
                .map(|e| start + e)
                .expect("list closes")];
        let field = |obj: &str, key: &str| {
            let rest = &obj[obj.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn emitted(metrics: &[(String, &str, f64)]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, u, _)| (n.clone(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit_and_tiny_runs_pass_their_checks() {
        for name in NAMES {
            let mut bench = Bench::new(Spec::tiny(name, 3).expect("known workload"));
            let run = measure(&mut bench, Duration::ZERO, true);
            // Time conservation is left out: at this size fixed costs
            // dominate. Its check has a test of its own.
            let (attempted, errors) = cell_failures(&run);
            assert!(errors.is_empty(), "{name}: {errors:?}");
            assert_eq!(attempted, 3 * run.warm.cells.len() as u64);
            for pass in run.measured() {
                let t = &pass.timing;
                assert_eq!(t.ref_chunks.len(), pass.cells.len() + 2, "{name}");
                assert!(t.scale() > 0.0 && t.scale().is_finite(), "{name}");
            }
            let untraced: Vec<&PassOut> = run.untraced.iter().collect();
            let e2e = end_to_end_values(bench.spec(), &untraced, peak_rss_mb());
            assert_eq!(emitted(&e2e), declared("end_to_end"), "{name}");
            for (metric, _, value) in &e2e {
                assert!(*value > 0.0, "{name}: {metric} reads {value}");
            }
            let traced: Vec<&clock::Timing> = run.traced.iter().map(|p| &p.timing).collect();
            let plain: Vec<&clock::Timing> = run.untraced.iter().map(|p| &p.timing).collect();
            let layers = per_layer_values(bench.spec(), &run.warm.cells, &traced, &plain);
            assert_eq!(emitted(&layers), declared("per_layer"), "{name}");
            let line = json_line(attempted, 0, &layers);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(line.contains("\"sim.ops\": {\"value\": "));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload crash_sweep --seed 4 --seconds 2 --trace 1",
        ));
        assert_eq!(
            ok,
            Ok(Args {
                workload: "crash_sweep".to_string(),
                seed: 4,
                seconds: 2,
                trace: true
            })
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload all --trace 2",
            "--workload all --seed -1",
            "--workload all --seed",
            "--workload all --jobs 2",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
