//! Observability plumbing for the experiment binaries: `--trace-out=` /
//! `--metrics-csv=` flag parsing, instrumented runs, and artifact export.

use pbm_obs::{chrome, metrics_csv};
use pbm_sim::System;
use pbm_types::{Cycle, MetricSample, SimStats, SystemConfig, TraceEvent};
use pbm_workloads::Workload;
use std::path::{Path, PathBuf};

/// Default sampling cadence when `--metrics-csv` is given without
/// `--metrics-interval` (cycles).
pub const DEFAULT_METRICS_INTERVAL: u64 = 5_000;

/// Observability knobs shared by every figure binary.
///
/// * `--trace-out=<path>` — write a Chrome trace-event JSON (open in
///   Perfetto / `chrome://tracing`) for one representative cell.
/// * `--metrics-csv=<path>` — write the periodic metrics time-series.
/// * `--metrics-interval=<cycles>` — sampling cadence (default
///   [`DEFAULT_METRICS_INTERVAL`]).
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// Destination for the Chrome trace-event JSON, if requested.
    pub trace_out: Option<PathBuf>,
    /// Destination for the metrics CSV, if requested.
    pub metrics_csv: Option<PathBuf>,
    /// Sampling cadence in cycles.
    pub metrics_interval: u64,
}

impl Default for ObsOptions {
    /// No artifacts, sampling at [`DEFAULT_METRICS_INTERVAL`].
    fn default() -> Self {
        ObsOptions {
            trace_out: None,
            metrics_csv: None,
            metrics_interval: DEFAULT_METRICS_INTERVAL,
        }
    }
}

impl ObsOptions {
    /// Parses the observability flags out of the process arguments.
    /// Unknown arguments are ignored (the binaries have their own).
    pub fn from_args() -> Self {
        let mut opts = ObsOptions::default();
        for arg in std::env::args() {
            if let Some(p) = arg.strip_prefix("--trace-out=") {
                opts.trace_out = Some(require_path("--trace-out", p));
            } else if let Some(p) = arg.strip_prefix("--metrics-csv=") {
                opts.metrics_csv = Some(require_path("--metrics-csv", p));
            } else if let Some(n) = arg.strip_prefix("--metrics-interval=") {
                match n.parse() {
                    Ok(v) if v > 0 => opts.metrics_interval = v,
                    _ => die(&format!(
                        "--metrics-interval takes a positive cycle count, got {n:?}"
                    )),
                }
            }
        }
        opts
    }

    /// True if any artifact was requested.
    pub fn is_active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_csv.is_some()
    }

    /// A copy whose output paths carry `-<label>` before the extension, so
    /// multi-config binaries can emit one artifact set per configuration.
    pub fn for_label(&self, label: &str) -> Self {
        let slug: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        ObsOptions {
            trace_out: self.trace_out.as_deref().map(|p| suffixed(p, &slug)),
            metrics_csv: self.metrics_csv.as_deref().map(|p| suffixed(p, &slug)),
            metrics_interval: self.metrics_interval,
        }
    }

    /// Writes the requested artifacts of one run from its collected
    /// `events` and `samples`; a no-op when nothing was requested. Exits
    /// the process with a diagnostic if an artifact cannot be written.
    pub fn write_artifacts(&self, events: &[TraceEvent], samples: &[MetricSample], label: &str) {
        if let Some(path) = &self.trace_out {
            let json = chrome::export_chrome_trace(events, samples);
            if let Err(e) = std::fs::write(path, json) {
                die(&format!("cannot write trace JSON {}: {e}", path.display()));
            }
            eprintln!(
                "# trace: {} events for {label} -> {}",
                events.len(),
                path.display()
            );
        }
        if let Some(path) = &self.metrics_csv {
            if let Err(e) = std::fs::write(path, metrics_csv(samples)) {
                die(&format!("cannot write metrics CSV {}: {e}", path.display()));
            }
            eprintln!(
                "# metrics: {} samples for {label} -> {}",
                samples.len(),
                path.display()
            );
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn require_path(flag: &str, value: &str) -> PathBuf {
    if value.is_empty() {
        die(&format!("{flag} requires a file path"));
    }
    PathBuf::from(value)
}

fn suffixed(path: &Path, slug: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
    path.with_file_name(format!("{stem}-{slug}.{ext}"))
}

/// Runs one workload with the requested instrumentation attached,
/// returning the statistics plus everything the observer collected.
pub fn run_one_instrumented(
    cfg: SystemConfig,
    wl: &Workload,
    tracing: bool,
    metrics_interval: Option<Cycle>,
) -> (SimStats, Vec<TraceEvent>, Vec<MetricSample>) {
    let mut sys = System::new(cfg, wl.programs.clone()).expect("valid config");
    wl.apply_preloads(&mut sys);
    if tracing {
        sys.enable_tracing();
    }
    if let Some(interval) = metrics_interval {
        sys.enable_metrics(interval);
    }
    let stats = sys.run();
    let events = sys.take_trace_events();
    let samples = sys.take_metric_samples();
    (stats, events, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_suffixing() {
        let opts = ObsOptions {
            trace_out: Some(PathBuf::from("/tmp/trace.json")),
            metrics_csv: Some(PathBuf::from("/tmp/metrics.csv")),
            metrics_interval: 100,
        };
        let per = opts.for_label("LB++10K");
        assert_eq!(
            per.trace_out.unwrap(),
            PathBuf::from("/tmp/trace-lb__10k.json")
        );
        assert_eq!(
            per.metrics_csv.unwrap(),
            PathBuf::from("/tmp/metrics-lb__10k.csv")
        );
    }

    #[test]
    fn inactive_by_default() {
        assert!(!ObsOptions::default().is_active());
    }
}
