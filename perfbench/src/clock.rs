//! Host-time accounting for one pass, measured from outside the library:
//! spans wrap calls into public functions.
//!
//! A pass has a set-up phase (input generation, `System::new`, preloads)
//! and a timed phase (everything else). Both phase totals are always
//! measured; the per-layer spans are taken only in a traced pass. After
//! each unit of work (generation, then each cell or case) the clock times
//! one chunk of the [`reference`](crate::reference) kernel, outside both
//! phases, to gauge the host's speed during the pass.

use crate::reference;
use std::time::Instant;

/// The layers a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Program generation (`pbm_workloads` generators).
    Gen,
    /// `System::new`, preloads and observer set-up.
    New,
    /// Untraced `System::run`, and dropping the `System`.
    Run,
    /// `System::new`, `enable_checking` and `System::run`, inside the
    /// crash sweep.
    CheckSim,
    /// `persistent_snapshot_at` / `recover_with`.
    CheckSnapshot,
    /// Dependence-graph acyclicity and `check_bep` / `check_bsp_recovered`.
    CheckVerify,
    /// Traced minus untraced `System::run` of the same cell, plus taking
    /// and dropping the event buffer.
    Emit,
    /// `export_chrome_trace`, and dropping its output.
    Export,
    /// `pbm_prof::analyze`.
    Analyze,
    /// Prof report JSON and folded stacks.
    Report,
}

impl Layer {
    /// Every layer, in metric order.
    pub const ALL: [Layer; 10] = [
        Layer::Gen,
        Layer::New,
        Layer::Run,
        Layer::CheckSim,
        Layer::CheckSnapshot,
        Layer::CheckVerify,
        Layer::Emit,
        Layer::Export,
        Layer::Analyze,
        Layer::Report,
    ];

    /// The per-layer metric name of this layer's host seconds.
    pub const fn metric(self) -> &'static str {
        match self {
            Layer::Gen => "workloads.gen_s",
            Layer::New => "sim.new_s",
            Layer::Run => "sim.run_s",
            Layer::CheckSim => "check.sim_s",
            Layer::CheckSnapshot => "check.snapshot_s",
            Layer::CheckVerify => "check.verify_s",
            Layer::Emit => "obs.emit_s",
            Layer::Export => "obs.export_s",
            Layer::Analyze => "prof.analyze_s",
            Layer::Report => "prof.report_s",
        }
    }

    /// True for the set-up layers.
    pub const fn is_setup(self) -> bool {
        matches!(self, Layer::Gen | Layer::New)
    }
}

/// The clock of one pass.
#[derive(Debug)]
pub struct Clock {
    traced: bool,
    start: Instant,
    excluded: f64,
    setup: f64,
    layers: [f64; Layer::ALL.len()],
    ref_chunks: Vec<f64>,
}

/// What a finished pass measured, in raw host seconds.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Whether the per-layer spans were taken.
    pub traced: bool,
    /// Set-up phase.
    pub setup_s: f64,
    /// Timed phase: the pass minus set-up.
    pub wall_s: f64,
    /// Per-layer seconds, indexed like [`Layer::ALL`] (zeros untraced).
    pub layers: [f64; Layer::ALL.len()],
    /// Seconds of each reference chunk timed in the pass, one per unit of
    /// work.
    pub ref_chunks: Vec<f64>,
}

impl Timing {
    /// Mean seconds of the pass's reference chunks.
    pub fn ref_chunk_s(&self) -> f64 {
        self.ref_chunks.iter().sum::<f64>() / self.ref_chunks.len() as f64
    }

    /// The factor that turns this pass's raw host seconds into seconds at
    /// reference speed.
    pub fn scale(&self) -> f64 {
        reference::NOMINAL_CHUNK_S / self.ref_chunk_s()
    }

    /// Seconds charged to `layer`.
    pub fn layer(&self, layer: Layer) -> f64 {
        self.layers[layer as usize]
    }

    /// Timed-phase seconds no layer span covers: glue, drops and the
    /// benchmark's own checks.
    pub fn unattributed_s(&self) -> f64 {
        let timed: f64 = Layer::ALL
            .iter()
            .filter(|l| !l.is_setup())
            .map(|&l| self.layer(l))
            .sum();
        self.wall_s - timed
    }
}

impl Clock {
    /// Starts a pass.
    pub fn start(traced: bool) -> Clock {
        Clock {
            traced,
            start: Instant::now(),
            excluded: 0.0,
            setup: 0.0,
            layers: [0.0; Layer::ALL.len()],
            ref_chunks: Vec::new(),
        }
    }

    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.excluded
    }

    /// Ends a unit of work: times one reference chunk, in neither phase.
    pub fn mark(&mut self) {
        let secs = self.exclude(reference::chunk);
        self.ref_chunks.push(secs);
    }

    /// Whether per-layer spans are taken.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs set-up work: always counted in `setup_s`, and charged to
    /// `layer` when traced.
    pub fn setup<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        debug_assert!(layer.is_setup());
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.setup += secs;
        self.charge(layer, secs);
        out
    }

    /// Runs timed-phase work, charged to `layer` when traced.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.charge(layer, t.elapsed().as_secs_f64());
        out
    }

    /// Charges measured seconds to `layer` (traced passes only).
    pub fn charge(&mut self, layer: Layer, secs: f64) {
        if self.traced {
            self.layers[layer as usize] += secs;
        }
    }

    /// Runs reference work the workload itself does not do (a traced
    /// pass's untraced twin runs); it counts in neither phase.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed().as_secs_f64();
        out
    }

    /// Ends the pass.
    pub fn finish(mut self) -> Timing {
        let wall_s = self.elapsed() - self.setup;
        self.mark();
        Timing {
            traced: self.traced,
            setup_s: self.setup,
            wall_s,
            layers: self.layers,
            ref_chunks: self.ref_chunks,
        }
    }
}
