//! The profiler's `BENCH_prof.json` must be byte-identical at any
//! `--jobs=N`: the CI regression gate diffs it with zero tolerance, so a
//! worker-count-dependent byte would fail every CI run on a different
//! machine shape.

use pbm_bench::profiling::{bench_prof_doc, fig11_jobs};
use pbm_bench::{ObsOptions, Runner};

#[test]
fn bench_prof_doc_is_byte_identical_across_jobs() {
    // A slice of the real quick grid keeps the test fast while still
    // crossing workloads and barrier variants (truncation preserves grid
    // order, so both runs see identical cells).
    let cells: Vec<_> = fig11_jobs(true).into_iter().take(8).collect();
    let serial = Runner::new(1, ObsOptions::default()).profile(cells.clone());
    let parallel = Runner::new(8, ObsOptions::default()).profile(cells);
    let doc_1 = bench_prof_doc(&serial, true).to_json();
    let doc_8 = bench_prof_doc(&parallel, true).to_json();
    assert_eq!(doc_1, doc_8, "--jobs must not leak into the document");
    assert!(
        serial.iter().any(|(_, p, _)| !p.barriers.is_empty()),
        "the sliced grid still profiles real barriers"
    );
}
