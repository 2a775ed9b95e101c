//! Ablation A5: the multi-banked flush protocol's arbiter cost.
//!
//! §4.1 argues a per-core arbiter makes the banked epoch flush O(n)
//! messages instead of O(n^2), at the price of the BankAck/PersistCMP
//! round trip per epoch. This sweep varies the LLC bank count (with the
//! same total LLC capacity) and reports throughput and NoC traffic per
//! persisted epoch, quantifying the handshake the paper designs for.
//!
//! Run: `cargo run -p pbm-bench --release --bin ablation_banks [--quick]
//!           [--jobs=N] [--trace-out=t.json] [--metrics-csv=m.csv]`

use pbm_bench::{print_system_header, print_table, quick_mode, Runner};
use pbm_types::{BarrierKind, PersistencyKind, SystemConfig};
use pbm_workloads::micro::{self, MicroParams};

fn main() {
    let mut params = MicroParams::paper();
    params.threads = 8;
    if quick_mode() {
        params.ops_per_thread = 16;
    }
    let mut base = SystemConfig::micro48();
    base.persistency = PersistencyKind::BufferedEpoch;
    base.barrier = BarrierKind::LbPp;
    base.cores = 8;
    base.mesh_rows = 2;
    print_system_header(&base);

    // Same 8 MiB of LLC, split 1 / 4 / 8 / 32 ways.
    let banks = [1usize, 4, 8, 32];
    let total_llc: u64 = 8 * 1024 * 1024;
    let mut jobs = Vec::new();
    for wl in [micro::queue(&params), micro::hash(&params)] {
        for nb in banks {
            let mut cfg = base.clone();
            cfg.llc_banks = nb;
            cfg.llc_bank_size = total_llc / nb as u64;
            cfg.mesh_rows = if nb >= 8 { 2 } else { 1 };
            jobs.push((format!("{nb} banks"), wl.name.to_string(), cfg, wl.clone()));
        }
    }
    let results = Runner::from_args().run(jobs);

    let mut rows = Vec::new();
    for chunk in results.chunks(banks.len()) {
        let mono = chunk[0].stats.throughput();
        let mut cols = Vec::new();
        for r in chunk {
            cols.push(r.stats.throughput() / mono);
        }
        for r in chunk {
            cols.push(r.stats.noc_messages as f64 / r.stats.epochs_persisted.max(1) as f64);
        }
        rows.push((chunk[0].workload.clone(), cols));
    }
    print_table(
        "Ablation A5: LLC banking (throughput vs monolithic | NoC msgs per epoch)",
        &[
            "workload", "t@1", "t@4", "t@8", "t@32", "msg@1", "msg@4", "msg@8", "msg@32",
        ],
        &rows,
    );
    println!("\npaper: arbiter keeps the banked flush at O(n) messages per epoch");
}
