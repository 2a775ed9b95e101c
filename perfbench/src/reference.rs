//! A fixed reference kernel that measures how fast the host is while a
//! pass runs.
//!
//! On a shared host other tenants change the speed of the same code by
//! up to about 2x for tens of seconds at a time, so raw host seconds of
//! identical work spread across runs by more than any useful bound. The
//! clock therefore runs one chunk of this kernel after every unit of work
//! (generation, each cell or case), outside both timed phases, and
//! reports host times at reference speed: raw seconds times
//! [`NOMINAL_CHUNK_S`] over the pass's mean chunk time. The kernel is the
//! benchmark's own code, identical on every commit it measures, so a
//! change to the program moves the scaled times and a change of host
//! speed cancels out. A chunk spends about half its time on hash-map
//! updates and lookups over a working set that fits in the private
//! caches, as the simulator and the checker do, and half formatting
//! records into a growing string, as the Chrome export does. On a 2-vCPU
//! shared Xeon VM, over five to seven 20-second runs per workload, this
//! cut the spread (interquartile range over median) of a workload's time
//! from 0.07-0.21 raw to 0.02-0.06 scaled; either half alone, pure
//! arithmetic, or random accesses to a large array tracked the workloads'
//! slowdowns less well. The kernel's map and string add up to about 5 MB
//! to the process's peak resident set.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one chunk is taken to last on the reference host; raw host
/// seconds are scaled to a host on which a chunk takes exactly this long.
pub const NOMINAL_CHUNK_S: f64 = 0.02;

/// Distinct keys the kernel's map holds.
const KEYS: u64 = 16_384;
/// Map update-and-lookup rounds per chunk.
const MAP_ROUNDS: u32 = 200_000;
/// Records formatted per chunk.
const RECORDS: u32 = 80_000;

/// Runs one chunk of the kernel and returns its host seconds.
pub fn chunk() -> f64 {
    let t = Instant::now();
    black_box(map_rounds(MAP_ROUNDS));
    black_box(format_records(RECORDS));
    t.elapsed().as_secs_f64()
}

/// A fixed xorshift sequence.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `rounds` rounds of one update and one lookup on a fresh map; the
/// result depends on every lookup.
fn map_rounds(rounds: u32) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..rounds {
        let r = xorshift(&mut x);
        *map.entry(r % KEYS).or_insert(0) += 1;
        acc = acc.wrapping_add(map.get(&((r >> 20) % KEYS)).copied().unwrap_or(0));
    }
    acc
}

/// Formats `records` trace-event-like JSON records into one string and
/// returns its length.
fn format_records(records: u32) -> usize {
    let mut x: u64 = 5;
    let mut out = String::new();
    for i in 0..u64::from(records) {
        let r = xorshift(&mut x);
        write!(
            out,
            "{{\"name\":\"e{}\",\"ts\":{},\"dur\":{}}},",
            r % 97,
            i * 3,
            r >> 40
        )
        .expect("writing to a String cannot fail");
    }
    out.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_chunks_take_time() {
        assert_eq!(map_rounds(10_000), map_rounds(10_000));
        assert_eq!(format_records(1_000), format_records(1_000));
        assert!(chunk() > 0.0);
    }
}
