//! Machine-speed calibration.
//!
//! The shared hosts this benchmark runs on drift in speed by tens of
//! percent for seconds at a time, whatever the program does. The benchmark
//! runs a fixed kernel, owned by the benchmark and independent of the
//! program, for a few milliseconds after every sub-window, and scales the
//! sub-window's times to a reference machine on which the kernel runs
//! [`REFERENCE_ROUNDS_PER_S`] rounds per second. A change to the program
//! moves the scaled times exactly as it moves the raw ones; a change in
//! machine speed moves the kernel too and cancels out.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel rounds per second on the reference machine (roughly the median
/// of the 2-vCPU Xeon host the benchmark was tuned on).
pub const REFERENCE_ROUNDS_PER_S: f64 = 16_000.0;

/// How long one calibration burst runs; a reading is the median of
/// three bursts, so one hiccup on the host does not set it.
const SPAN: Duration = Duration::from_millis(4);

/// One kernel round: the kind of work the stack does most (hash-map
/// inserts of small heap buffers, then a pass over them).
fn round() {
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..500u64 {
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), vec![i as u8; 64]);
    }
    black_box(map.values().map(|v| u64::from(v[3])).sum::<u64>());
}

/// The machine's speed now relative to the reference machine: above 1
/// when it runs faster. Multiply a time measured now by it (or divide a
/// rate by it) to get the reference machine's figure.
pub fn speed() -> f64 {
    let mut bursts = [0.0; 3];
    for rate in &mut bursts {
        let start = Instant::now();
        let mut rounds = 0u32;
        while start.elapsed() < SPAN {
            round();
            rounds += 1;
        }
        *rate = f64::from(rounds) / start.elapsed().as_secs_f64();
    }
    bursts.sort_by(f64::total_cmp);
    bursts[1] / REFERENCE_ROUNDS_PER_S
}
