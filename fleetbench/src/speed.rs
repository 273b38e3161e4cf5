//! Host-speed normalisation for the host-time metrics.
//!
//! The benchmark's host is shared: its momentary speed drifts by tens of
//! percent within minutes, which would swamp any change worth measuring.
//! Before and after every repetition the benchmark times a fixed,
//! std-only kernel — ordered-map churn, a binary heap, a sort and a
//! pointer chase through memory larger than the caches, the same kinds of
//! work the simulator does — that no change to the library can speed up
//! or slow down. Each repetition's host times are divided by the
//! mean [`slowdown`] measured around it, which expresses them at the speed
//! where the kernel takes [`REFERENCE_SECONDS`]: a slow spell of the host
//! slows the kernel and the simulator alike and largely cancels out.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel time every normalised metric is expressed at: a fixed scale,
/// roughly one kernel run on an unloaded 2-vCPU x86-64 container.
pub const REFERENCE_SECONDS: f64 = 0.025;

/// Runs the kernel once and returns its host seconds.
fn kernel_seconds() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    for i in 0..60_000u64 {
        // xorshift64: a fixed sequence, independent of the library.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
        heap.push(Reverse(x));
        if i % 2 == 1 {
            heap.pop();
            map.remove(&(x.rotate_left(17) % 50_000));
        }
    }
    let mut v: Vec<u64> = map
        .keys()
        .copied()
        .chain(heap.into_iter().map(|r| r.0))
        .collect();
    v.sort_unstable();
    black_box(&v);
    // Pointer chase through a 16 MiB cycle: memory latency, as the
    // simulator pays when its backlog outgrows the caches.
    let ring = ring();
    let mut at = 0u32;
    for _ in 0..100_000 {
        at = ring[at as usize];
    }
    black_box(at);
    started.elapsed().as_secs_f64()
}

/// A single random cycle over 4 Mi slots (Sattolo's shuffle), built once.
fn ring() -> &'static [u32] {
    static RING: OnceLock<Vec<u32>> = OnceLock::new();
    RING.get_or_init(|| {
        let n = 1usize << 22;
        let mut ring: Vec<u32> = (0..n as u32).collect();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.swap(i, (x % i as u64) as usize);
        }
        ring
    })
}

/// The host's current slowdown relative to the reference speed: the
/// median of three kernel runs over [`REFERENCE_SECONDS`].
pub fn slowdown() -> f64 {
    let mut runs = [kernel_seconds(), kernel_seconds(), kernel_seconds()];
    runs.sort_by(f64::total_cmp);
    runs[1] / REFERENCE_SECONDS
}
