//! Host-speed calibration.
//!
//! The benchmark runs on a few virtual CPUs of a shared machine whose
//! speed drifts by tens of percent over minutes as other tenants load
//! it: the same pass can take 1.0 s and 1.5 s a few minutes apart. No
//! amount of repetition inside one run averages that out. So between
//! the timed segments of every pass (set-up, search, each simulation)
//! the benchmark times a fixed kernel that has nothing to do with the
//! code under test. The kernel's time over [`REF_S`] is the host's
//! slowdown at that moment, and every segment's host time is divided by
//! the mean of the slowdowns sampled on either side of it. The result is
//! in *reference seconds*: the time the work would take on the host
//! when the kernel runs in `REF_S`.
//!
//! The kernel mixes what the simulator does most: dependent integer
//! arithmetic, data-dependent branches and random loads and stores over
//! a table the size of a core's L2 cache. In four minutes of identical
//! `fig3-mp` passes at scale 0.04 on the 2-CPU Xeon host the bounds were
//! set on, the kernel's time and the pass time correlated at 0.84, and
//! the median pass time drifted by 47% while the median of pass time
//! over kernel time drifted by under 8%. Of the kernels tried (this
//! one, the same over a 32 MiB table, and pure arithmetic), this one
//! tracked the simulator's segment times best.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the kernel takes on a quiet host: about the tenth percentile
/// of its time on the 2-CPU Xeon (Sapphire Rapids) virtual machine the
/// bounds were set on.
pub const REF_S: f64 = 0.015;

/// Table size in 64-bit words (2 MiB).
const WORDS: usize = 1 << 18;

/// Iterations of one kernel run.
const ITERS: u32 = 1_500_000;

/// The calibration kernel, its table (allocated once, so that a sample
/// times no page faults) and the last slowdown it measured.
pub struct HostSpeed {
    table: Vec<u64>,
    last: f64,
}

impl HostSpeed {
    /// A calibrator whose first sample opens the first segment.
    pub fn new() -> Self {
        let mut h = HostSpeed {
            table: vec![1; WORDS],
            last: 1.0,
        };
        h.last = h.sample();
        h
    }

    /// Ends a timed segment, which began at the previous sample: samples
    /// the host and returns the segment's slowdown, the mean of this
    /// sample and the previous one.
    pub fn lap(&mut self) -> f64 {
        let now = self.sample();
        let k = (self.last + now) / 2.0;
        self.last = now;
        k
    }

    /// Runs the kernel once and returns the host's slowdown: the kernel's
    /// time over [`REF_S`].
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mask = WORDS - 1;
        let v = &mut self.table;
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for _ in 0..ITERS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 20) as usize & mask;
            let j = i.wrapping_mul(7) & mask;
            v[i] = v[i].wrapping_add(x) ^ (v[j] >> 3);
            if v[i] & 1 == 0 {
                acc = acc.wrapping_add(v[j]);
            } else {
                acc ^= x;
            }
        }
        black_box(acc);
        black_box(&*v);
        t.elapsed().as_secs_f64() / REF_S
    }
}
