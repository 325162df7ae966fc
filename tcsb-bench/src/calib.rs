//! Interleaved host-speed calibration.
//!
//! The hosts this benchmark runs on are shared: the same repetition takes
//! anywhere from 0.8× to 1.3× its usual time depending on what the
//! neighbours do, over seconds and over minutes, and two passes of ten runs
//! twenty minutes apart differ by a fifth in their raw medians (README).
//! Calibrating once per process cannot follow that, and a short
//! calibration is noisier than the workload. So the harness interleaves:
//! between the segments of a measured run it runs a fixed yardstick for a
//! few milliseconds, and the run's *host speed* is the yardstick's
//! reference time over the time measured across all those slices.
//! End-to-end timings are reported multiplied by that speed — in seconds
//! of the reference host.
//!
//! The yardstick is the SHA-256 compression function over a fixed 512 KiB
//! buffer. Of the six tried against this directory's own workloads (a
//! 2 MiB pointer ring walked cold and warm, a 32 MiB one, two arithmetic
//! loops, and this), it is the one that followed the host in every period
//! measured and never added spread of its own (README). It is a frozen copy
//! written here, not `ipfs_types::sha256`: a later change that speeds the
//! repository's hash up must not move the yardstick it is measured with.

use std::hint::black_box;
use std::time::Instant;

/// Size of the buffer: beyond L1, inside L2.
const BUF: usize = 512 << 10;
/// Passes over the buffer per slice (≈ 5 ms: shorter slices read the host
/// speed of a 1.5 s run too coarsely).
const PASSES: usize = 2;
/// Time to compress one 64-byte block on the reference host, ns. A
/// constant: only ratios of normalised timings carry meaning across hosts,
/// and it is close to what the hosts this was written on measure, so
/// normalised and raw seconds are of the same size.
const REF_NS_PER_BLOCK: f64 = 320.0;

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 initial state (FIPS 180-4 §5.3.3).
pub const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One application of the SHA-256 compression function: fold the 64-byte
/// `block` into `state`.
pub fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(s0.wrapping_add(maj));
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The yardstick's buffer and the time spent on it.
pub struct Calibrator {
    buf: Vec<u8>,
    blocks: u64,
    secs: f64,
}

/// A point in the calibrator's running totals; see [`Calibrator::speed_since`].
#[derive(Clone, Copy)]
pub struct Mark {
    blocks: u64,
    secs: f64,
}

impl Calibrator {
    /// Fill the buffer with a fixed pseudo-random pattern, the same for
    /// every seed and run, and run one slice so that the first counted one
    /// does not pay page faults.
    pub fn new() -> Calibrator {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let buf = (0..BUF)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut cal = Calibrator {
            buf,
            blocks: 0,
            secs: 0.0,
        };
        cal.slice();
        cal.blocks = 0;
        cal.secs = 0.0;
        cal
    }

    /// Compress the whole buffer [`PASSES`] times and add the time to the
    /// totals.
    pub fn slice(&mut self) {
        let t = Instant::now();
        let mut state = H0;
        for _ in 0..PASSES {
            for block in self.buf.chunks_exact(64) {
                compress(&mut state, block);
            }
        }
        black_box(state);
        self.secs += t.elapsed().as_secs_f64();
        self.blocks += (PASSES * BUF / 64) as u64;
    }

    /// The totals now.
    pub fn mark(&self) -> Mark {
        Mark {
            blocks: self.blocks,
            secs: self.secs,
        }
    }

    /// Seconds spent in slices since `mark`.
    pub fn secs_since(&self, mark: Mark) -> f64 {
        self.secs - mark.secs
    }

    /// Host speed over the slices run since `mark`, relative to the
    /// reference host (above 1 = faster). 1 when no slice was run.
    pub fn speed_since(&self, mark: Mark) -> f64 {
        let blocks = self.blocks - mark.blocks;
        if blocks == 0 {
            return 1.0;
        }
        REF_NS_PER_BLOCK / ((self.secs - mark.secs) * 1e9 / blocks as f64)
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}
