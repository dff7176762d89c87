//! Reference kernels timed between sections, to take the host's speed
//! drift out of host-time metrics.
//!
//! On a shared machine the same work can run 1.2–1.4x slower for minutes
//! at a time, which no median over one run's repetitions hides. The two
//! kernels below are benchmark code — no change to the program touches
//! them — and slow down with the host: one is bound by cache misses, one
//! by branchy integer dispatch, the two ways the simulator spends its
//! time. Every timed section runs between two reference points, and its
//! time is reported divided by the host's slowdown around it: the time
//! the section would have taken on the host the nominal constants were
//! measured on. Raw wall times stay in the detail line.

use std::time::Instant;

/// Kernel times on the reference host (see README.md). They only set the
/// scale of normalized values; comparisons between two commits divide
/// them out.
const MEM_NOMINAL_S: f64 = 0.0114;
const CPU_NOMINAL_S: f64 = 0.025;

/// 4 MiB of table: more than a core's private caches hold.
const TABLE: usize = 1 << 19;
const MEM_STEPS: u32 = 4_000_000;
const CPU_STEPS: u32 = 6_000_000;

/// A timed section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Host wall time.
    pub wall_s: f64,
    /// How much slower than nominal the host ran the reference kernels
    /// around the section (mean of the points before and after).
    pub slowdown: f64,
}

impl Timed {
    /// The section's time at the nominal host speed.
    pub fn normalized_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

/// Times sections between reference points.
pub struct RefClock {
    table: Vec<u64>,
    code: Vec<u8>,
    last: f64,
}

impl RefClock {
    pub fn new() -> RefClock {
        let mut c = RefClock {
            table: vec![0; TABLE],
            code: (0..1024u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect(),
            last: 0.0,
        };
        c.last = c.point();
        c
    }

    /// Random read-modify-writes over the table.
    fn mem_pass(&mut self) -> f64 {
        let t = Instant::now();
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..MEM_STEPS {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let i = s as usize & (TABLE - 1);
            self.table[i] = self.table[i].wrapping_add(s);
        }
        std::hint::black_box(&self.table);
        t.elapsed().as_secs_f64()
    }

    /// A register-machine dispatch loop over 1 KiB of pseudo-random code.
    fn cpu_pass(&self) -> f64 {
        let t = Instant::now();
        let mut regs = [1u64; 8];
        let mut pc = 0usize;
        for _ in 0..CPU_STEPS {
            let op = self.code[pc & 1023];
            let (a, b) = (usize::from(op & 7), usize::from((op >> 3) & 7));
            match op >> 6 {
                0 => regs[a] = regs[a].wrapping_add(regs[b]),
                1 => regs[a] ^= regs[b].rotate_left(7),
                2 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                _ => {
                    if regs[a] & 1 == 0 {
                        pc += 3;
                    }
                }
            }
            pc += 1;
        }
        std::hint::black_box(regs);
        t.elapsed().as_secs_f64()
    }

    /// The host's slowdown now: geometric mean of both kernels' time
    /// over nominal.
    fn point(&mut self) -> f64 {
        (self.mem_pass() / MEM_NOMINAL_S * self.cpu_pass() / CPU_NOMINAL_S).sqrt()
    }

    /// Runs `f`, then takes a reference point; the section's slowdown is
    /// the mean of the points on either side of it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let t = Instant::now();
        let r = f();
        let wall_s = t.elapsed().as_secs_f64();
        let next = self.point();
        let slowdown = (self.last + next) / 2.0;
        self.last = next;
        (r, Timed { wall_s, slowdown })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_are_scaled_by_the_slowdown_around_them() {
        let t = Timed {
            wall_s: 3.0,
            slowdown: 1.5,
        };
        // A host running the kernels 1.5x slower than nominal ran a 2 s
        // section in 3 s.
        assert!((t.normalized_s() - 2.0).abs() < 1e-12);
        let mut c = RefClock::new();
        let (v, t) = c.time(|| 7);
        assert_eq!(v, 7);
        assert!(t.slowdown > 0.0 && t.slowdown.is_finite());
    }
}
