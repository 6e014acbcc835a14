//! Small measurement helpers: order statistics, a seeded generator, and
//! the process's peak resident set.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by the nearest-rank rule; 0 for
/// an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// SplitMix64: the benchmark's seeded generator for op sequences, query
/// points and sample choices (the program only ever sees its outputs).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so independent
    /// uses of one seed draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform value in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Reset the process's resident-set high-water mark to the current
/// resident set (Linux `clear_refs` 5). Freed heap is first handed back
/// to the kernel, so the mark starts from live memory rather than from
/// what earlier work (such as the reference clustering) freed. Where the
/// kernel does not allow the reset, the mark covers the whole process
/// life.
pub fn reset_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hand freed heap back to the kernel (glibc `malloc_trim`; a no-op
/// elsewhere), so the next measured step starts from the allocator state
/// a fresh process would have rather than from earlier steps' leftovers.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a byte count, touches only the
    // allocator's own free lists, and is safe to call from any thread at
    // any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Hand freed heap back to the kernel (a no-op without glibc).
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Run a set-up `reps` times (at least once) and keep the last result
/// with every rep's wall time. Each rep starts after the previous result
/// is dropped, so reps after the first reuse its freed heap: their median
/// measures the set-up's own work rather than the kernel's first-touch
/// page faults, which made single cold reps of the in-memory set-up vary
/// by half between runs.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut secs = Vec::new();
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        let value = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up ran"), secs))
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or 0
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&xs, 0.99), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 99.0);
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
