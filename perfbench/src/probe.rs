//! The memory roofline: a measured copy bandwidth, and the bytes each
//! PLF kernel moves per pattern as computed from its operands.

use std::hint::black_box;
use std::time::Instant;

/// Last-level cache the probe's arrays are sized against: the 300 MiB
/// L3 the benchmark host reports (2 × 2 MiB L2 below it).
pub const LLC_MIB: usize = 300;

/// Each of the probe's two arrays: 4 × [`LLC_MIB`], so a copy cannot be
/// served from cache.
pub const PROBE_MIB: usize = 4 * LLC_MIB;

/// Bytes of one pattern's CLV entry: 4 Γ categories × 4 states × `f32`.
pub const CLV_BYTES_PER_PATTERN: u64 = 64;

/// Copy bandwidth in GB/s (bytes read + bytes written per second) over
/// two `array_mib`-MiB arrays: the median of five timed copies after one
/// untimed copy that faults the pages in.
pub fn mem_gbps(array_mib: usize) -> f64 {
    let n = array_mib * (1 << 20) / 8;
    let src: Vec<u64> = (0..n as u64).collect();
    let mut dst = vec![0u64; n];
    dst.copy_from_slice(&src);
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * (n * 8) as f64 / crate::stats::median(&times) / 1e9
}

/// Computed bytes one kernel moves per pattern: CondLikeDown reads two
/// CLVs and writes one, CondLikeRoot reads three and writes one,
/// CondLikeScaler reads one and writes one. Cache hits and the scaler's
/// per-pattern `ln` vector are not counted.
pub fn bytes_per_pattern(kernel: plf_phylo::metrics::Kernel) -> u64 {
    use plf_phylo::metrics::Kernel;
    let clvs = match kernel {
        Kernel::Down => 3,
        Kernel::Root => 4,
        Kernel::Scale => 2,
    };
    clvs * CLV_BYTES_PER_PATTERN
}
