//! The host record: processor count, peak memory, copy bandwidth.

use std::time::Instant;

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable. Workloads read it once, right
/// after their first repetition, so that allocator reuse in later
/// repetitions, the correctness gates and the probes do not move it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Copy bandwidth in GB/s (bytes read plus bytes written, 10^9 B/s):
/// `threads` workers each copy their share of a 64 MiB buffer into
/// another; the median of several passes after one warm-up pass.
pub fn stream_gbps(threads: usize, smoke: bool) -> f64 {
    let len = if smoke { 1 << 20 } else { 8 << 20 }; // f64s per buffer
    let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut secs = Vec::new();
    for pass in 0..8 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for (d, sr) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(sr));
            }
        });
        if pass > 0 {
            secs.push(t.elapsed().as_secs_f64());
        }
        std::hint::black_box(&dst);
    }
    let bytes = 2.0 * 8.0 * len as f64;
    bytes / crate::median(&secs) / 1e9
}
