//! The process heap: how freed memory is kept, and peak resident memory.
//!
//! A run repeats the same calls for many seconds. With glibc's defaults
//! every fleet_e2e call hands its large blocks back to the kernel and
//! faults them in again, about 100 000 minor faults a second, and the
//! kernel time those cost moved fleet_e2e's throughput by 11% between
//! identical runs against 4% with freed memory kept. The benchmark keeps
//! it, as a long-running server's warm heap would; allocation itself is
//! still paid on every call.

/// glibc `mallopt` parameters.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod ffi {
    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_MAX: i32 = -4;
    pub const M_ARENA_MAX: i32 = -8;
    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
}

/// Keeps freed heap memory in the process: no trimming, no blocks
/// served by their own mapping, and one arena for all threads, so a
/// block one worker frees is reused by whichever worker allocates next.
/// With an arena per worker, which arena grew depended on which worker
/// decoded which GOP, and learner_churn's peak memory moved by 5% between
/// runs. Call before any thread starts.
pub fn keep_freed() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: mallopt only changes allocator tuning; it runs before
        // the process has started a thread.
        let ok = unsafe {
            ffi::mallopt(ffi::M_TRIM_THRESHOLD, i32::MAX) == 1
                && ffi::mallopt(ffi::M_MMAP_MAX, 0) == 1
                && ffi::mallopt(ffi::M_ARENA_MAX, 1) == 1
        };
        if !ok {
            eprintln!("mallopt refused: freed heap memory goes back to the kernel");
        }
    }
}

/// Starts a new peak for [`peak_rss_mb`]: returns the free heap memory
/// set-up left behind to the kernel, then resets the kernel's resident
/// high-water mark, so the peak is that of the calls made from here on
/// with the inputs they hold. Returns false where either is unsupported;
/// the peak then includes set-up.
pub fn restart_peak() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory.
    unsafe {
        ffi::malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process since the last
/// [`restart_peak`], in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
