//! The machine context recorded with every result: numbers taken on
//! different CPUs, core counts, compilers or ChaCha kernels are not
//! comparable, and without this line a drift between two runs cannot be
//! explained from the output alone.

/// CPU model, as the kernel reports it.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().into())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The ChaCha kernel the `rand_chacha` shim dispatches to. The shim does not
/// expose its choice, so this repeats its detection order: AVX-512F, then
/// AVX2, then the portable kernel.
pub fn chacha_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// One line describing the machine and the build that produced a result.
pub fn describe() -> String {
    format!(
        "machine: cpu=\"{}\" nproc={} chacha_kernel={} rustc=\"{}\" git_rev={} source_digest={}",
        cpu_model(),
        nproc(),
        chacha_kernel(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_SOURCE_DIGEST"),
    )
}
