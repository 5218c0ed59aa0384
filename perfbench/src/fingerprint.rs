//! Machine fingerprint attached to every result: numbers from different
//! machines must never be compared without notice.

use bmf_core::options::{FitOptions, THREADS_ENV};

/// What the result depends on besides the code.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo` ("unknown" elsewhere).
    pub cpu_model: String,
    /// The SIMD-related CPU flags from `/proc/cpuinfo`.
    pub simd_flags: Vec<String>,
    /// The `BMF_THREADS` environment variable, if set.
    pub bmf_threads: Option<String>,
    /// Worker pool size a batch fit actually uses here.
    pub pool_threads: usize,
}

const SIMD_PREFIXES: [&str; 7] = ["sse", "ssse", "avx", "fma", "f16c", "amx", "neon"];

impl Machine {
    /// Reads the fingerprint of this machine.
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        let mut simd_flags: Vec<String> = field("flags")
            .or_else(|| field("Features"))
            .unwrap_or_default()
            .split_whitespace()
            .filter(|f| SIMD_PREFIXES.iter().any(|p| f.starts_with(p)))
            .map(str::to_string)
            .collect();
        simd_flags.sort();
        simd_flags.dedup();
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: field("model name").unwrap_or_else(|| "unknown".to_string()),
            simd_flags,
            bmf_threads: std::env::var(THREADS_ENV).ok(),
            pool_threads: FitOptions::new().effective_threads(),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        let flags: Vec<String> = self.simd_flags.iter().map(|f| format!("\"{f}\"")).collect();
        let threads = match &self.bmf_threads {
            Some(t) => format!("\"{}\"", escape(t)),
            None => "null".to_string(),
        };
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"simd_flags\":[{}],\"bmf_threads\":{threads},\"pool_threads\":{}}}",
            self.nproc,
            escape(&self.cpu_model),
            flags.join(","),
            self.pool_threads
        )
    }
}

/// `(steal, total)` CPU ticks summed over all CPUs since boot, from
/// `/proc/stat`; `None` where that file is missing. Steal is time the
/// hypervisor ran something else while this machine's CPUs were ready.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings (0 when unknown).
pub fn steal_frac(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Escapes a string for a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}
