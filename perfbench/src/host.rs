//! Host fingerprint and process memory, stamped on every result record so
//! that figures from different machines or settings are never compared
//! as if they were alike.

use std::fmt::Write as _;

/// What identifies the machine, the kernel dispatch and the code a result
/// was measured with.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU brand string.
    pub cpu: String,
    /// Active SIMD dispatch path (`edd_tensor::kernel::simd_label`).
    pub simd: &'static str,
    /// Active GEMM selector mode (`edd_tensor::kernel::select::gemm_label`).
    pub gemm: &'static str,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Kernel worker threads the tensor layer partitions work over.
    pub kernel_threads: usize,
    /// Every `EDD_*` environment variable, sorted.
    pub edd_env: Vec<(String, String)>,
    /// Git commit of the checkout, when it is a git checkout.
    pub commit: String,
    /// Digest of the library sources the benchmark was built against.
    pub source_digest: &'static str,
}

impl Fingerprint {
    /// Reads the fingerprint of this process and checkout.
    #[must_use]
    pub fn current() -> Fingerprint {
        let mut edd_env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("EDD_"))
            .collect();
        edd_env.sort();
        Fingerprint {
            cpu: cpu_brand(),
            simd: edd_tensor::kernel::simd_label(),
            gemm: edd_tensor::kernel::select::gemm_label(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            kernel_threads: edd_tensor::kernel::pool::num_threads(),
            edd_env,
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            source_digest: env!("PERFBENCH_SOURCE_DIGEST"),
        }
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut env = String::new();
        for (i, (k, v)) in self.edd_env.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(env, "{sep}{}:{}", json_str(k), json_str(v));
        }
        format!(
            "{{\"cpu\":{},\"simd\":{},\"gemm\":{},\"nproc\":{},\"kernel_threads\":{},\
             \"edd_env\":{{{env}}},\"commit\":{},\"source_digest\":{}}}",
            json_str(&self.cpu),
            json_str(self.simd),
            json_str(self.gemm),
            self.nproc,
            self.kernel_threads,
            json_str(&self.commit),
            json_str(self.source_digest),
        )
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// CPU brand string from `cpuid`, or the architecture name elsewhere.
fn cpu_brand() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: `cpuid` exists on every x86-64 CPU; leaf 0x8000_0000
        // reports the highest extended leaf, checked before reading the
        // brand leaves.
        #[allow(unused_unsafe)]
        let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: the leaf is within the range reported above.
                #[allow(unused_unsafe)]
                let r = unsafe { __cpuid(leaf) };
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let brand = String::from_utf8_lossy(&bytes);
            return brand
                .trim_matches(|c: char| c == '\0' || c.is_whitespace())
                .to_owned();
        }
    }
    std::env::consts::ARCH.to_owned()
}

/// Commit of the git checkout in the working directory, if there is one.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_owned())
            .or_else(|| Some(head.to_owned())),
        None => Some(head.to_owned()),
    }
}

/// Peak resident set size of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timeval {
            sec: i64,
            usec: i64,
        }
        #[repr(C)]
        struct Rusage {
            utime: Timeval,
            stime: Timeval,
            maxrss: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_SELF: i32 = 0;
        let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
        // SAFETY: `Rusage` matches the layout of Linux's `struct rusage`
        // on 64-bit targets (two timevals then fourteen longs), the pointer
        // is valid for writes of that size, and `getrusage` writes only
        // within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
        if rc == 0 {
            // SAFETY: zero-initialized and then filled in by a successful
            // `getrusage`; every field is a plain integer.
            let usage = unsafe { usage.assume_init() };
            // Linux reports `ru_maxrss` in KiB.
            return usage.maxrss as f64 / 1024.0;
        }
    }
    0.0
}
