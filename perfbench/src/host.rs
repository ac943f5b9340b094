//! The host shape every result is recorded with.

use std::path::Path;

#[derive(Debug, Clone)]
pub struct HostShape {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// CPUs online on the host.
    pub online_cpus: usize,
    /// CPUs in this process's affinity mask.
    pub affinity_cpus: usize,
    /// The git commit of the checkout, or `unknown` outside a git tree.
    pub commit: String,
}

impl HostShape {
    pub fn detect() -> HostShape {
        HostShape {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            online_cpus: online_cpus(),
            affinity_cpus: affinity_cpus(),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// True when the affinity mask is narrower than the host.
    pub fn pinned(&self) -> bool {
        self.affinity_cpus < self.online_cpus
    }

    pub fn line(&self) -> String {
        format!(
            "available_parallelism={} online_cpus={} affinity_cpus={} pinned={} commit={}",
            self.available_parallelism,
            self.online_cpus,
            self.affinity_cpus,
            self.pinned(),
            self.commit
        )
    }
}

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sysconf(name: i32) -> i64;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    }
    /// glibc's `_SC_NPROCESSORS_ONLN`.
    pub const SC_NPROCESSORS_ONLN: i32 = 84;
}

#[cfg(target_os = "linux")]
fn online_cpus() -> usize {
    // SAFETY: sysconf takes an integer name and has no memory effects.
    let n = unsafe { sys::sysconf(sys::SC_NPROCESSORS_ONLN) };
    if n > 0 {
        n as usize
    } else {
        affinity_cpus()
    }
}

#[cfg(target_os = "linux")]
fn affinity_cpus() -> usize {
    let mut mask = [0u8; 128];
    // SAFETY: the kernel writes at most `mask.len()` bytes into `mask`,
    // which outlives the call; pid 0 is the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) };
    if rc < 0 {
        return std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    mask.iter().map(|b| b.count_ones() as usize).sum()
}

#[cfg(not(target_os = "linux"))]
fn online_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(not(target_os = "linux"))]
fn affinity_cpus() -> usize {
    online_cpus()
}

/// Resolves `HEAD` from the `.git` directory under `root`, without running
/// git: a detached hash, a loose ref, or an entry in `packed-refs`.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(name)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, r) = l.split_once(' ')?;
        (r == name).then(|| hash.to_string())
    })
}
