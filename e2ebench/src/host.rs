//! Host readings: process CPU and memory from `/proc`, CPU steal, a fixed
//! CPU probe, and the identity of the code under test.

use std::path::Path;
use std::time::Instant;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 on
/// every architecture the kernel exports to user space.
const USER_HZ: f64 = 100.0;

/// CPU time (user + system) a process has used so far, in milliseconds.
pub fn process_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of the file, counted from the state (field 3).
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ * 1000.0)
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cumulative `(steal, total)` jiffies over all CPUs from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = values.iter().take(8).sum();
    Some((*values.get(7)?, total))
}

/// CPUs the host has online, counted from `/proc/stat`; unlike
/// `available_parallelism` it ignores this process's CPU affinity.
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count()
}

/// The CPUs this process may run on, as the kernel lists them.
pub fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(String::new, |v| v.trim().to_string())
}

/// Steal as a share of all CPU time between two readings, in percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            (s1.saturating_sub(s0)) as f64 / (t1 - t0) as f64 * 100.0
        }
        _ => 0.0,
    }
}

/// A fixed CPU loop in the benchmark's own code, in milliseconds: the
/// median of five repetitions. Compared across runs it tells a slower host
/// from slower code under test.
pub fn probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Median round trip, in microseconds, of a message bounced between two
/// threads over channels: two thread wake-ups per round trip. Wake-up cost
/// is what the small-request path is most sensitive to, and it moves with
/// host contention that neither steal nor the CPU loop shows.
pub fn wakeup_us() -> f64 {
    let (to_peer, peer_rx) = std::sync::mpsc::channel::<Instant>();
    let (to_main, main_rx) = std::sync::mpsc::channel::<Instant>();
    let mut rounds: Vec<f64> = std::thread::scope(|scope| {
        scope.spawn(move || {
            for t in peer_rx {
                if to_main.send(t).is_err() {
                    break;
                }
            }
        });
        let rounds = (0..2000)
            .map(|_| {
                to_peer.send(Instant::now()).expect("peer is running");
                let sent = main_rx.recv().expect("peer answers");
                sent.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        drop(to_peer);
        rounds
    });
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

/// The git commit of the checkout when it is a repository, otherwise an
/// FNV-1a fingerprint of the sources (`crates/**`, manifests and lock file)
/// so two runs can still be told apart by the code they built.
pub fn code_identity(root: &Path) -> String {
    if root.join(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"])
            .output()
        {
            if out.status.success() {
                return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
            }
        }
    }
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    for name in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(name));
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv:{hash:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(process_cpu_ms(pid).is_some());
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
        let (steal, total) = cpu_jiffies().expect("/proc/stat is readable");
        assert!(steal <= total);
        assert!(online_cpus() >= 1);
        assert!(!cpus_allowed().is_empty());
    }

    #[test]
    fn probes_measure_positive_times() {
        assert!(probe_ms() > 0.0);
        assert!(wakeup_us() > 0.0);
    }

    #[test]
    fn steal_share_is_a_percentage() {
        assert_eq!(steal_pct(Some((10, 100)), Some((20, 300))), 5.0);
        assert_eq!(steal_pct(None, Some((20, 300))), 0.0);
    }
}
