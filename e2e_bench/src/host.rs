//! Host facts recorded with every result: core count, the filesystem
//! that holds the state directory, and this process's memory use.

use std::path::Path;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A `kB` field of `/proc/self/status` (e.g. `VmRSS`), in MiB.
fn status_mb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resident set size now, in MiB (0 where `/proc` is unavailable).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:").unwrap_or(0.0)
}

/// Peak resident set size so far, in MiB (0 where `/proc` is
/// unavailable).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:").unwrap_or(0.0)
}

/// Filesystem type of the mount holding `path` (from
/// `/proc/self/mountinfo`, longest matching mount point), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // fields: id parent dev root mount_point opts ... - fstype source
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            left.split_whitespace().nth(4),
            right.split_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}
