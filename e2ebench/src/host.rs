//! Readings of the host and small statistics helpers.

use std::fs;

/// Cumulative CPU jiffies from the `cpu` line of `/proc/stat`:
/// `(steal, total)`, where total counts user, nice, system, idle, iowait,
/// irq, softirq and steal (guest time is already inside user).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.len() == 8).then(|| (v[7], v.iter().sum()))
}

/// Share of all CPU time the hypervisor stole between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    let total = t1.checked_sub(t0)?;
    (total > 0).then(|| s1.saturating_sub(s0) as f64 / total as f64)
}

/// Clock ticks per second of the `/proc` CPU counters. Linux reports them
/// in USER_HZ, which is 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// CPU time this process has used so far (all threads, user + system),
/// in seconds, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line; `rest`
    // starts at field 3.
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Linear-interpolated quantile of sorted samples (`p` in 0..=1).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let x = p * (n - 1) as f64;
            let lo = x.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (x - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64: derives independent RNG seeds from the workload seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_linear_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
