//! The benchmark's arithmetic: medians, the mean of the faster half,
//! pooled percentiles with the
//! "ten samples beyond it" rule, the FNV-1a64 digest, and `VmHWM`
//! parsing.

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Mean of the smaller half of `values` (the middle value included
/// for an odd count). `None` when empty.
pub fn faster_half_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = &v[..v.len().div_ceil(2)];
    Some(half.iter().sum::<f64>() / half.len() as f64)
}

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of ascending `sorted`
/// samples. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// [`percentile`], but only when at least [`MIN_SAMPLES_BEYOND`]
/// samples lie strictly beyond the chosen rank: a p99 over 300 samples
/// is the third-largest value and says nothing stable about the tail.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let beyond = sorted.len().saturating_sub(rank.max(1));
    if beyond < MIN_SAMPLES_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// Streaming FNV-1a64.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Mixes `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one little-endian word in.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a64 of one byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn faster_half_mean_drops_the_slower_half() {
        assert_eq!(faster_half_mean(&[]), None);
        assert_eq!(faster_half_mean(&[7.0]), Some(7.0));
        assert_eq!(faster_half_mean(&[9.0, 1.0, 3.0, 8.0]), Some(2.0));
        assert_eq!(faster_half_mean(&[9.0, 1.0, 5.0, 3.0, 8.0]), Some(3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v[..1], 95.0), Some(1.0));
        assert_eq!(percentile(&[], 95.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p95 of 200 samples is rank 190: exactly ten beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
        assert_eq!(tail_percentile(&v[..199], 95.0), None);
        // p99 needs a thousand.
        assert_eq!(tail_percentile(&v, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t   99 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
    }
}
