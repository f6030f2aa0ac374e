//! Order statistics, the percentile rule, and output digests.

use vs_telemetry::RunArtifact;

/// Percentile ranks the benchmark reports, highest first.
const TAIL_RANKS: [u32; 4] = [99, 95, 90, 75];

/// The highest percentile with at least ten samples beyond it, or `None`
/// when only the median is meaningful (n < 40).
pub fn tail_rank(n: usize) -> Option<u32> {
    TAIL_RANKS
        .into_iter()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
}

/// "`label` p50 X ms, pNN Y ms (n = N)" for latencies in milliseconds,
/// with the tail rank `tail_rank` allows.
pub fn percentile_line(label: &str, ms: &[f64]) -> String {
    let at = |q: f64| quantile(ms, q).unwrap_or(f64::NAN);
    let mut line = format!("{label} p50 {:.3} ms", at(0.5));
    if let Some(p) = tail_rank(ms.len()) {
        line += &format!(", p{p} {:.3} ms", at(f64::from(p) / 100.0));
    }
    line + &format!(" (n = {})", ms.len())
}

/// The `q`-quantile (0..=1) of `values` with linear interpolation between
/// order statistics; `None` for an empty set.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// First and third quartiles with Python's `statistics.quantiles(n=4)`
/// (exclusive) method, so ledger spreads match the acceptance check.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return sorted.first().map(|&v| (v, v));
    }
    // Python's exclusive method, step for step: position i·(n+1)/4
    // (1-based), index clamped to 1..n-1, interpolation left unclamped.
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// FNV-1a over byte chunks, as 16 hex digits (the repository's checksum
/// function, folded over several inputs in order).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// An artifact's JSONL with every wall-time event dropped: the part of the
/// output that must not change when only the simulator's speed does.
pub fn deterministic_jsonl(text: &str) -> Result<String, String> {
    let mut artifact = RunArtifact::parse_jsonl(text).map_err(|e| e.to_string())?;
    artifact.events.retain(|e| !e.is_wall_time());
    Ok(artifact.to_jsonl())
}

/// SplitMix64, the benchmark's own input generator: inputs depend on the
/// seed alone, never on the program's random number code.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0; the modulo bias is below 2⁻⁵⁰
    /// for the table sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform value in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(40), Some(75));
        assert_eq!(tail_rank(240), Some(95));
        assert_eq!(tail_rank(1000), Some(99));
        assert_eq!(tail_rank(100), Some(90));
        for n in 0..20 {
            assert_eq!(tail_rank(n), None, "n = {n}: median only");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn wall_time_events_do_not_change_the_digest() {
        let with = concat!(
            "{\"type\":\"manifest\",\"schema_version\":1,\"benchmark\":\"t\",\"pds\":\"p\",",
            "\"seed\":1,\"workload_scale\":0.04,\"max_cycles\":10,\"sample_stride\":0,",
            "\"crate_versions\":{}}\n",
            "{\"type\":\"stages\",\"stages\":[{\"stage\":\"experiment\",\"total_s\":0.5,\"count\":1}]}\n",
        );
        let without = with.lines().next().unwrap().to_string() + "\n";
        let slower = with.replace("0.5", "7.25");
        let a = deterministic_jsonl(with).unwrap();
        assert_eq!(a, deterministic_jsonl(&without).unwrap());
        assert_eq!(a, deterministic_jsonl(&slower).unwrap());
        let digest = |s: &str| {
            let mut d = Digest::default();
            d.update(s.as_bytes());
            d.hex()
        };
        assert_eq!(digest(&a), digest(&deterministic_jsonl(&slower).unwrap()));
        assert_ne!(digest(&a), digest(with));
    }

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..64).map(|_| r.below(10)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
        assert!(draw(1).iter().all(|&i| i < 10));
        let mut r = SplitMix64::new(3);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
