//! Small shared helpers: a seeded generator, order statistics, process
//! memory, and the result's metric map.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: a tiny, fully specified generator, so the workload a seed
/// produces never depends on a library's sampling algorithm.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE7C_0000_0001)
    }

    /// A generator for one named stream of this seed, independent of the
    /// order in which streams are drawn.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
        Rng::new(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Durations of `n` separate calls of `f`, in seconds.
pub fn time_each<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            secs(t)
        })
        .collect()
}

/// Reset this process's `VmHWM` to its current RSS, so that a later
/// `peak_rss_mib("self")` reads the peak of what ran after the reset: the
/// traced run of an in-process workload follows its untraced run.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn to_json(&self) -> J {
        J::Obj(
            self.0
                .iter()
                .map(|(name, (value, unit))| {
                    let entry = J::Obj(vec![
                        ("value".into(), J::Num(*value)),
                        ("unit".into(), J::Str(unit.to_string())),
                    ]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// A JSON value for the benchmark's own output.
pub enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl std::fmt::Display for J {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            J::Num(v) if v.is_finite() => write!(f, "{v:?}"),
            J::Num(_) => f.write_str("null"),
            J::Int(v) => write!(f, "{v}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", J::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Ops attempted and failed, plus a note per failure kind for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: BTreeMap<String, u64>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        let why = why.into();
        if self.notes.len() < 32 || self.notes.contains_key(&why) {
            *self.notes.entry(why).or_default() += 1;
        }
    }

    /// Count a check with the given outcome.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(why());
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub metrics: Metrics,
    /// Layer values the end-to-end run observes on the way (generator
    /// lateness, L2 size, simulator counts).
    pub side: Metrics,
    pub tally: Tally,
    /// Details for the report line.
    pub report: Vec<(String, J)>,
}

/// The end-to-end metrics every workload reports. What each one measures
/// on each workload is tabled in `perfbench/DESIGN.md`.
pub const END_TO_END: [&str; 4] = ["setup_s", "latency_ms", "throughput", "peak_rss_mib"];

impl Outcome {
    pub fn set_end_to_end(&mut self, setup_s: f64, latency_ms: f64, throughput: f64, rss_mib: f64) {
        let m = &mut self.metrics;
        m.set("setup_s", setup_s, "s");
        m.set("latency_ms", latency_ms, "ms");
        m.set("throughput", throughput, "1/s");
        m.set("peak_rss_mib", rss_mib, "MiB");
    }

    /// Put a figure in the report line under its own name.
    pub fn note(&mut self, name: &str, value: f64) {
        self.report.push((name.to_string(), J::Num(value)));
    }
}
