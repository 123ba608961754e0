//! Sweeps over (algorithm × arrival pattern) with the paper's skew
//! calibration rules.

use pap_arrival::{generate, ArrivalPattern, Shape};
use pap_collectives::{CollSpec, CollectiveKind};
use pap_sim::Platform;
use serde::{Deserialize, Serialize};

use crate::harness::{measure, prepare, Backend, BenchConfig, BenchError};
use crate::stats::RunStats;

/// How the maximum process skew of the generated patterns is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SkewPolicy {
    /// A fixed skew in seconds (e.g. derived from an application trace, as
    /// in the Fig. 8 experiments).
    Fixed(f64),
    /// `factor × t̄ᵃ`, where `t̄ᵃ` is the average `NoDelay` runtime over all
    /// algorithms (§III-B; the paper reports the 1.5 factor).
    FactorOfAvg(f64),
    /// Scale each algorithm's pattern to that algorithm's own `NoDelay`
    /// runtime `tᵢ` (§IV-C, the robustness experiments).
    PerAlgorithm,
}

/// One measured cell of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Algorithm ID.
    pub alg: u8,
    /// Pattern name (a shape name or a measured-pattern name).
    pub pattern: String,
    /// The max skew actually applied (seconds).
    pub skew: f64,
    /// Measurement statistics.
    pub stats: RunStats,
}

/// Results of one (collective, message size) sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Message size (bytes, collective convention).
    pub bytes: u64,
    /// Algorithm IDs in sweep order.
    pub algs: Vec<u8>,
    /// Pattern names in sweep order.
    pub patterns: Vec<String>,
    /// All cells (algs × patterns).
    pub cells: Vec<SweepCell>,
}

impl SweepResult {
    /// The cell of (algorithm, pattern), if present.
    pub fn cell(&self, alg: u8, pattern: &str) -> Option<&SweepCell> {
        self.cells.iter().find(|c| c.alg == alg && c.pattern == pattern)
    }

    /// Mean last delay of a cell (the figure metric).
    pub fn mean_last(&self, alg: u8, pattern: &str) -> Option<f64> {
        self.cell(alg, pattern).map(|c| c.stats.mean_last())
    }
}

/// Derive an independent per-run seed from the base seed and the run's
/// position in the grid (SplitMix64 finalizer). A pure function of
/// `(base, index)`, so the parallel fan-out produces byte-identical output
/// to the sequential loop at any thread count.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a measurement under `cfg` comes out the same for every seed: the
/// analytical model, or the simulator with no noise, perfect clocks and no
/// faults. Such a measurement is taken once and reused wherever it recurs.
fn seed_independent(platform: &Platform, cfg: &BenchConfig) -> bool {
    cfg.backend == Backend::Model
        || (cfg.noise.unwrap_or(platform.default_noise).is_none()
            && !cfg.clock_sync
            && cfg.faults.is_none())
}

/// Every algorithm's `NoDelay` measurement under `cfg`, in `algs` order.
/// The per-algorithm runs are independent and fan out over
/// [`pap_parallel::par_map`].
fn no_delay_stats(
    platform: &Platform,
    kind: CollectiveKind,
    algs: &[u8],
    bytes: u64,
    cfg: &BenchConfig,
) -> Result<Vec<RunStats>, BenchError> {
    let nodelay = generate(Shape::NoDelay, platform.ranks, 0.0, 0);
    pap_parallel::par_map(algs, |_, &alg| measure(platform, &CollSpec::new(kind, alg, bytes), &nodelay, cfg))
        .into_iter()
        .collect()
}

/// Mean `NoDelay` runtime over a calibration run.
fn avg_runtime(stats: &[RunStats]) -> f64 {
    let mut sum = 0.0;
    for s in stats {
        sum += s.mean_last();
    }
    sum / stats.len() as f64
}

/// §III-B: the average `NoDelay` runtime `t̄ᵃ` over a set of algorithms,
/// used to size artificial skews.
pub fn calibrate_avg_runtime(
    platform: &Platform,
    kind: CollectiveKind,
    algs: &[u8],
    bytes: u64,
    cfg: &BenchConfig,
) -> Result<f64, BenchError> {
    Ok(avg_runtime(&no_delay_stats(platform, kind, algs, bytes, cfg)?))
}

/// One algorithm's `NoDelay` mean last-delay runtime `tᵢ`.
pub fn no_delay_runtime(
    platform: &Platform,
    kind: CollectiveKind,
    alg: u8,
    bytes: u64,
    cfg: &BenchConfig,
) -> Result<f64, BenchError> {
    let nodelay = generate(Shape::NoDelay, platform.ranks, 0.0, 0);
    Ok(measure(platform, &CollSpec::new(kind, alg, bytes), &nodelay, cfg)?.mean_last())
}

/// Run the full (algorithms × shapes) sweep for one collective and message
/// size, with patterns sized by `policy`. Extra named patterns (e.g. the
/// traced FT-Scenario) can be appended via `extra_patterns`; their delays
/// are used as-is.
///
/// Each algorithm is one row: it is prepared (built and compiled) once and
/// then measured under every pattern. Rows fan out over
/// [`pap_parallel::par_map`]; every cell derives its own seed from (base
/// seed, grid index), so the result is byte-identical at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    platform: &Platform,
    kind: CollectiveKind,
    algs: &[u8],
    shapes: &[Shape],
    bytes: u64,
    policy: SkewPolicy,
    extra_patterns: &[ArrivalPattern],
    cfg: &BenchConfig,
) -> Result<SweepResult, BenchError> {
    let p = platform.ranks;

    // Calibrate skews from every algorithm's NoDelay runtime (§III-B,
    // §IV-C).
    let calibration = match policy {
        SkewPolicy::Fixed(_) => Vec::new(),
        _ => no_delay_stats(platform, kind, algs, bytes, cfg)?,
    };
    let per_alg_skew: Vec<f64> = match policy {
        SkewPolicy::Fixed(s) => vec![s; algs.len()],
        SkewPolicy::FactorOfAvg(f) => vec![f * avg_runtime(&calibration); algs.len()],
        SkewPolicy::PerAlgorithm => calibration.iter().map(RunStats::mean_last).collect(),
    };
    // When the measurement does not depend on the seed, calibration already
    // ran each row's NoDelay cell.
    let reuse_nodelay = !calibration.is_empty() && seed_independent(platform, cfg);

    // Generate each distinct skew's shape patterns once and share them
    // across rows: under Fixed/FactorOfAvg every algorithm faces the same
    // skew. Patterns come from the *base* seed: every algorithm must face
    // the same pattern.
    let mut set_skew_bits: Vec<u64> = Vec::new();
    let mut pattern_sets: Vec<Vec<ArrivalPattern>> = Vec::new();
    let set_of: Vec<usize> = per_alg_skew
        .iter()
        .map(|&skew| {
            let bits = skew.to_bits();
            if let Some(i) = set_skew_bits.iter().position(|&b| b == bits) {
                return i;
            }
            set_skew_bits.push(bits);
            pattern_sets.push(
                shapes
                    .iter()
                    .map(|&shape| {
                        let s = if shape == Shape::NoDelay { 0.0 } else { skew };
                        generate(shape, p, s, cfg.seed)
                    })
                    .collect(),
            );
            pattern_sets.len() - 1
        })
        .collect();

    let mut pattern_names: Vec<String> = shapes.iter().map(|s| s.name().to_string()).collect();
    pattern_names.extend(extra_patterns.iter().map(|e| e.name.clone()));
    let row_len = pattern_names.len();

    let rows = pap_parallel::par_map(algs, |ai, &alg| {
        let mut prepared = prepare(platform, &CollSpec::new(kind, alg, bytes), cfg)?;
        let patterns = pattern_sets[set_of[ai]].iter().chain(extra_patterns);
        let mut cells = Vec::with_capacity(row_len);
        for (ci, (pattern, name)) in patterns.zip(&pattern_names).enumerate() {
            let stats = if reuse_nodelay && shapes.get(ci) == Some(&Shape::NoDelay) {
                calibration[ai].clone()
            } else {
                let run_cfg = cfg.clone().with_seed(derive_seed(cfg.seed, (ai * row_len + ci) as u64));
                let stats = prepared.measure(platform, pattern, &run_cfg)?;
                // Stream completed spans out of the bounded rings between
                // cells; a long sweep would otherwise overflow them before a
                // final drain. No-op unless a span stream is installed.
                pap_obs::pump_spans();
                stats
            };
            cells.push(SweepCell { alg, pattern: name.clone(), skew: pattern.max_skew(), stats });
        }
        Ok::<_, BenchError>(cells)
    });
    let mut cells = Vec::with_capacity(algs.len() * row_len);
    for row in rows {
        cells.extend(row?);
    }

    Ok(SweepResult { kind, bytes, algs: algs.to_vec(), patterns: pattern_names, cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive_and_scales_with_size() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let algs = [1u8, 2, 3];
        let small = calibrate_avg_runtime(&platform, CollectiveKind::Reduce, &algs, 64, &cfg).unwrap();
        let large = calibrate_avg_runtime(&platform, CollectiveKind::Reduce, &algs, 1 << 20, &cfg).unwrap();
        assert!(small > 0.0);
        assert!(large > small * 5.0, "1 MiB ({large}) should dwarf 64 B ({small})");
    }

    #[test]
    fn sweep_produces_full_grid() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        let shapes = [Shape::NoDelay, Shape::Ascending, Shape::LastDelayed];
        let res = sweep(
            &platform,
            CollectiveKind::Alltoall,
            &[1, 2, 3],
            &shapes,
            128,
            SkewPolicy::FactorOfAvg(1.5),
            &[],
            &cfg,
        )
        .unwrap();
        assert_eq!(res.cells.len(), 9);
        assert_eq!(res.patterns.len(), 3);
        // The row fan-out must preserve the sequential grid order:
        // algorithm-major, pattern-minor.
        let order: Vec<(u8, &str)> = res.cells.iter().map(|c| (c.alg, c.pattern.as_str())).collect();
        let expected: Vec<(u8, &str)> =
            [1u8, 2, 3].iter().flat_map(|&a| shapes.iter().map(move |s| (a, s.name()))).collect();
        assert_eq!(order, expected);
        assert!(res.mean_last(3, "ascending").unwrap() > 0.0);
        assert!(res.cell(3, "bogus").is_none());
        // Non-NoDelay cells carry the calibrated skew.
        let skew = res.cell(1, "ascending").unwrap().skew;
        assert!(skew > 0.0);
        assert_eq!(res.cell(2, "ascending").unwrap().skew, skew, "FactorOfAvg is shared");
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        // Real-machine config: noise and clock generation consume the seed,
        // so this exercises the per-cell seed derivation rather than
        // trivially-equal noise-free runs. The serialized result must not
        // change with the thread count.
        let platform = Platform::hydra(8);
        let cfg = BenchConfig::real_machine(2).with_seed(0x5EED);
        let ft = ArrivalPattern::new(
            "ft_scenario",
            vec![0.0, 1e-4, 2e-4, 0.5e-4, 0.0, 3e-5, 0.0, 1e-5],
        );
        let run = || {
            let res = sweep(
                &platform,
                CollectiveKind::Reduce,
                &[1, 5, 6],
                &[Shape::NoDelay, Shape::Ascending, Shape::Random],
                1024,
                SkewPolicy::FactorOfAvg(1.5),
                std::slice::from_ref(&ft),
                &cfg,
            )
            .unwrap();
            serde_json::to_string(&res).unwrap()
        };
        let before = pap_parallel::threads();
        pap_parallel::set_threads(1);
        let sequential = run();
        for n in [2, 3, 8] {
            pap_parallel::set_threads(n);
            assert_eq!(run(), sequential, "thread count {n} changed the serialized sweep");
        }
        pap_parallel::set_threads(before);
    }

    #[test]
    fn per_algorithm_policy_gives_each_its_own_skew() {
        let platform = Platform::simcluster(8);
        let cfg = BenchConfig::simulation();
        // Linear (1) and Bruck (3) have very different NoDelay runtimes at
        // this size, so their robustness skews must differ.
        let res = sweep(
            &platform,
            CollectiveKind::Alltoall,
            &[1, 3],
            &[Shape::Ascending],
            16 * 1024,
            SkewPolicy::PerAlgorithm,
            &[],
            &cfg,
        )
        .unwrap();
        let s1 = res.cell(1, "ascending").unwrap().skew;
        let s3 = res.cell(3, "ascending").unwrap().skew;
        assert_ne!(s1, s3);
    }

    #[test]
    fn extra_patterns_are_measured_verbatim() {
        let platform = Platform::simcluster(4);
        let cfg = BenchConfig::simulation();
        let ft = ArrivalPattern::new("ft_scenario", vec![0.0, 1e-4, 2e-4, 0.5e-4]);
        let res = sweep(
            &platform,
            CollectiveKind::Reduce,
            &[5],
            &[Shape::NoDelay],
            256,
            SkewPolicy::Fixed(1e-4),
            std::slice::from_ref(&ft),
            &cfg,
        )
        .unwrap();
        assert_eq!(res.patterns, vec!["no_delay".to_string(), "ft_scenario".to_string()]);
        assert_eq!(res.cell(5, "ft_scenario").unwrap().skew, ft.max_skew());
    }
}
