//! Serving inputs made from the seed, and the offline oracle every served
//! answer is checked against.

use std::collections::HashMap;

use pap_arrival::{classify_delays, generate, Shape};
use pap_calibrate::{synthesize_probe, Probe, ProbeConfig};
use pap_collectives::registry::experiment_ids;
use pap_collectives::CollectiveKind;
use pap_core::{select, tune_machine, BenchMatrix, SelectionPolicy, TunePlan};
use pap_microbench::{sweep, Backend, BenchConfig, SkewPolicy};
use pap_service::store::policy_label;
use pap_service::{
    decode_reply, encode_frame, CalibrateRequest, QueryRequest, Reply, Request, RequestEnvelope,
    Tier, PROTO_VERSION,
};
use pap_sim::{MachineId, Platform};

use crate::util::{Rng, Tally};

/// Rank count `papd` tunes at startup and warm keys query.
pub const WARM_RANKS: usize = 256;
/// Distinct (collective, bytes) warm keys: about 4× papd's default L1
/// capacity of 1024 answers.
pub const POPULATION: usize = 4096;
/// Share of warm queries that carry per-rank arrival samples.
pub const SAMPLE_SHARE: f64 = 0.25;
/// Distinct arrival-sample vectors per run.
const SAMPLE_POOL: usize = 128;
/// Rank count calibration frames pre-tune their published grid at.
pub const CALIBRATE_RANKS: usize = 32;

/// papd's flags: tune at 256 ranks on startup, no background refinement
/// (its sim re-sweeps would take the second CPU on a timing-dependent
/// schedule; tune_sim measures the same sweep).
pub const PAPD_ARGS: [&str; 4] = ["--ranks", "256", "--refine-threads", "0"];

pub fn request_frame(id: u64, req: Request) -> String {
    encode_frame(&RequestEnvelope {
        v: PROTO_VERSION,
        id,
        req,
    })
}

/// The warm key population with skewed (Zipf, s = 1) popularity, plus a
/// pool of jittered arrival samples drawn from the shape prototypes.
pub struct WarmKeys {
    keys: Vec<(CollectiveKind, u64)>,
    cdf: Vec<f64>,
    samples: Vec<Vec<f64>>,
}

impl WarmKeys {
    pub fn new(seed: u64) -> WarmKeys {
        let mut rng = Rng::stream(seed, "warm-keys");
        let per_kind = POPULATION / CollectiveKind::PAPER.len();
        let mut keys = Vec::with_capacity(POPULATION);
        for kind in CollectiveKind::PAPER {
            // The tuned sizes are in the population, so exact L2 hits occur
            // next to nearest-size ones.
            let mut sizes: Vec<u64> = TunePlan::default().sizes;
            while sizes.len() < per_kind {
                let b = 2f64.powf(rng.unit() * 22.0).round().max(1.0) as u64;
                if !sizes.contains(&b) {
                    sizes.push(b);
                }
            }
            keys.extend(sizes.into_iter().map(|b| (kind, b)));
        }
        rng.shuffle(&mut keys);
        let mut cdf = Vec::with_capacity(keys.len());
        let mut acc = 0.0;
        for rank in 1..=keys.len() {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut srng = Rng::stream(seed, "warm-samples");
        let samples = (0..SAMPLE_POOL)
            .map(|i| {
                let shape = Shape::SUITE[srng.below(Shape::SUITE.len())];
                let skew = 1e-5 * (1.0 + 99.0 * srng.unit());
                let base = generate(shape, WARM_RANKS, skew, seed ^ i as u64);
                base.delays
                    .iter()
                    .map(|d| d + skew * 0.05 * srng.unit())
                    .collect()
            })
            .collect();
        WarmKeys { keys, cdf, samples }
    }

    /// `n` warm query frames with ids from `first_id`, drawn from the named
    /// stream of the seed.
    pub fn frames(&self, seed: u64, stream: &str, first_id: u64, n: usize) -> WarmBatch {
        let mut rng = Rng::stream(seed, stream);
        let asks: Vec<WarmAsk> = (0..n)
            .map(|i| {
                let u = rng.unit();
                let k = self
                    .cdf
                    .partition_point(|&c| c < u)
                    .min(self.keys.len() - 1);
                let (kind, bytes) = self.keys[k];
                let sample = (rng.unit() < SAMPLE_SHARE).then(|| rng.below(self.samples.len()));
                WarmAsk {
                    id: first_id + i as u64,
                    kind,
                    bytes,
                    sample,
                }
            })
            .collect();
        let lines = asks
            .iter()
            .map(|a| request_frame(a.id, Request::Query(self.query(a))))
            .collect();
        WarmBatch { lines, asks }
    }

    pub fn query(&self, a: &WarmAsk) -> QueryRequest {
        QueryRequest {
            machine: "simcluster".into(),
            collective: a.kind,
            bytes: a.bytes,
            ranks: WARM_RANKS,
            arrivals: a.sample.map(|i| self.samples[i].clone()),
        }
    }
}

/// What one warm frame asks: kept beside the encoded frames so answers
/// are checked without decoding the frames again.
#[derive(Clone, Copy)]
pub struct WarmAsk {
    pub id: u64,
    pub kind: CollectiveKind,
    pub bytes: u64,
    /// Index into the run's pool of arrival-sample vectors.
    pub sample: Option<usize>,
}

/// Encoded warm frames and what each asks.
pub struct WarmBatch {
    pub lines: Vec<String>,
    pub asks: Vec<WarmAsk>,
}

/// One never-seen `(machine, collective, ranks)` cell.
#[derive(Clone)]
pub struct ColdCell {
    pub machine: MachineId,
    pub kind: CollectiveKind,
    pub ranks: usize,
    pub bytes: u64,
}

impl ColdCell {
    pub fn query(&self) -> QueryRequest {
        QueryRequest {
            machine: self.machine.name().to_string(),
            collective: self.kind,
            bytes: self.bytes,
            ranks: self.ranks,
            arrivals: None,
        }
    }
}

/// `n` distinct cold cells: the four presets and the paper's three
/// collectives in equal shares, ranks stratified over `[2, 255]` so every
/// seed gets the same cost mix, in a seeded order. No cell shares
/// (machine, collective, ranks) with another or with papd's startup grid
/// at 256 ranks, so none can be answered from a near-size L2 cell.
pub fn cold_cells(seed: u64, n: usize) -> Vec<ColdCell> {
    let mut rng = Rng::stream(seed, "cold-cells");
    let groups: Vec<(MachineId, CollectiveKind)> = MachineId::ALL
        .iter()
        .flat_map(|&m| CollectiveKind::PAPER.map(|k| (m, k)))
        .collect();
    let per_group = n.div_ceil(groups.len());
    let sizes = TunePlan::default().sizes;
    let mut cells = Vec::with_capacity(per_group * groups.len());
    for &(machine, kind) in &groups {
        let width = 254.0 / per_group as f64;
        for s in 0..per_group {
            let lo = 2 + (s as f64 * width) as usize;
            let hi = (2 + ((s + 1) as f64 * width) as usize).clamp(lo + 1, 256);
            let ranks = lo + rng.below(hi - lo);
            let bytes = sizes[rng.below(sizes.len())];
            cells.push(ColdCell {
                machine,
                kind,
                ranks,
                bytes,
            });
        }
    }
    rng.shuffle(&mut cells);
    cells.truncate(n);
    cells
}

/// A calibration frame's probe, synthesized from a preset.
pub fn probe(seed: u64, i: usize) -> Result<(String, Probe), String> {
    let machine = MachineId::ALL[i % MachineId::ALL.len()];
    let name = format!("bench{i}");
    let cfg = ProbeConfig {
        seed: seed ^ (0xCA11 + i as u64),
        ..ProbeConfig::default()
    };
    Ok((name.clone(), synthesize_probe(machine, &name, &cfg)?))
}

pub fn calibrate_frame(id: u64, name: &str, probe: &Probe) -> String {
    request_frame(
        id,
        Request::Calibrate(CalibrateRequest {
            name: name.to_string(),
            ranks: CALIBRATE_RANKS,
            probe: probe.clone(),
        }),
    )
}

/// The offline evidence for papd's startup grid: the same
/// `tune_machine` call papd makes, run in this process.
pub struct Oracle {
    cells: HashMap<(CollectiveKind, u64), BenchMatrix>,
}

/// What a query's answer must say.
pub struct Expected {
    pub alg: u8,
    pub policy: String,
    pub pattern: String,
    pub evidence_bytes: u64,
}

impl Oracle {
    pub fn new() -> Result<Oracle, String> {
        let platform = Platform::simcluster(WARM_RANKS);
        let bench = BenchConfig::simulation().with_backend(Backend::Model);
        let (_, records) = tune_machine(&platform, &TunePlan::default(), &bench)?;
        let cells = records
            .into_iter()
            .map(|r| ((r.entry.kind, r.entry.bytes), r.matrix))
            .collect();
        Ok(Oracle { cells })
    }

    /// The evidence cell a warm query resolves against: exact size, else
    /// the nearest tuned size in log space.
    pub fn evidence(&self, kind: CollectiveKind, bytes: u64) -> (u64, &BenchMatrix) {
        let dist = |b: u64| ((b.max(1) as f64).ln() - (bytes.max(1) as f64).ln()).abs();
        let (&(_, b), m) = self
            .cells
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .min_by(|a, b| dist(a.0 .1).total_cmp(&dist(b.0 .1)))
            .expect("startup grid covers every paper collective");
        (b, m)
    }

    pub fn expect(&self, q: &QueryRequest) -> Result<Expected, String> {
        let (policy, pattern) = policy_for(q.arrivals.as_deref());
        let (evidence_bytes, matrix) = self.evidence(q.collective, q.bytes);
        Ok(Expected {
            alg: select(matrix, &policy)?,
            policy: policy_label(&policy),
            pattern,
            evidence_bytes,
        })
    }
}

/// The policy papd applies: robust without samples; with samples, the
/// classified pattern's winner (the no-delay winner for synchronized
/// arrivals).
pub fn policy_for(arrivals: Option<&[f64]>) -> (SelectionPolicy, String) {
    match arrivals {
        None => (SelectionPolicy::robust(), Shape::NoDelay.name().to_string()),
        Some(samples) => {
            let (shape, _) = classify_delays(samples);
            let name = shape.name().to_string();
            if shape == Shape::NoDelay {
                (SelectionPolicy::NoDelayFastest, name)
            } else {
                (SelectionPolicy::BestUnderPattern(name.clone()), name)
            }
        }
    }
}

/// The offline answer for a cold cell: the full model sweep papd runs
/// inline, then the robust pick.
pub fn cold_expected(cell: &ColdCell) -> Result<u8, String> {
    let platform = Platform::try_preset(cell.machine, cell.ranks)?;
    let cfg = BenchConfig::simulation().with_backend(Backend::Model);
    let sw = sweep(
        &platform,
        cell.kind,
        &experiment_ids(cell.kind),
        &Shape::SUITE,
        cell.bytes,
        SkewPolicy::FactorOfAvg(1.0),
        &[],
        &cfg,
    )
    .map_err(|e| e.to_string())?;
    select(&BenchMatrix::from_sweep(&sw), &SelectionPolicy::robust())
}

/// Check warm replies against the oracle: the right id, no error, the
/// offline algorithm, policy and pattern, a warm tier, and the evidence
/// cell the nearest-size rule names.
pub fn check_warm(
    oracle: &Oracle,
    keys: &WarmKeys,
    asks: &[WarmAsk],
    replies: &[String],
    tally: &mut Tally,
) {
    let mut cache: HashMap<(CollectiveKind, u64, Option<usize>), Result<Expected, String>> =
        HashMap::new();
    for (i, ask) in asks.iter().enumerate() {
        let Some(line) = replies.get(i) else {
            tally.fail("warm: no reply");
            continue;
        };
        let a = match decode_reply(line.trim_end()) {
            Ok(env) if env.id != ask.id => {
                tally.fail("warm: reply id mismatch");
                continue;
            }
            Ok(env) => match env.reply {
                Reply::Answer(a) => a,
                Reply::Error(e) => {
                    tally.fail(format!("warm: error reply {:?}", e.code));
                    continue;
                }
                _ => {
                    tally.fail("warm: unexpected reply kind");
                    continue;
                }
            },
            Err(e) => {
                tally.fail(format!("warm: undecodable reply: {e}"));
                continue;
            }
        };
        let want = cache
            .entry((ask.kind, ask.bytes, ask.sample))
            .or_insert_with(|| oracle.expect(&keys.query(ask)));
        let want = match want {
            Ok(w) => w,
            Err(e) => {
                tally.fail(format!("warm: oracle: {e}"));
                continue;
            }
        };
        let exact = want.evidence_bytes == ask.bytes;
        let tier_ok = match a.tier {
            Tier::L1 => true,
            Tier::L2 => exact,
            Tier::L2Near => !exact,
            Tier::Computed => false,
        };
        tally.check(
            a.alg == want.alg
                && a.policy == want.policy
                && a.pattern == want.pattern
                && a.evidence_bytes == want.evidence_bytes
                && a.exact == exact
                && tier_ok,
            || format!("warm: wrong answer ({:?} {} B)", ask.kind, ask.bytes),
        );
    }
}
