//! Engine identity fixture: exact outputs of the discrete-event engine,
//! pinned in `results/engine_golden.json`.
//!
//! Every case records the event and message counts, the makespan's bit
//! pattern and an FNV-1a digest over every field of the [`RunOutcome`]
//! (each `f64` via `to_bits`). Error cases pin the `SimError` display string
//! plus a digest over the full error (deadlock time bits and every blocked
//! rank). Any engine refactor must leave this file byte-for-byte unchanged.
//!
//! Cases:
//! * 10,240-rank binomial broadcast, clean and under a fully-loaded fault
//!   spec (calendar queue engaged);
//! * 1,024-rank recursive-doubling exchange with noise, dataflow tracking
//!   and message recording, clean and faulted;
//! * a crash that starves its dependents (deadlock report);
//! * every registry algorithm of every collective at 24 ranks, one size
//!   below and one above the eager threshold, last-delayed arrivals, with
//!   noise, tracking and recording on.
//!
//! Regenerate only after an intentional change to engine semantics with
//! `PAP_UPDATE_FIXTURES=1 cargo test --release --test engine_golden`.

use pap::arrival::{generate, Shape};
use pap::collectives::registry::ALGORITHMS;
use pap::collectives::{build, CollSpec};
use pap::sim::{
    run_ref, FaultSpec, Job, Label, NoiseModel, Op, Platform, RankProgram, RunOutcome, SimConfig,
    SimError, ANY_NODE,
};
use serde::Serialize;

/// One pinned case. Successful runs fill `events`/`messages`/
/// `makespan_bits`; failed runs fill `error`.
#[derive(Serialize)]
struct Case {
    case: String,
    ranks: usize,
    events: Option<u64>,
    messages: Option<u64>,
    makespan_bits: Option<String>,
    error: Option<String>,
    digest: String,
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn outcome_digest(o: &RunOutcome) -> String {
    let mut h = Fnv::new();
    h.u64(o.finish.len() as u64);
    for &t in &o.finish {
        h.f64(t);
    }
    h.u64(o.phases.len() as u64);
    for ph in &o.phases {
        h.u64(ph.rank as u64);
        h.u64(ph.label.kind as u64);
        h.u64(ph.label.seq as u64);
        h.f64(ph.enter);
        h.f64(ph.exit);
    }
    match &o.slots {
        None => h.u64(0),
        Some(ranks) => {
            h.u64(1);
            h.u64(ranks.len() as u64);
            for slots in ranks {
                h.u64(slots.len() as u64);
                for v in slots {
                    h.u64(v.len() as u64);
                    for ((origin, index), contribs) in v.iter() {
                        h.u64(origin as u64);
                        h.u64(index as u64);
                        h.u64(contribs.len() as u64);
                        for r in contribs.iter() {
                            h.u64(r as u64);
                        }
                    }
                }
            }
        }
    }
    h.u64(o.data_errors.len() as u64);
    for e in &o.data_errors {
        h.str(e);
    }
    h.u64(o.events);
    h.u64(o.messages);
    match &o.msg_events {
        None => h.u64(0),
        Some(ms) => {
            h.u64(1);
            h.u64(ms.len() as u64);
            for m in ms {
                h.u64(m.src as u64);
                h.u64(m.dst as u64);
                h.u64(m.tag);
                h.u64(m.bytes);
                h.f64(m.sent);
                h.f64(m.delivered);
            }
        }
    }
    h.hex()
}

fn error_digest(e: &SimError) -> String {
    let mut h = Fnv::new();
    match e {
        SimError::Deadlock { at, blocked } => {
            h.u64(0);
            h.f64(*at);
            h.u64(blocked.len() as u64);
            for (r, desc) in blocked {
                h.u64(*r as u64);
                h.str(desc);
            }
        }
        SimError::InvalidProgram(msg) => {
            h.u64(1);
            h.str(msg);
        }
    }
    h.hex()
}

fn pin(case: impl Into<String>, platform: &Platform, job: &Job, cfg: &SimConfig) -> Case {
    let case = case.into();
    let ranks = platform.ranks;
    match run_ref(platform, job, cfg) {
        Ok(o) => Case {
            case,
            ranks,
            events: Some(o.events),
            messages: Some(o.messages),
            makespan_bits: Some(format!("{:016x}", o.makespan().to_bits())),
            error: None,
            digest: outcome_digest(&o),
        },
        Err(e) => Case {
            case,
            ranks,
            events: None,
            messages: None,
            makespan_bits: None,
            error: Some(e.to_string()),
            digest: error_digest(&e),
        },
    }
}

/// Binomial-tree broadcast from rank 0: round `k` has every rank `r < k`
/// with `r + k < p` forward to `r + k`.
fn binomial_bcast(p: usize, bytes: u64) -> Job {
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); p];
    let mut k = 1usize;
    while k < p {
        for r in 0..k {
            let peer = r + k;
            if peer < p {
                programs[r].push(Op::send(peer, k as u64, bytes, 0));
                programs[peer].push(Op::recv(r, k as u64, 0));
            }
        }
        k <<= 1;
    }
    Job::new(programs.into_iter().map(RankProgram::from_ops).collect())
}

/// Recursive-doubling exchange (power-of-two ranks): log2(p) rounds of
/// pairwise isend/irecv/waitall with a little compute between rounds.
fn rdb_exchange(p: usize, bytes: u64) -> Job {
    assert!(p.is_power_of_two());
    let mut programs: Vec<Vec<Op>> = vec![Vec::new(); p];
    let mut k = 1usize;
    while k < p {
        for (r, ops) in programs.iter_mut().enumerate() {
            let peer = r ^ k;
            ops.push(Op::compute(1e-7));
            ops.push(Op::isend(peer, k as u64, bytes, 0, 0));
            ops.push(Op::Irecv { from: peer, tag: k as u64, slot: 1, req: 1 });
            ops.push(Op::WaitAll { reqs: vec![0, 1] });
        }
        k <<= 1;
    }
    Job::new(programs.into_iter().map(RankProgram::from_ops).collect())
}

/// Noise, dataflow tracking, message and phase recording all on.
fn loaded_cfg(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        track_data: true,
        noise: NoiseModel::gaussian(0.08),
        record_messages: true,
        record_phases: true,
        faults: FaultSpec::none(),
    }
}

fn engine_cases() -> Vec<Case> {
    let mut cases = Vec::new();

    let p = 10_240;
    let platform = Platform::simcluster(p);
    let job = binomial_bcast(p, 1024);
    cases.push(pin("bcast_10240_clean", &platform, &job, &SimConfig::default()));
    let faults = FaultSpec::none()
        .with_stall(1, 1e-5, 3e-4)
        .with_stall(1, 2e-4, 1e-4)
        .with_stall(5_000, 0.0, 2e-4)
        .with_crash(p - 1, 2e-6)
        .with_link(0, 1, 0.0, 5e-3, 7.5)
        .with_link(ANY_NODE, 3, 1e-4, 2e-3, 3.0)
        .with_storm(2_000, 2_600, 0.0, 1e-2, 4.0);
    cases.push(pin("bcast_10240_faulted", &platform, &job, &SimConfig::default().with_faults(faults)));

    let p = 1_024;
    let platform = Platform::simcluster(p);
    let job = rdb_exchange(p, 4096);
    cases.push(pin("rdb_1024_noisy_tracked", &platform, &job, &loaded_cfg(0xA11CE)));
    let faults = FaultSpec::none()
        .with_stall(7, 5e-6, 8e-5)
        .with_link(ANY_NODE, 0, 0.0, 1e-3, 5.0)
        .with_storm(100, 180, 1e-5, 5e-4, 6.0);
    cases.push(pin(
        "rdb_1024_noisy_tracked_faulted",
        &platform,
        &job,
        &loaded_cfg(0xFA_017).with_faults(faults),
    ));

    // Rank 1 dies before forwarding: its whole binomial subtree starves.
    let p = 64;
    let platform = Platform::simcluster(p);
    let job = binomial_bcast(p, 2048);
    let cfg = SimConfig::default().with_faults(FaultSpec::none().with_crash(1, 1e-7));
    cases.push(pin("bcast_64_crash_starves_subtree", &platform, &job, &cfg));

    cases
}

fn collective_cases() -> Vec<Case> {
    let p = 24;
    let platform = Platform::simcluster(p);
    let eager = platform.eager_threshold;
    let pattern = generate(Shape::LastDelayed, p, 1e-4, 0);
    let mut cases = Vec::new();
    for alg in ALGORITHMS {
        let label = Label { kind: alg.kind.label_kind(), seq: 0 };
        for (size, bytes) in [("eager", eager / 2), ("rndv", eager * 4)] {
            let name = format!("{}_{}_{}_{size}", alg.kind.name(), alg.id, p);
            let built = match build(&CollSpec::new(alg.kind, alg.id, bytes), p) {
                Ok(b) => b,
                Err(e) => {
                    let mut h = Fnv::new();
                    h.str(&e.to_string());
                    cases.push(Case {
                        case: name,
                        ranks: p,
                        events: None,
                        messages: None,
                        makespan_bits: None,
                        error: Some(format!("build: {e}")),
                        digest: h.hex(),
                    });
                    continue;
                }
            };
            let programs = built
                .rank_ops
                .into_iter()
                .enumerate()
                .map(|(r, ops)| {
                    let mut prog = RankProgram::new();
                    prog.push_anon(vec![Op::delay(pattern.delay_of(r))]);
                    prog.push_labeled(label, ops);
                    prog
                })
                .collect();
            let cfg = loaded_cfg(0xC0FFEE ^ ((alg.kind.label_kind() as u64) << 8) ^ alg.id as u64);
            cases.push(pin(name, &platform, &Job::new(programs), &cfg));
        }
    }
    cases
}

#[test]
fn engine_golden_fixture_is_current() {
    let mut cases = engine_cases();
    cases.extend(collective_cases());
    let crash = cases.iter().find(|c| c.case == "bcast_64_crash_starves_subtree").unwrap();
    assert!(
        crash.error.as_deref().is_some_and(|e| e.starts_with("deadlock")),
        "the crash case must starve its dependents: {:?}",
        crash.error
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/engine_golden.json");
    let current = serde_json::to_string_pretty(&cases).unwrap() + "\n";
    if std::env::var("PAP_UPDATE_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::write(path, current).unwrap();
        return;
    }
    let stored = std::fs::read_to_string(path).expect(
        "missing results/engine_golden.json — generate it with \
         PAP_UPDATE_FIXTURES=1 cargo test --release --test engine_golden",
    );
    assert_eq!(
        stored, current,
        "engine golden fixture is stale; if the change to engine semantics is \
         intentional, regenerate with PAP_UPDATE_FIXTURES=1"
    );
}
