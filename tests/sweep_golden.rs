//! Sweep identity fixture: exact outputs of the measurement harness's
//! sweeps, pinned in `results/sweep_golden.json`.
//!
//! Every case records its cell count and an FNV-1a digest over the
//! serialized result (`SweepResult`, `FaultSweepResult`, or the tune's
//! per-cell decisions and matrices). Any change to how sweeps schedule,
//! seed or reuse their measurements must leave this file byte-for-byte
//! unchanged.
//!
//! Cases:
//! * a default-plan tune of simcluster × 64 on the simulator;
//! * a real-machine sweep on hydra × 32: platform noise, drifting clocks
//!   with HCA3 sync, three repetitions and one extra named pattern;
//! * the per-algorithm and fixed skew policies;
//! * a model-backend sweep;
//! * the standard fault grid at 16 ranks.
//!
//! Regenerate only after an intentional change to measurement semantics
//! with `PAP_UPDATE_FIXTURES=1 cargo test --test sweep_golden`.

use pap::arrival::{ArrivalPattern, Shape};
use pap::collectives::registry::{algorithms, experiment_ids};
use pap::collectives::CollectiveKind;
use pap::core::{tune_machine, TunePlan};
use pap::microbench::{
    calibrate_avg_runtime, fault_sweep, standard_grid, sweep, Backend, BenchConfig, SkewPolicy,
};
use pap::sim::Platform;
use serde::Serialize;

/// One pinned case.
#[derive(Serialize)]
struct Case {
    case: String,
    cells: usize,
    digest: String,
}

/// 64-bit FNV-1a over the bytes of a serialized result.
fn fnv(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn pin<T: Serialize>(case: &str, cells: usize, result: &T) -> Case {
    Case { case: case.into(), cells, digest: fnv(&serde_json::to_string(result).unwrap()) }
}

fn tune_case() -> Case {
    let platform = Platform::simcluster(64);
    let (_, records) =
        tune_machine(&platform, &TunePlan::default(), &BenchConfig::simulation()).unwrap();
    let mut text = String::new();
    let mut cells = 0;
    for rec in &records {
        text += &serde_json::to_string(&rec.entry).unwrap();
        text += &serde_json::to_string(&rec.matrix).unwrap();
        text += &rec.status_quo.to_string();
        cells += rec.matrix.algs.len() * rec.matrix.patterns.len();
    }
    Case { case: "tune_default_simcluster_64".into(), cells, digest: fnv(&text) }
}

fn sweep_cases() -> Vec<Case> {
    let mut cases = Vec::new();

    let platform = Platform::hydra(32);
    let cfg = BenchConfig::real_machine(3).with_seed(0x5EED);
    let laggards = ArrivalPattern::new(
        "two_laggards",
        (0..32).map(|r| if r % 16 == 15 { 2e-5 } else { 0.0 }).collect(),
    );
    let sw = sweep(
        &platform,
        CollectiveKind::Reduce,
        &experiment_ids(CollectiveKind::Reduce),
        &Shape::SUITE,
        4096,
        SkewPolicy::FactorOfAvg(1.5),
        std::slice::from_ref(&laggards),
        &cfg,
    )
    .unwrap();
    cases.push(pin("reduce_hydra_32_real_machine_extra", sw.cells.len(), &sw));

    let platform = Platform::simcluster(32);
    let shapes = [Shape::NoDelay, Shape::Ascending, Shape::LastDelayed, Shape::Random];
    let cfg = BenchConfig::simulation();
    let algs = experiment_ids(CollectiveKind::Alltoall);
    let sw = sweep(
        &platform,
        CollectiveKind::Alltoall,
        &algs,
        &shapes,
        1024,
        SkewPolicy::PerAlgorithm,
        &[],
        &cfg,
    )
    .unwrap();
    cases.push(pin("alltoall_simcluster_32_per_algorithm", sw.cells.len(), &sw));

    let noisy = BenchConfig::real_machine(2).with_seed(0xF1);
    let bcast: Vec<u8> = algorithms(CollectiveKind::Bcast).iter().map(|a| a.id).collect();
    let sw = sweep(
        &Platform::hydra(32),
        CollectiveKind::Bcast,
        &bcast,
        &shapes,
        8192,
        SkewPolicy::PerAlgorithm,
        &[],
        &noisy,
    )
    .unwrap();
    cases.push(pin("bcast_hydra_32_per_algorithm_noisy", sw.cells.len(), &sw));

    let sw = sweep(
        &platform,
        CollectiveKind::Allreduce,
        &experiment_ids(CollectiveKind::Allreduce),
        &shapes,
        2048,
        SkewPolicy::Fixed(5e-5),
        &[],
        &cfg,
    )
    .unwrap();
    cases.push(pin("allreduce_simcluster_32_fixed", sw.cells.len(), &sw));

    let model = BenchConfig::simulation().with_backend(Backend::Model);
    let sw = sweep(
        &Platform::simcluster(64),
        CollectiveKind::Reduce,
        &experiment_ids(CollectiveKind::Reduce),
        &Shape::SUITE,
        32 * 1024,
        SkewPolicy::FactorOfAvg(1.0),
        &[],
        &model,
    )
    .unwrap();
    cases.push(pin("reduce_simcluster_64_model", sw.cells.len(), &sw));

    cases
}

fn fault_case() -> Case {
    let p = 16;
    let platform = Platform::simcluster(p);
    let cfg = BenchConfig::simulation();
    let algs = experiment_ids(CollectiveKind::Reduce);
    let t = calibrate_avg_runtime(&platform, CollectiveKind::Reduce, &algs, 1024, &cfg).unwrap();
    let res = fault_sweep(
        &platform,
        CollectiveKind::Reduce,
        &algs,
        1024,
        &standard_grid(p, t),
        &cfg,
    )
    .unwrap();
    pin("reduce_simcluster_16_fault_grid", res.cells.len(), &res)
}

#[test]
fn sweep_golden_fixture_is_current() {
    let mut cases = vec![tune_case()];
    cases.extend(sweep_cases());
    cases.push(fault_case());

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/sweep_golden.json");
    let current = serde_json::to_string_pretty(&cases).unwrap() + "\n";
    if std::env::var("PAP_UPDATE_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::write(path, current).unwrap();
        return;
    }
    let stored = std::fs::read_to_string(path).expect(
        "missing results/sweep_golden.json — generate it with \
         PAP_UPDATE_FIXTURES=1 cargo test --test sweep_golden",
    );
    assert_eq!(
        stored, current,
        "sweep golden fixture is stale; if the change to measurement semantics is \
         intentional, regenerate with PAP_UPDATE_FIXTURES=1"
    );
}
