//! [`Job::retime`]: a job retimed after its first run must behave exactly
//! like a job freshly built with the new timings — the compiled stream the
//! first run cached is rewritten in place, never left stale.

use pap_sim::{
    run_ref, FaultSpec, Job, Label, NoiseModel, Op, Platform, RankProgram, RunOutcome, SimConfig,
    SimError,
};

const P: usize = 16;
const LABEL: Label = Label { kind: 7, seq: 0 };

/// Recursive-doubling exchange behind a two-op timing prologue
/// (`SleepUntil(start)`, `delay(d)`), the shape the measurement harness
/// builds: rank-local compute, non-blocking pairs and eager/rendezvous
/// sizes in one schedule.
fn job(starts: &[f64], delays: &[f64]) -> Job {
    let programs = (0..P)
        .map(|r| {
            let mut ops = vec![Op::InitSlot { slot: 0, value: pap_sim::Value::movement_block(r, 0) }];
            let mut k = 1;
            while k < P {
                let peer = r ^ k;
                let bytes = if k == 4 { 1 << 20 } else { 512 };
                ops.push(Op::compute(2e-7));
                ops.push(Op::isend(peer, k as u64, bytes, 0, 0));
                ops.push(Op::irecv(peer, k as u64, 1, 1));
                ops.push(Op::waitall(vec![0, 1]));
                ops.push(Op::MergeMove { from: 1, into: 0 });
                k <<= 1;
            }
            let mut prog = RankProgram::new();
            prog.push_anon(vec![Op::SleepUntil { time: starts[r] }, Op::delay(delays[r])]);
            prog.push_labeled(LABEL, ops);
            prog
        })
        .collect();
    Job::new(programs)
}

/// Every field of an outcome, floats as bit patterns.
fn fingerprint(o: &RunOutcome) -> (Vec<u64>, String) {
    let mut v: Vec<u64> = o.finish.iter().map(|t| t.to_bits()).collect();
    for ph in &o.phases {
        v.extend([ph.rank as u64, ph.label.kind as u64, ph.label.seq as u64]);
        v.extend([ph.enter.to_bits(), ph.exit.to_bits()]);
    }
    v.extend([o.events, o.messages]);
    for m in o.msg_events.iter().flatten() {
        v.extend([m.src as u64, m.dst as u64, m.tag, m.bytes, m.sent.to_bits(), m.delivered.to_bits()]);
    }
    (v, format!("{:?} {:?}", o.slots, o.data_errors))
}

fn cfg(faults: FaultSpec) -> SimConfig {
    SimConfig {
        seed: 0x7E71,
        track_data: true,
        noise: NoiseModel::gaussian(0.05),
        record_messages: true,
        record_phases: true,
        faults,
    }
}

/// Run `(starts_a, delays_a)`, retime to `(starts_b, delays_b)`, run again:
/// the second run must equal a fresh job built with the `b` timings, and
/// must differ from the first (the retime reached the engine).
fn check(faults: FaultSpec, a: (&[f64], &[f64]), b: (&[f64], &[f64])) {
    let platform = Platform::simcluster(P);
    let cfg = cfg(faults);
    let mut retimed = job(a.0, a.1);
    let first = run_ref(&platform, &retimed, &cfg).unwrap();
    for r in 0..P {
        retimed.retime(r, 0, Op::SleepUntil { time: b.0[r] }).unwrap();
        retimed.retime(r, 1, Op::delay(b.1[r])).unwrap();
    }
    let got = run_ref(&platform, &retimed, &cfg).unwrap();
    let fresh = run_ref(&platform, &job(b.0, b.1), &cfg).unwrap();
    assert_eq!(fingerprint(&got), fingerprint(&fresh), "retimed job diverged from a fresh build");
    assert_ne!(fingerprint(&got), fingerprint(&first), "retime did not reach the run");
    assert!(got.data_errors.is_empty());
}

fn ladder(step: f64) -> Vec<f64> {
    (0..P).map(|r| r as f64 * step).collect()
}

#[test]
fn retimed_clean_run_matches_a_fresh_job() {
    let starts = vec![1e-3; P];
    check(FaultSpec::none(), (&starts, &[0.0; P]), (&starts, &ladder(3e-6)));
}

#[test]
fn retimed_run_with_a_stall_in_the_prologue_matches_a_fresh_job() {
    // Rank 5 freezes while it waits for its start: the stall window opens
    // before the harmonized start and ends inside the collective.
    let starts = vec![1e-3; P];
    let faults = FaultSpec::none().with_stall(5, 4e-4, 7e-4);
    let mut late = vec![0.0; P];
    late[P - 1] = 5e-5;
    check(faults, (&starts, &ladder(1e-6)), (&starts, &late));
}

#[test]
fn retimed_clock_synced_starts_match_a_fresh_job() {
    // Per-rank harmonized starts that miss the target by a few hundred ns,
    // as HCA3-synced drifting clocks do.
    let synced: Vec<f64> = (0..P).map(|r| 1e-3 + ((r * 7919) % 13) as f64 * 3e-8).collect();
    let other: Vec<f64> = (0..P).map(|r| 1e-3 - ((r * 104_729) % 11) as f64 * 2e-8).collect();
    check(FaultSpec::none(), (&synced, &ladder(2e-6)), (&other, &ladder(2e-6)));
}

#[test]
fn retime_refuses_non_timing_ops() {
    let platform = Platform::simcluster(P);
    let starts = vec![1e-3; P];
    let mut retimed = job(&starts, &[0.0; P]);
    let before = run_ref(&platform, &retimed, &SimConfig::tracking()).unwrap();
    let invalid = |e: Result<(), SimError>| matches!(e, Err(SimError::InvalidProgram(_)));
    // Ops 0–1 are the prologue, 2 the slot init, 3 a compute, 4 an isend.
    // A timing op may not replace a non-timing op…
    assert!(invalid(retimed.retime(0, 2, Op::delay(1.0))));
    assert!(invalid(retimed.retime(0, 4, Op::delay(1.0))));
    // …nor anything else replace a timing op, nor an index miss the job.
    assert!(invalid(retimed.retime(0, 0, Op::send(1, 0, 8, 0))));
    assert!(invalid(retimed.retime(0, 10_000, Op::delay(1.0))));
    assert!(invalid(retimed.retime(P, 0, Op::delay(1.0))));
    let after = run_ref(&platform, &retimed, &SimConfig::tracking()).unwrap();
    assert_eq!(fingerprint(&before), fingerprint(&after), "a refused retime changed the job");
}
