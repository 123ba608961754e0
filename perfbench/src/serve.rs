//! The serving workloads: `serve_warm` and `serve_mixed`, each against a
//! real `papd` process over loopback, plus their in-process layer replays.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pap_calibrate::fit_probe;
use pap_collectives::CollectiveKind;
use pap_core::select;
use pap_service::{
    build_store, decode_reply, decode_request, encode_frame, Dispatcher, Reply, Request,
    ServeConfig, Tier,
};

use crate::keys::{
    calibrate_frame, check_warm, cold_cells, cold_expected, policy_for, probe, request_frame,
    Oracle, WarmBatch, WarmKeys, PAPD_ARGS, WARM_RANKS,
};
use crate::layers::Layers;
use crate::net::{open_loop, Caller, Papd, Phase};
use crate::util::{median, quantile, secs, Outcome, Tally, J};
use crate::Ctx;

/// p99 limit a ladder rung must meet for `warm_max_qps`, µs. At 5 ms,
/// short host stalls with no backlog behind them failed rungs far below
/// papd's capacity; at 20 ms a failing rung nearly always has a backlog.
const P99_LIMIT_US: f64 = 20000.0;
/// Offered rates of the ladder: `LADDER_BASE × LADDER_STEP^k`.
const LADDER_BASE: f64 = 2000.0;
const LADDER_STEP: f64 = 1.06;
const LADDER_RUNGS: usize = 64;
/// Rung each search starts from (about 8,100 q/s).
const LADDER_START: usize = 24;
/// Independent ladder searches per run; `warm_max_qps` is their median.
const LADDER_SEARCHES: usize = 3;
/// Measured seconds per ladder rung.
const RUNG_S: f64 = 0.4;
/// Offered rate of serve_warm's fixed-rate latency phase.
const WARM_RATE: f64 = 4000.0;
/// Offered rate of serve_mixed's warm connection.
const MIXED_RATE: f64 = 1000.0;
/// Cold cells per measured second, and one Calibrate frame per this many
/// cold cells.
const COLD_PER_S: usize = 100;
const COLD_PER_CALIBRATE: usize = 32;
/// Warm frames the traced run replays in process.
const REPLAY_FRAMES: usize = 5000;
/// Timed papd starts per serving run; `setup_s` is their median.
const SETUPS: usize = 10;

fn rung_rate(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// Starts papd and checks its first answer.
struct Starter<'a> {
    ctx: &'a Ctx,
    frame: String,
    want: u8,
}

impl<'a> Starter<'a> {
    fn new(ctx: &'a Ctx, oracle: &Oracle) -> Result<Starter<'a>, String> {
        let q = pap_service::QueryRequest {
            machine: "simcluster".into(),
            collective: CollectiveKind::Reduce,
            bytes: 1024,
            ranks: WARM_RANKS,
            arrivals: None,
        };
        let want = oracle.expect(&q)?.alg;
        Ok(Starter {
            ctx,
            frame: request_frame(0, Request::Query(q)),
            want,
        })
    }

    /// Spawn papd (pinned to one CPU, see `net::PAPD_CPU`, when `pinned`)
    /// and return it with the seconds from spawn to its first answer.
    fn start(&self, pinned: bool, tally: &mut Tally) -> Result<(Papd, f64), String> {
        let t0 = Instant::now();
        let papd = Papd::spawn(&self.ctx.papd, &PAPD_ARGS, pinned)?;
        let reply = Caller::connect(&papd.addr)?.call(&self.frame)?;
        let dt = secs(t0);
        let alg = match decode_reply(reply.trim_end()).map(|e| e.reply) {
            Ok(Reply::Answer(a)) => Some(a.alg),
            _ => None,
        };
        tally.check(alg == Some(self.want), || {
            format!("setup: first answer {alg:?}, want {}", self.want)
        });
        Ok((papd, dt))
    }

    /// Time `n` unpinned starts, each shut down after its first answer.
    /// Unpinned, papd's startup tune fans out over every CPU, as papd's
    /// would on its own.
    fn time_starts(&self, n: usize, tally: &mut Tally) -> Result<Vec<f64>, String> {
        (0..n)
            .map(|_| {
                let (papd, dt) = self.start(false, tally)?;
                papd.shutdown()?;
                Ok(dt)
            })
            .collect()
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// One open-loop phase; see `open_loop` for `busy_poll`.
fn run_phase(
    stream: &mut TcpStream,
    frames: &[String],
    rate: f64,
    stop: Option<&AtomicBool>,
    busy_poll: bool,
) -> Phase {
    let _span = pap_obs::span("bench", "open_loop_phase");
    open_loop(
        stream,
        frames,
        rate,
        Duration::from_secs(5),
        stop,
        busy_poll,
    )
}

/// Fold one phase's replies into the tally; transport errors count every
/// unanswered query as failed.
fn account(oracle: &Oracle, keys: &WarmKeys, batch: &WarmBatch, phase: &Phase, tally: &mut Tally) {
    check_warm(
        oracle,
        keys,
        &batch.asks[..phase.sent],
        &phase.replies,
        tally,
    );
    if let Some(e) = &phase.error {
        tally.fail(format!("warm transport: {e}"));
    }
}

/// Queries per block of the tail statistics: a block's p99 leaves ten
/// queries beyond it.
const BLOCK: usize = 1000;

/// The median over blocks of `BLOCK` consecutive queries of each block's
/// `within` quantile. Blocks of 1,000 leave ten queries beyond a block's
/// p99. Other tenants of the host stall its CPUs for whole blocks; the
/// median block ignores a minority of stalled blocks but moves with a
/// change in papd that slows every query or most blocks.
fn per_block(v: &[f64], within: f64) -> f64 {
    let blocks: Vec<f64> = v
        .chunks(BLOCK)
        .filter(|c| c.len() == BLOCK)
        .map(|c| quantile(c, within))
        .collect();
    if blocks.is_empty() {
        quantile(v, within)
    } else {
        median(&blocks)
    }
}

/// Whether a rung met the limit with no growing backlog: every reply
/// arrived, the block p99 within the limit, the last block's median
/// within the limit (a backlog that grows through the rung pushes it far
/// past), and the generator itself kept to its schedule.
fn rung_passes(p: &Phase) -> bool {
    let last = &p.lat_us[p.lat_us.len().saturating_sub(BLOCK)..];
    p.error.is_none()
        && p.replies.len() == p.sent
        && per_block(&p.lat_us, 0.99) <= P99_LIMIT_US
        && quantile(last, 0.5) <= P99_LIMIT_US
        && per_block(&p.late_us, 0.99) <= P99_LIMIT_US
}

fn l2_cells(addr: &str) -> Result<f64, String> {
    let reply = Caller::connect(addr)?.call(&request_frame(u64::MAX - 1, Request::Stats))?;
    match decode_reply(reply.trim_end()).map(|e| e.reply) {
        Ok(Reply::Stats(s)) => Ok(s.l2_cells as f64),
        other => Err(format!("stats request failed: {other:?}")),
    }
}

pub fn serve_warm(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oracle = Oracle::new()?;
    let keys = WarmKeys::new(ctx.seed);
    // Half the timed starts come before the run and half after it, so
    // `setup_s` samples the host's speed at both ends of the run.
    let starter = Starter::new(ctx, &oracle)?;
    let mut setups = starter.time_starts(SETUPS / 2, &mut out.tally)?;
    let (papd, _) = starter.start(true, &mut out.tally)?;
    let mut stream = connect(&papd.addr)?;
    let mut next_id = 1u64;
    let mut frames_for = |stream_name: &str, n: usize| -> WarmBatch {
        let f = keys.frames(ctx.seed, &format!("{stream_name}@{next_id}"), next_id, n);
        next_id += n as u64;
        f
    };

    // Fill L1 and fault in lazy state before anything is timed.
    let warmup = frames_for("warmup", 4000);
    let p = run_phase(&mut stream, &warmup.lines, 8000.0, None, false);
    account(&oracle, &keys, &warmup, &p, &mut out.tally);

    // The timed phases run on the CPU papd does not use; the fixed-rate
    // blocks busy-poll it, so no reply waits for the CPU to wake.
    let _pin = crate::net::pin_client_thread();
    // The ladder, searched LADDER_SEARCHES times: probe upward in strides,
    // then bisect between the last passing and the first failing rung.
    // A fixed-rate block follows every rung, so the latency figures are
    // sampled across the whole run rather than in one stretch of it.
    let run_start = Instant::now();
    let mut fixed = Phase::default();
    let mut fixed_block =
        |stream: &mut TcpStream,
         tally: &mut Tally,
         frames_for: &mut dyn FnMut(&str, usize) -> WarmBatch| {
            let frames = frames_for("fixed", 2 * BLOCK);
            let p = run_phase(stream, &frames.lines, WARM_RATE, None, true);
            account(&oracle, &keys, &frames, &p, tally);
            fixed.lat_us.extend_from_slice(&p.lat_us);
            fixed.late_us.extend_from_slice(&p.late_us);
        };
    let mut rungs: Vec<(usize, bool, f64, [f64; 3])> = Vec::new();
    let mut best = Vec::new();
    let mut search = 0;
    // A search whose every rung fails (the host stalled through it) is
    // repeated, up to twice as many searches in all.
    while best.len() < LADDER_SEARCHES && search < 2 * LADDER_SEARCHES {
        search += 1;
        let mut try_rung = |k: usize, stream: &mut TcpStream, tally: &mut Tally| {
            let rate = rung_rate(k);
            let n = ((rate * RUNG_S) as usize).max(3 * BLOCK);
            let frames = frames_for(&format!("ladder{search}-rung{k}"), n);
            let p = run_phase(stream, &frames.lines, rate, None, false);
            account(&oracle, &keys, &frames, &p, tally);
            let pass = rung_passes(&p);
            let achieved = p.replies.len() as f64 / p.elapsed_s.max(1e-9);
            let last = &p.lat_us[p.lat_us.len().saturating_sub(BLOCK)..];
            rungs.push((
                k,
                pass,
                achieved,
                [
                    per_block(&p.lat_us, 0.99),
                    quantile(last, 0.5),
                    per_block(&p.late_us, 0.99),
                ],
            ));
            fixed_block(stream, tally, &mut frames_for);
            pass.then_some(achieved)
        };
        let (mut lo, mut hi) = (None, LADDER_RUNGS);
        let mut k = LADDER_START;
        while k < hi {
            match try_rung(k, &mut stream, &mut out.tally) {
                Some(a) => {
                    lo = Some((k, a));
                    k += 8;
                }
                None if lo.is_none() && k > 0 => {
                    hi = k;
                    k = k.saturating_sub(8);
                }
                None => hi = k,
            }
        }
        let Some(mut lo) = lo else {
            continue;
        };
        while hi - lo.0 > 1 {
            let mid = (lo.0 + hi) / 2;
            match try_rung(mid, &mut stream, &mut out.tally) {
                Some(a) => lo = (mid, a),
                None => hi = mid,
            }
        }
        best.push(lo.1);
    }
    // Fill the rest of the run with fixed-rate blocks.
    while secs(run_start) < ctx.seconds {
        fixed_block(&mut stream, &mut out.tally, &mut frames_for);
    }
    if best.is_empty() {
        let seen: Vec<String> = rungs
            .iter()
            .map(|r| format!("{:.0} q/s: {:?}", rung_rate(r.0), r.3))
            .collect();
        return Err(format!(
            "no ladder rung met the p99 limit of {P99_LIMIT_US} us: {}",
            seen.join("; ")
        ));
    }
    let max_qps = median(&best);
    let (p10, p50, p99) = (
        per_block(&fixed.lat_us, 0.1),
        per_block(&fixed.lat_us, 0.5),
        per_block(&fixed.lat_us, 0.99),
    );
    let late = per_block(&fixed.late_us, 0.99);
    let warm_samples = fixed.lat_us.len();

    let l2 = l2_cells(&papd.addr)?;
    let rss = crate::util::peak_rss_mib(&papd.pid())?;
    drop(stream);
    papd.shutdown()?;
    setups.extend(starter.time_starts(SETUPS - SETUPS / 2, &mut out.tally)?);

    // When the host's other tenants are busy, an idle vCPU is slow to wake
    // for most queries of a stretch of blocks, which moves block medians
    // several fold (see perfbench/DESIGN.md). The fastest tenth of each
    // block follows papd's per-query cost and hardly moves with them.
    out.set_end_to_end(median(&setups), p10 / 1e3, max_qps, rss);
    out.note("warm_p10_us", p10);
    out.note("warm_p50_us", p50);
    out.note("warm_max_qps", max_qps);
    // The p99 follows the host's other tenants more than papd (five runs
    // of one build read 333 to 605 us), so it is reported, not a metric.
    out.note("warm_p99_us", p99);
    // The traced run derives `service.transport_us` from it.
    out.side.set("warm_p50_us", p50, "us");
    out.side.set("bench.gen_late_us", late, "us");
    out.side.set("store.l2_cells", l2, "count");
    out.report
        .push(("warm_samples".into(), J::Int(warm_samples as u64)));
    out.report.push(("warm_rate_qps".into(), J::Num(WARM_RATE)));
    out.report.push((
        "block_p99_us".into(),
        J::Arr(
            fixed
                .lat_us
                .chunks(BLOCK)
                .map(|c| J::Num(quantile(c, 0.99)))
                .collect(),
        ),
    ));
    out.report.push((
        "block_p10_us".into(),
        J::Arr(
            fixed
                .lat_us
                .chunks(BLOCK)
                .map(|c| J::Num(quantile(c, 0.1)))
                .collect(),
        ),
    ));
    out.report.push((
        "block_p50_us".into(),
        J::Arr(
            fixed
                .lat_us
                .chunks(BLOCK)
                .map(|c| J::Num(quantile(c, 0.5)))
                .collect(),
        ),
    ));
    out.report
        .push(("p99_limit_us".into(), J::Num(P99_LIMIT_US)));
    out.report.push((
        "ladder".into(),
        J::Arr(
            rungs
                .iter()
                .map(|&(k, pass, achieved, [p99, last_p50, late])| {
                    J::Obj(vec![
                        ("offered_qps".into(), J::Num(rung_rate(k))),
                        ("achieved_qps".into(), J::Num(achieved)),
                        ("pass".into(), J::Bool(pass)),
                        ("p99_us".into(), J::Num(p99)),
                        ("last_block_p50_us".into(), J::Num(last_p50)),
                        ("gen_late_p99_us".into(), J::Num(late)),
                    ])
                })
                .collect(),
        ),
    ));
    Ok(out)
}

/// One op of serve_mixed's closed loop.
enum ColdOp {
    Cell(usize),
    Calibrate(usize),
}

pub fn serve_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let oracle = Oracle::new()?;
    let keys = WarmKeys::new(ctx.seed);
    let n_cold = COLD_PER_S * ctx.seconds.round().max(1.0) as usize;
    let cells = cold_cells(ctx.seed, n_cold);
    let n_cal = n_cold / COLD_PER_CALIBRATE;
    let probes = (0..n_cal)
        .map(|i| probe(ctx.seed, i))
        .collect::<Result<Vec<_>, _>>()?;
    let want_cold = pap_parallel::par_map(&cells, |_, c| cold_expected(c));
    let want_fit: Vec<_> = probes
        .iter()
        .map(|(_, p)| fit_probe(p).map_err(|e| e.to_string()))
        .collect();
    let mut ops: Vec<ColdOp> = Vec::with_capacity(n_cold + n_cal);
    for i in 0..n_cold {
        if i % COLD_PER_CALIBRATE == COLD_PER_CALIBRATE / 2 && i / COLD_PER_CALIBRATE < n_cal {
            ops.push(ColdOp::Calibrate(i / COLD_PER_CALIBRATE));
        }
        ops.push(ColdOp::Cell(i));
    }

    // Half the timed starts come before the run and half after it, so
    // `setup_s` samples the host's speed at both ends of the run.
    let starter = Starter::new(ctx, &oracle)?;
    let mut setups = starter.time_starts(SETUPS / 2, &mut out.tally)?;
    let (papd, _) = starter.start(false, &mut out.tally)?;
    let mut stream = connect(&papd.addr)?;
    let warmup = keys.frames(ctx.seed, "warmup", 1, 4000);
    let p = run_phase(&mut stream, &warmup.lines, 8000.0, None, false);
    account(&oracle, &keys, &warmup, &p, &mut out.tally);

    // Connection A: warm stream at a fixed rate for as long as B runs.
    let a_frames = keys.frames(
        ctx.seed,
        "mixed",
        10_000,
        (MIXED_RATE * ctx.seconds * 2.5) as usize,
    );
    let a_lines = &a_frames.lines;
    let stop = AtomicBool::new(false);
    let mut caller = Caller::connect(&papd.addr)?;
    let mut cold_ms = Vec::with_capacity(n_cold);
    let mut cal_ms = Vec::with_capacity(n_cal);
    let mut b_replies: Vec<Result<String, String>> = Vec::with_capacity(ops.len());
    let b_start = Instant::now();
    let a_phase = std::thread::scope(|s| {
        let a = s.spawn(|| {
            crate::net::tighten_timer_slack();
            run_phase(&mut stream, a_lines, MIXED_RATE, Some(&stop), false)
        });
        // Connection B: closed loop over never-seen cells and calibrations.
        for (j, op) in ops.iter().enumerate() {
            let frame = match op {
                ColdOp::Cell(i) => {
                    request_frame(1_000_000 + j as u64, Request::Query(cells[*i].query()))
                }
                ColdOp::Calibrate(i) => {
                    calibrate_frame(1_000_000 + j as u64, &probes[*i].0, &probes[*i].1)
                }
            };
            let _span = pap_obs::span("bench", "closed_loop_call");
            let t = Instant::now();
            let reply = caller.call(&frame);
            let ms = secs(t) * 1e3;
            match op {
                ColdOp::Cell(_) => cold_ms.push(ms),
                ColdOp::Calibrate(_) => cal_ms.push(ms),
            }
            b_replies.push(reply);
        }
        stop.store(true, Ordering::Relaxed);
        a.join().expect("open-loop thread panicked")
    });
    let b_wall = secs(b_start);
    account(&oracle, &keys, &a_frames, &a_phase, &mut out.tally);

    for (j, op) in ops.iter().enumerate() {
        let env = match &b_replies[j] {
            Ok(line) => decode_reply(line.trim_end()),
            Err(e) => Err(e.clone()),
        };
        let want_id = 1_000_000 + j as u64;
        match (op, env) {
            (_, Err(e)) => out.tally.fail(format!("cold transport: {e}")),
            (_, Ok(env)) if env.id != want_id => out.tally.fail("cold: reply id mismatch"),
            (ColdOp::Cell(i), Ok(env)) => match (env.reply, &want_cold[*i]) {
                (Reply::Answer(a), Ok(want)) => {
                    out.tally
                        .check(a.tier == Tier::Computed && a.alg == *want, || {
                            format!(
                                "cold: tier {} alg {} (want computed, {want})",
                                a.tier.label(),
                                a.alg
                            )
                        })
                }
                (Reply::Error(e), _) => out.tally.fail(format!("cold: error reply {:?}", e.code)),
                (_, Err(e)) => out.tally.fail(format!("cold: oracle: {e}")),
                _ => out.tally.fail("cold: unexpected reply kind"),
            },
            (ColdOp::Calibrate(i), Ok(env)) => match (env.reply, &want_fit[*i]) {
                (Reply::Calibrated(c), Ok(fit)) => out.tally.check(
                    c.machine == format!("custom:{}", probes[*i].0)
                        && c.l2_cells == 12
                        && c.fit == *fit,
                    || {
                        format!(
                            "calibrate: {} with {} cells differs from the offline fit",
                            c.machine, c.l2_cells
                        )
                    },
                ),
                (Reply::Error(e), _) => out
                    .tally
                    .fail(format!("calibrate: error reply {}", e.message)),
                (_, Err(e)) => out.tally.fail(format!("calibrate: offline fit: {e}")),
                _ => out.tally.fail("calibrate: unexpected reply kind"),
            },
        }
    }

    let l2 = l2_cells(&papd.addr)?;
    let rss = crate::util::peak_rss_mib(&papd.pid())?;
    drop(stream);
    papd.shutdown()?;
    setups.extend(starter.time_starts(SETUPS - SETUPS / 2, &mut out.tally)?);

    let cold_busy_s: f64 = cold_ms.iter().sum::<f64>() / 1e3;
    let cold_qps = cold_ms.len() as f64 / cold_busy_s.max(1e-9);
    let cold_p50_ms = median(&cold_ms);
    out.set_end_to_end(median(&setups), cold_p50_ms, cold_qps, rss);
    out.note("cold_qps", cold_qps);
    out.note("cold_p50_ms", cold_p50_ms);
    // Connection A's latency is reported, not a metric: it is set by where
    // the scheduler puts papd's connection threads and cold sweeps, and its
    // p50 spread 0.09 to 0.30 over ten-run sets.
    // The traced run derives `service.transport_us` from it.
    let a_p50 = per_block(&a_phase.lat_us, 0.5);
    out.side.set("warm_p50_us", a_p50, "us");
    out.note("warm_p50_us", a_p50);
    out.note("warm_p99_us", per_block(&a_phase.lat_us, 0.99));
    out.report.push((
        "block_p99_us".into(),
        J::Arr(
            a_phase
                .lat_us
                .chunks(BLOCK)
                .map(|c| J::Num(quantile(c, 0.99)))
                .collect(),
        ),
    ));
    out.report.push((
        "block_p50_us".into(),
        J::Arr(
            a_phase
                .lat_us
                .chunks(BLOCK)
                .map(|c| J::Num(quantile(c, 0.5)))
                .collect(),
        ),
    ));
    out.side
        .set("bench.gen_late_us", per_block(&a_phase.late_us, 0.99), "us");
    out.side.set("store.l2_cells", l2, "count");
    out.report
        .push(("warm_samples".into(), J::Int(a_phase.lat_us.len() as u64)));
    out.report
        .push(("warm_rate_qps".into(), J::Num(MIXED_RATE)));
    out.report
        .push(("cold_cells".into(), J::Int(cold_ms.len() as u64)));
    out.report
        .push(("calibrations".into(), J::Int(cal_ms.len() as u64)));
    out.report
        .push(("calibrate_p50_ms".into(), J::Num(median(&cal_ms))));
    out.report
        .push(("closed_loop_wall_s".into(), J::Num(b_wall)));
    for kind in CollectiveKind::PAPER {
        let ms: Vec<f64> = ops
            .iter()
            .filter_map(|op| match op {
                ColdOp::Cell(i) => Some(*i),
                ColdOp::Calibrate(_) => None,
            })
            .zip(&cold_ms)
            .filter(|(i, _)| cells[*i].kind == kind)
            .map(|(_, &ms)| ms)
            .collect();
        out.report.push((
            format!("cold_p50_ms.{}", kind_label(kind)),
            J::Num(median(&ms)),
        ));
    }
    Ok(out)
}

pub fn kind_label(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::Reduce => "reduce",
        CollectiveKind::Allreduce => "allreduce",
        CollectiveKind::Alltoall => "alltoall",
        _ => "other",
    }
}

/// Replay the seed's generated serving inputs through the service's
/// public calls in this process, one span per call: decode, dispatch,
/// encode, tier resolution, classification and selection for warm
/// frames; resolution, the model sweep, the model itself and the
/// calibration fit for cold cells and probes. Every workload replays
/// them, so every serving layer is measured on every workload.
pub fn replay(ctx: &Ctx, layers: &mut Layers) -> Result<(), String> {
    let oracle = Oracle::new()?;
    let keys = WarmKeys::new(ctx.seed);
    let cfg = ServeConfig {
        ranks: WARM_RANKS,
        refine_threads: 0,
        ..ServeConfig::default()
    };
    let (stats, dispatch_store) = build_store(&cfg)?;
    let dispatcher = Dispatcher::new(
        Arc::new(AtomicBool::new(false)),
        stats,
        dispatch_store,
        None,
    );
    let (_, store) = build_store(&cfg)?;

    let warm = keys.frames(ctx.seed, "replay", 1, REPLAY_FRAMES);
    let (mut l1, mut resolved) = (0usize, 0usize);
    for (i, (frame, ask)) in warm.lines.iter().zip(&warm.asks).enumerate() {
        let line = frame.trim_end();
        layers
            .time("service", "decode_request", || {
                decode_request(line).map(|_| ())
            })
            .map_err(|e| e.message)?;
        let reply = layers.time("service", "serve_frame", || {
            dispatcher.serve_frame(line.as_bytes())
        });
        layers.time("service", "encode_frame", || encode_frame(&reply));
        let q = keys.query(ask);
        let tier_key = |r: &Result<(pap_service::QueryAnswer, _), String>| match r {
            Ok((a, _)) if a.tier == Tier::L1 => "store.l1",
            _ => "store.l2",
        };
        let (answer, _) = layers.time_tagged("store", "resolve", tier_key, || store.resolve(&q))?;
        resolved += 1;
        if answer.tier == Tier::L1 {
            l1 += 1;
        }
        if let Some(samples) = &q.arrivals {
            layers.time("arrival", "classify_delays", || {
                pap_arrival::classify_delays(samples)
            });
        }
        let (policy, _) = policy_for(q.arrivals.as_deref());
        let (_, matrix) = oracle.evidence(q.collective, q.bytes);
        layers.time("core", "select", || select(matrix, &policy))?;
        if i % 512 == 0 {
            pap_obs::pump_spans();
        }
    }
    layers.set_value("store.l1_hit_ratio", l1 as f64 / resolved.max(1) as f64);

    // 48 cold cells drawn the way the run draws its cells (four per
    // preset and collective), and two of its probes.
    for (i, cell) in cold_cells(ctx.seed, 48).iter().enumerate() {
        let q = cell.query();
        let tag = match cell.kind {
            CollectiveKind::Reduce => "store.miss.reduce",
            CollectiveKind::Allreduce => "store.miss.allreduce",
            _ => "store.miss.alltoall",
        };
        let (answer, _) = layers.time_tagged(
            "store",
            "resolve",
            |_: &Result<_, String>| tag,
            || store.resolve(&q),
        )?;
        if answer.tier != Tier::Computed {
            return Err(format!(
                "replayed cold cell answered from {}",
                answer.tier.label()
            ));
        }
        crate::offline::model_sweep_layers(cell, layers)?;
        if i % 8 == 0 {
            pap_obs::pump_spans();
        }
    }
    for i in 0..2 {
        let (_, p) = probe(ctx.seed, i)?;
        layers
            .time("calibrate", "fit_probe", || fit_probe(&p))
            .map_err(|e| e.to_string())?;
    }
    layers.set_value("store.l2_cells", store.l2_len() as f64);
    pap_obs::pump_spans();
    Ok(())
}

/// Warm round-trip p50 (µs) of a short fixed-rate session against a
/// fresh papd: `service.transport_us` on the workloads that serve nothing.
pub fn transport_probe(ctx: &Ctx, tally: &mut Tally) -> Result<f64, String> {
    let oracle = Oracle::new()?;
    let keys = WarmKeys::new(ctx.seed);
    let (papd, _) = Starter::new(ctx, &oracle)?.start(true, tally)?;
    let mut stream = connect(&papd.addr)?;
    let warmup = keys.frames(ctx.seed, "probe-warmup", 1, 4000);
    let p = run_phase(&mut stream, &warmup.lines, 8000.0, None, false);
    account(&oracle, &keys, &warmup, &p, tally);
    let frames = keys.frames(ctx.seed, "probe", 10_000, 4 * BLOCK);
    let p = {
        let _pin = crate::net::pin_client_thread();
        run_phase(&mut stream, &frames.lines, WARM_RATE, None, true)
    };
    account(&oracle, &keys, &frames, &p, tally);
    drop(stream);
    papd.shutdown()?;
    Ok(per_block(&p.lat_us, 0.5))
}
