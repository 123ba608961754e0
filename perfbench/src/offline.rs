//! The offline workloads, run in this process: `tune_sim` (the paper's
//! Fig. 4 tuning sweep on the simulator) and `engine_scale` (one
//! 102,400-rank measurement), plus their layer replays.

use std::time::Instant;

use pap_arrival::{generate, ArrivalPattern, Shape};
use pap_collectives::registry::experiment_ids;
use pap_collectives::{build, CollSpec, CollectiveKind};
use pap_core::{tune_machine, BenchMatrix, TunePlan};
use pap_microbench::{measure, sweep, Backend, BenchConfig, SkewPolicy, START_TARGET};
use pap_sim::{Job, Label, Op, Platform, RankProgram};

use crate::keys::ColdCell;
use crate::layers::Layers;
use crate::serve::kind_label;
use crate::util::{median, peak_rss_mib, reset_peak_rss, secs, time_each, Outcome, J};
use crate::Ctx;

/// Rank count of the tuning sweep.
pub const TUNE_RANKS: usize = 256;
/// Threads of the tuning sweep's fan-out.
const TUNE_THREADS: usize = 2;
/// The decision table of the default plan at 256 ranks, one line per
/// (collective, bytes): robust pick and status-quo pick.
const TUNE_PINS: &str = include_str!("../pins/tune_sim.txt");

/// The engine_scale cell: Allreduce recursive doubling at 8 KiB on
/// SimCluster scaled out to 102,400 ranks, last rank delayed by 100 µs.
const SCALE_RANKS: usize = 102_400;
const SCALE_ALG: u8 = 3;
const SCALE_BYTES: u64 = 8192;
const SCALE_SHAPE: Shape = Shape::LastDelayed;
const SCALE_SKEW: f64 = 100e-6;
/// Its pinned outcome: simulator events and messages of one run, and d̂.
const SCALE_PINS: &str = include_str!("../pins/engine_scale.txt");
/// Set-ups before each measurement; `setup_s` is the median of all of a
/// run's set-ups.
const SCALE_SETUPS: usize = 21;
/// Set-ups before and again after tune_sim's tunes.
const TUNE_SETUPS: usize = 51;
/// Rank count of the small sim-backed tune that measures the engine,
/// harness and fan-out layers on workloads whose own path skips them.
pub const PROBE_RANKS: usize = 32;

fn counters() -> (u64, u64) {
    let reg = pap_obs::global();
    (
        reg.counter("sim.events").get(),
        reg.counter("sim.messages").get(),
    )
}

fn decision_lines(records: &[pap_core::TuneRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {}",
                kind_label(r.entry.kind),
                r.entry.bytes,
                r.entry.alg,
                r.status_quo
            )
        })
        .collect()
}

fn pinned(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn same_bits(a: &BenchMatrix, b: &BenchMatrix) -> bool {
    a.algs == b.algs
        && a.patterns == b.patterns
        && a.values.iter().flatten().map(|v| v.to_bits()).eq(b
            .values
            .iter()
            .flatten()
            .map(|v| v.to_bits()))
}

/// Cells one `tune_machine` call measures: algorithms × patterns × sizes.
pub fn tune_cells(plan: &TunePlan) -> usize {
    plan.kinds
        .iter()
        .map(|&k| experiment_ids(k).len())
        .sum::<usize>()
        * plan.shapes.len()
        * plan.sizes.len()
}

/// The tuning sweep's inputs: platform, plan, configuration and the
/// pinned decision table.
fn tune_inputs() -> (Platform, TunePlan, BenchConfig, Vec<String>) {
    (
        Platform::simcluster(TUNE_RANKS),
        TunePlan::default(),
        BenchConfig::simulation(),
        pinned(TUNE_PINS),
    )
}

pub fn tune_sim(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    reset_peak_rss()?;
    pap_parallel::set_threads(TUNE_THREADS);
    let mut setups = time_each(TUNE_SETUPS, tune_inputs);
    let (platform, plan, cfg, pins) = tune_inputs();

    let start = Instant::now();
    let mut times = Vec::new();
    let (ev0, msg0) = counters();
    let records = loop {
        let t = Instant::now();
        let (_, records) = tune_machine(&platform, &plan, &cfg)?;
        let dt = secs(t);
        times.push(dt);
        let lines = decision_lines(&records);
        for (i, line) in lines.iter().enumerate() {
            out.tally.check(pins.get(i) == Some(line), || {
                format!("tune: decision '{line}' differs from the pinned table")
            });
        }
        out.tally.check(lines.len() == pins.len(), || {
            format!("tune: {} decisions, {} pinned", lines.len(), pins.len())
        });
        if secs(start) + dt > ctx.seconds {
            break records;
        }
    };
    let (ev1, msg1) = counters();
    let tunes = times.len() as f64;
    // Read before the re-sweeps below, whose seeded cell would set the
    // peak on some seeds.
    let rss = peak_rss_mib("self")?;
    setups.extend(time_each(TUNE_SETUPS, tune_inputs));

    // run_ref output must not depend on the thread count. tune_machine
    // sweeps each grid cell inside a par_map worker, where the sweep's own
    // fan-out runs sequentially, so re-sweep one seeded cell at top level
    // with 1 and with 2 threads and compare all three bit for bit.
    let grid: Vec<(CollectiveKind, u64)> = plan
        .kinds
        .iter()
        .flat_map(|&k| plan.sizes.iter().map(move |&b| (k, b)))
        .collect();
    let (kind, bytes) = grid[(ctx.seed % grid.len() as u64) as usize];
    let resweep = |threads: usize| {
        pap_parallel::set_threads(threads);
        let sw = sweep(
            &platform,
            kind,
            &experiment_ids(kind),
            &plan.shapes,
            bytes,
            plan.skew,
            &[],
            &cfg,
        );
        pap_parallel::set_threads(TUNE_THREADS);
        sw.map(|sw| BenchMatrix::from_sweep(&sw))
            .map_err(|e| e.to_string())
    };
    let seq = resweep(1)?;
    let top = resweep(TUNE_THREADS)?;
    let tuned = &records
        .iter()
        .find(|r| r.entry.kind == kind && r.entry.bytes == bytes)
        .expect("grid cell")
        .matrix;
    out.tally
        .check(same_bits(&seq, tuned) && same_bits(&top, tuned), || {
            format!(
                "tune: {kind:?} @ {bytes} B differs between 1 thread, {TUNE_THREADS} threads \
                 and the tuning sweep"
            )
        });

    let tune_s = median(&times);
    let cells_per_s = tune_cells(&plan) as f64 / tune_s;
    out.set_end_to_end(median(&setups), tune_s * 1e3, cells_per_s, rss);
    out.note("tune_cells_per_s", cells_per_s);
    out.side
        .set("sim.events", (ev1 - ev0) as f64 / tunes, "count");
    out.side
        .set("sim.messages", (msg1 - msg0) as f64 / tunes, "count");
    out.report
        .push(("tunes".into(), J::Int(times.len() as u64)));
    out.report.push((
        "tune_s".into(),
        J::Arr(times.iter().map(|&t| J::Num(t)).collect()),
    ));
    out.report
        .push(("cells_per_tune".into(), J::Int(tune_cells(&plan) as u64)));
    out.report
        .push(("threads".into(), J::Int(TUNE_THREADS as u64)));
    out.report.push((
        "identity_cell".into(),
        J::Str(format!("{kind:?} @ {bytes} B")),
    ));
    out.report.push((
        "decision_table".into(),
        J::Arr(decision_lines(&records).into_iter().map(J::Str).collect()),
    ));
    Ok(out)
}

fn scale_inputs() -> (Platform, ArrivalPattern) {
    let platform = Platform::simcluster(SCALE_RANKS);
    let pattern = generate(
        SCALE_SHAPE,
        SCALE_RANKS,
        SCALE_SKEW,
        BenchConfig::simulation().seed,
    );
    (platform, pattern)
}

fn scale_spec() -> CollSpec {
    CollSpec::new(CollectiveKind::Allreduce, SCALE_ALG, SCALE_BYTES)
}

pub fn engine_scale(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    reset_peak_rss()?;
    let mut setups = Vec::new();
    let (platform, pattern) = scale_inputs();
    let cfg = BenchConfig::simulation();
    let spec = scale_spec();
    let pins = pinned(SCALE_PINS);

    let start = Instant::now();
    let mut times = Vec::new();
    let counts = loop {
        // Set-ups are spread over the run, so their median samples the
        // host's speed across it rather than in one stretch.
        setups.extend(time_each(SCALE_SETUPS, scale_inputs));
        let (ev0, msg0) = counters();
        let t = Instant::now();
        let stats = measure(&platform, &spec, &pattern, &cfg).map_err(|e| e.to_string())?;
        let dt = secs(t);
        times.push(dt);
        let (ev1, msg1) = counters();
        let counts = (ev1 - ev0, msg1 - msg0);
        let got = format!(
            "events {} messages {} last_delay {:?}",
            counts.0,
            counts.1,
            stats.mean_last()
        );
        out.tally.check(pins.first() == Some(&got), || {
            format!("engine_scale: '{got}' differs from the pin")
        });
        if secs(start) + dt > ctx.seconds {
            break counts;
        }
    };
    let run_s = median(&times);
    let rss = peak_rss_mib("self")?;
    out.set_end_to_end(median(&setups), run_s * 1e3, counts.0 as f64 / run_s, rss);
    out.note("run_s", run_s);
    out.side.set("sim.events", counts.0 as f64, "count");
    out.side.set("sim.messages", counts.1 as f64, "count");
    out.report.push(("runs".into(), J::Int(times.len() as u64)));
    out.report.push((
        "run_s_all".into(),
        J::Arr(times.iter().map(|&t| J::Num(t)).collect()),
    ));
    out.report.push(("cell".into(), J::Str(format!(
        "Allreduce alg {SCALE_ALG} @ {SCALE_BYTES} B, simcluster x {SCALE_RANKS}, {} skew {SCALE_SKEW} s",
        SCALE_SHAPE.name()
    ))));
    Ok(out)
}

/// Build the schedule and compile the job of one measurement cell, the
/// way the harness does, timing each call.
fn build_and_compile(
    platform: &Platform,
    spec: &CollSpec,
    pattern: &ArrivalPattern,
    layers: &mut Layers,
) -> Result<(), String> {
    let p = platform.ranks;
    let built = layers
        .time("collectives", "build", || build(spec, p))
        .map_err(|e| e.to_string())?;
    let label = Label {
        kind: spec.kind.label_kind(),
        seq: 0,
    };
    let programs: Vec<RankProgram> = built
        .rank_ops
        .into_iter()
        .enumerate()
        .map(|(r, ops)| {
            let mut prog = RankProgram::new();
            prog.push_anon(vec![
                Op::SleepUntil { time: START_TARGET },
                Op::delay(pattern.delay_of(r)),
            ]);
            prog.push_labeled(label, ops);
            prog
        })
        .collect();
    let job = layers.time("sim", "job_new", || Job::new(programs));
    drop(std::hint::black_box(job));
    Ok(())
}

/// Build and compile every (collective, size, algorithm) schedule of the
/// default plan once at `ranks`: tune_sim's replay at its own rank count,
/// the serving workloads' at [`PROBE_RANKS`], to match [`layer_probe`].
pub fn tune_replay(ranks: usize, layers: &mut Layers) -> Result<(), String> {
    let plan = TunePlan::default();
    let nodelay = generate(Shape::NoDelay, ranks, 0.0, 0);
    let platform = Platform::simcluster(ranks);
    for &kind in &plan.kinds {
        for &bytes in &plan.sizes {
            for alg in experiment_ids(kind) {
                build_and_compile(
                    &platform,
                    &CollSpec::new(kind, alg, bytes),
                    &nodelay,
                    layers,
                )?;
            }
        }
    }
    Ok(())
}

/// A default-plan tune on the sim backend at [`PROBE_RANKS`] ranks with
/// tune_sim's thread count, under a `bench/layer_probe` span: the engine,
/// harness and `par_map` spans of workloads whose own path has none.
/// Returns the simulator events and messages it took.
pub fn layer_probe() -> Result<(u64, u64), String> {
    let _span = pap_obs::span("bench", "layer_probe");
    pap_parallel::set_threads(TUNE_THREADS);
    let (ev0, msg0) = counters();
    tune_machine(
        &Platform::simcluster(PROBE_RANKS),
        &TunePlan::default(),
        &BenchConfig::simulation(),
    )?;
    let (ev1, msg1) = counters();
    Ok((ev1 - ev0, msg1 - msg0))
}

/// engine_scale's replay: build and compile the 102,400-rank cell.
pub fn scale_replay(layers: &mut Layers) -> Result<(), String> {
    let (platform, pattern) = scale_inputs();
    build_and_compile(&platform, &scale_spec(), &pattern, layers)
}

/// A cold cell's inline computation, layer by layer: the whole model
/// sweep, then every model evaluation the sweep makes (no-delay
/// calibration of the skew, then each algorithm under each pattern).
pub fn model_sweep_layers(cell: &ColdCell, layers: &mut Layers) -> Result<(), String> {
    let platform = Platform::try_preset(cell.machine, cell.ranks)?;
    let algs = experiment_ids(cell.kind);
    let cfg = BenchConfig::simulation().with_backend(Backend::Model);
    layers
        .time("microbench", "sweep_model", || {
            sweep(
                &platform,
                cell.kind,
                &algs,
                &Shape::SUITE,
                cell.bytes,
                SkewPolicy::FactorOfAvg(1.0),
                &[],
                &cfg,
            )
        })
        .map_err(|e| e.to_string())?;
    let p = platform.ranks;
    let nodelay = generate(Shape::NoDelay, p, 0.0, 0);
    let mut sum = 0.0;
    for &alg in &algs {
        let spec = CollSpec::new(cell.kind, alg, cell.bytes);
        sum += layers
            .time("model", "predict", || {
                pap_model::predict(&platform, &spec, &nodelay)
            })
            .map_err(|e| e.to_string())?
            .last_delay;
    }
    let skew = sum / algs.len() as f64;
    for shape in Shape::SUITE.into_iter().filter(|&s| s != Shape::NoDelay) {
        let pattern = generate(shape, p, skew, cfg.seed);
        for &alg in &algs {
            let spec = CollSpec::new(cell.kind, alg, cell.bytes);
            layers
                .time("model", "predict", || {
                    pap_model::predict(&platform, &spec, &pattern)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
