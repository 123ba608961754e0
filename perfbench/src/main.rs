//! `pap-perfbench`: the pap workspace's benchmark.
//!
//! ```text
//! pap-perfbench --workload {serve_warm|serve_mixed|tune_sim|engine_scale}
//!               --seed N --seconds S --trace {0|1} --papd PATH
//!               [--out DIR] [--rustc VERSION] [--commit ID] [--source-digest HEX]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the workload runs once untraced and once traced, then
//! its generated inputs are replayed through each layer's public calls
//! under spans, and the line carries the per-layer metrics. The line
//! before it is a report: seed, host, failures and details.
//! `perfbench/run.py` builds this binary and `papd` from source and runs
//! it; see `perfbench/DESIGN.md`.

mod keys;
mod layers;
mod net;
mod offline;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use pap_obs::SpanRecord;

use layers::{self_times, self_times_json, write_trace, Capture, Layers};
use util::{median, Metrics, Outcome, Tally, END_TO_END, J};

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub papd: String,
    pub out: PathBuf,
}

fn run_e2e(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "serve_warm" => serve::serve_warm(ctx),
        "serve_mixed" => serve::serve_mixed(ctx),
        "tune_sim" => offline::tune_sim(ctx),
        "engine_scale" => offline::engine_scale(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Busy share and tail of `par_map` fan-outs: per `pool/par_map` span,
/// the measurement-cell spans its worker threads ran, over workers × wall;
/// and the spread of the workers' last finishes.
fn parallel_stats(spans: &[SpanRecord]) -> (f64, f64) {
    let (mut busy, mut cap, mut tails) = (0u64, 0u64, Vec::new());
    for map in spans
        .iter()
        .filter(|s| s.cat == "pool" && s.name == "par_map")
    {
        let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| {
            s.name == "measure_cell"
                && s.thread != map.thread
                && s.start_ns >= map.start_ns
                && s.end_ns <= map.end_ns
        }) {
            busy += s.end_ns - s.start_ns;
            let e = last_end.entry(s.thread).or_default();
            *e = (*e).max(s.end_ns);
        }
        if last_end.is_empty() {
            continue;
        }
        cap += last_end.len() as u64 * (map.end_ns - map.start_ns);
        let (lo, hi) = (
            last_end.values().min().unwrap(),
            last_end.values().max().unwrap(),
        );
        tails.push((hi - lo) as f64 / 1e6);
    }
    (
        if cap == 0 {
            0.0
        } else {
            busy as f64 / cap as f64
        },
        util::mean(&tails),
    )
}

/// The spans inside the first span named `name` (itself included), on
/// any thread.
fn within(spans: &[SpanRecord], name: &str) -> Vec<SpanRecord> {
    let Some(w) = spans.iter().find(|s| s.cat == "bench" && s.name == name) else {
        return Vec::new();
    };
    spans
        .iter()
        .filter(|s| s.start_ns >= w.start_ns && s.end_ns <= w.end_ns)
        .cloned()
        .collect()
}

/// What the traced run measured, beyond the layer replay's samples.
struct Traced<'a> {
    /// Every span captured: the traced run, the replay and the probe.
    spans: &'a [SpanRecord],
    plain: &'a Outcome,
    traced: &'a Outcome,
    /// Warm round-trip p50 the transport figure is derived from, µs.
    warm_p50_us: f64,
}

/// Engine, harness and `par_map` figures come from the workload's own
/// traced run where its path has them (engine and harness: tune_sim and
/// engine_scale; `par_map`: tune_sim), and from the layer probe otherwise.
fn layer_metrics(ctx: &Ctx, layers: &Layers, t: &Traced) -> Metrics {
    let mut m = Metrics::default();
    let (us, ms) = (1e6, 1e3);
    let p50 = |key: &str| layers.samples.get(key).map_or(0.0, |v| median(v));
    let offline = matches!(ctx.workload.as_str(), "tune_sim" | "engine_scale");
    let own = within(t.spans, "traced_run");
    let probe = within(t.spans, "layer_probe");
    let st = self_times(if offline { &own } else { &probe });
    let pool = if ctx.workload == "tune_sim" {
        &own
    } else {
        &probe
    };
    m.set(
        "service.decode_us",
        layers.mean_of("decode_request", us),
        "us",
    );
    m.set(
        "service.encode_us",
        layers.mean_of("encode_frame", us),
        "us",
    );
    m.set(
        "service.dispatch_us",
        layers.mean_of("serve_frame", us),
        "us",
    );
    let transport = t.warm_p50_us - (p50("serve_frame") + p50("encode_frame")) * us;
    m.set("service.transport_us", transport, "us");
    m.set("store.l1_us", layers.mean_of("store.l1", us), "us");
    m.set("store.l2_us", layers.mean_of("store.l2", us), "us");
    m.set(
        "store.l1_hit_ratio",
        layers
            .values
            .get("store.l1_hit_ratio")
            .copied()
            .unwrap_or(0.0),
        "ratio",
    );
    for (name, key) in [
        ("store.miss_ms.reduce", "store.miss.reduce"),
        ("store.miss_ms.allreduce", "store.miss.allreduce"),
        ("store.miss_ms.alltoall", "store.miss.alltoall"),
    ] {
        m.set(name, layers.mean_of(key, ms), "ms");
    }
    let side_or_layer = |key: &str| {
        t.plain
            .side
            .get(key)
            .or_else(|| layers.values.get(key).copied())
            .unwrap_or(0.0)
    };
    m.set("store.l2_cells", side_or_layer("store.l2_cells"), "count");
    m.set(
        "arrival.classify_us",
        layers.mean_of("classify_delays", us),
        "us",
    );
    m.set("core.select_us", layers.mean_of("select", us), "us");
    m.set(
        "microbench.sweep_model_ms",
        layers.mean_of("sweep_model", ms),
        "ms",
    );
    m.set("model.predict_us", layers.mean_of("predict", us), "us");
    m.set("calibrate.fit_ms", layers.mean_of("fit_probe", ms), "ms");
    let build_ms = layers.mean_of("build", ms);
    let job_ms = layers.mean_of("job_new", ms);
    m.set("collectives.build_ms", build_ms, "ms");
    m.set("sim.job_new_ms", job_ms, "ms");
    // The serving workloads' own simulator runs (probe synthesis, the
    // oracle) are the benchmark's preparation, not papd's work, so their
    // engine and harness figures come from the layer probe.
    let per_call = |name: &str| {
        st.get(name)
            .filter(|s| s.calls > 0)
            .map(|s| (s.total_ms / s.calls as f64, s.self_ms / s.calls as f64))
    };
    m.set("sim.run_ms", per_call("sim/run").map_or(0.0, |r| r.0), "ms");
    m.set("sim.events", side_or_layer("sim.events"), "count");
    m.set("sim.messages", side_or_layer("sim.messages"), "count");
    let fold =
        per_call("bench/measure_cell").map_or(0.0, |(_, self_ms)| self_ms - build_ms - job_ms);
    m.set("microbench.fold_ms", fold, "ms");
    let (busy, tail) = parallel_stats(pool);
    m.set("parallel.busy_frac", busy, "ratio");
    m.set("parallel.tail_ms", tail, "ms");
    for name in END_TO_END {
        let pct = match (t.plain.metrics.get(name), t.traced.metrics.get(name)) {
            (Some(p), Some(t)) if p != 0.0 => (t - p) / p * 100.0,
            _ => 0.0,
        };
        m.set(&format!("obs.trace_overhead_pct.{name}"), pct, "%");
    }
    m
}

/// Untraced run, traced run, then the per-layer replay and the layer
/// probe under spans. Every workload replays the seed's serving inputs
/// and builds its own schedules (tune_sim: the plan at 256 ranks;
/// engine_scale: its cell; the serving workloads: the plan at the probe's
/// rank count), so every per-layer metric is measured on every workload.
fn run_traced(ctx: &Ctx) -> Result<(Outcome, Vec<(String, J)>), String> {
    let t0 = std::time::Instant::now();
    let stage = |what: &str| {
        eprintln!(
            "pap-perfbench: {what} at {:.1} s",
            t0.elapsed().as_secs_f64()
        )
    };
    let plain = run_e2e(ctx)?;
    stage("untraced run done");
    let capture = Capture::start();
    let traced = {
        let _span = pap_obs::span("bench", "traced_run");
        run_e2e(ctx)
    };
    let mut layers = Layers::default();
    let serving = matches!(ctx.workload.as_str(), "serve_warm" | "serve_mixed");
    let replayed = traced.and_then(|traced| {
        serve::replay(ctx, &mut layers)?;
        match ctx.workload.as_str() {
            "tune_sim" => offline::tune_replay(offline::TUNE_RANKS, &mut layers)?,
            "engine_scale" => offline::scale_replay(&mut layers)?,
            _ => offline::tune_replay(offline::PROBE_RANKS, &mut layers)?,
        }
        if ctx.workload != "tune_sim" {
            let (events, messages) = offline::layer_probe()?;
            if serving {
                layers.set_value("sim.events", events as f64);
                layers.set_value("sim.messages", messages as f64);
            }
        }
        Ok(traced)
    });
    let spans = capture.finish();
    stage("traced run, replay and layer probe done");
    let traced = replayed?;
    let mut probe_tally = Tally::default();
    let warm_p50_us = match plain.side.get("warm_p50_us") {
        Some(p50) => p50,
        None => serve::transport_probe(ctx, &mut probe_tally)?,
    };
    let path = ctx
        .out
        .join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    let trace = write_trace(&spans, &path)?;
    stage("trace written and validated");
    let st = self_times(&spans);
    let metrics = layer_metrics(
        ctx,
        &layers,
        &Traced {
            spans: &spans,
            plain: &plain,
            traced: &traced,
            warm_p50_us,
        },
    );

    let mut out = Outcome {
        metrics,
        ..Outcome::default()
    };
    for tally in [&plain.tally, &traced.tally, &probe_tally] {
        out.tally.attempted += tally.attempted;
        out.tally.failed += tally.failed;
        for (k, v) in &tally.notes {
            *out.tally.notes.entry(k.clone()).or_default() += v;
        }
    }
    let calls = J::Obj(
        layers
            .samples
            .iter()
            .map(|(k, v)| (k.to_string(), J::Int(v.len() as u64)))
            .collect(),
    );
    let report = vec![
        ("untraced".into(), plain.metrics.to_json()),
        ("traced".into(), traced.metrics.to_json()),
        ("trace".into(), trace),
        ("layer_calls".into(), calls),
        ("self_time".into(), self_times_json(&st)),
    ];
    Ok((out, report))
}

fn host(args: &BTreeMap<String, String>) -> J {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let arg = |k: &str| J::Str(args.get(k).cloned().unwrap_or_else(|| "unknown".into()));
    J::Obj(vec![
        ("nproc".into(), J::Int(nproc as u64)),
        ("cpu".into(), J::Str(cpu)),
        (
            "kernel".into(),
            J::Str(read("/proc/sys/kernel/osrelease").trim().to_string()),
        ),
        ("rustc".into(), arg("rustc")),
        ("commit".into(), arg("commit")),
        ("source_digest".into(), arg("source-digest")),
    ])
}

fn parse(raw: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut args = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        args.insert(key.to_string(), value.clone());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&raw).and_then(|args| {
        let get = |k: &str| {
            args.get(k)
                .cloned()
                .ok_or_else(|| format!("--{k} is required"))
        };
        let ctx = Ctx {
            workload: get("workload")?,
            seed: get("seed")?
                .parse()
                .map_err(|_| "--seed must be an unsigned integer")?,
            seconds: get("seconds")?
                .parse()
                .map_err(|_| "--seconds must be a number")?,
            papd: get("papd")?,
            out: PathBuf::from(
                args.get("out")
                    .cloned()
                    .unwrap_or_else(|| "perfbench/out".into()),
            ),
        };
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        net::tighten_timer_slack();
        let (out, extra) = if trace {
            run_traced(&ctx)?
        } else {
            (run_e2e(&ctx)?, Vec::new())
        };
        Ok((ctx, trace, host(&args), out, extra))
    });
    let (ctx, trace, host, mut out, extra) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pap-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fail_ratio = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    let mut report = vec![
        ("workload".into(), J::Str(ctx.workload.clone())),
        ("seed".into(), J::Int(ctx.seed)),
        ("seconds".into(), J::Num(ctx.seconds)),
        ("trace".into(), J::Bool(trace)),
        ("host".into(), host),
        ("fail_ratio".into(), J::Num(fail_ratio)),
        (
            "failures".into(),
            J::Obj(
                out.tally
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), J::Int(*v)))
                    .collect(),
            ),
        ),
        ("layer_values".into(), out.side.to_json()),
    ];
    report.append(&mut out.report);
    report.extend(extra);
    println!("{}", J::Obj(vec![("report".into(), J::Obj(report))]));
    let correct = out.tally.failed == 0 && out.tally.attempted > 0;
    println!(
        "{}",
        J::Obj(vec![
            ("correct".into(), J::Bool(correct)),
            ("attempted".into(), J::Int(out.tally.attempted.max(1))),
            ("failed".into(), J::Int(out.tally.failed)),
            ("metrics".into(), out.metrics.to_json()),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
