//! Per-layer timing for the traced run: spans around calls into each
//! crate, kept in memory, exported as a Chrome trace and folded into
//! self times.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pap_obs::SpanRecord;

use crate::util::{mean, J};

/// Call durations by layer key, in seconds, plus derived values.
#[derive(Default)]
pub struct Layers {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Time `f` under a span named `cat`/`name`, filed under `name`.
    pub fn time<T>(&mut self, cat: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_tagged(cat, name, |_| name, f)
    }

    /// Like [`Layers::time`], but filed under a key chosen from the result
    /// (e.g. the tier that answered).
    pub fn time_tagged<T>(
        &mut self,
        cat: &'static str,
        name: &'static str,
        tag: impl FnOnce(&T) -> &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = pap_obs::span(cat, name);
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64();
        drop(span);
        self.samples.entry(tag(&out)).or_default().push(dt);
        out
    }

    pub fn set_value(&mut self, key: &'static str, v: f64) {
        self.values.insert(key, v);
    }

    /// Mean duration of a key's calls, scaled (e.g. 1e6 for µs); 0 when the
    /// layer was not called.
    pub fn mean_of(&self, key: &str, scale: f64) -> f64 {
        self.samples.get(key).map_or(0.0, |v| mean(v) * scale)
    }
}

/// Spans captured while tracing is on.
pub struct Capture {
    spans: Arc<Mutex<Vec<SpanRecord>>>,
}

impl Capture {
    /// Start keeping every span in memory and turn capture on.
    pub fn start() -> Capture {
        pap_obs::drain_spans();
        let spans = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&spans);
        pap_obs::set_span_stream(Some(Box::new(move |batch: &[SpanRecord]| {
            sink.lock()
                .expect("span sink poisoned")
                .extend_from_slice(batch);
        })));
        pap_obs::set_enabled(true);
        Capture { spans }
    }

    /// Turn capture off and return every span recorded since `start`.
    pub fn finish(self) -> Vec<SpanRecord> {
        pap_obs::set_enabled(false);
        pap_obs::pump_spans();
        pap_obs::set_span_stream(None);
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.thread));
        spans
    }
}

/// Spans per validated piece of the trace (see [`write_trace`]).
const VALIDATE_CHUNK: usize = 128;

/// Write the spans as one Chrome trace and check the exporter's output
/// with `validate_trace`. The check runs on pieces of `VALIDATE_CHUNK`
/// spans, each exported as a trace of its own: the vendored JSON parser
/// re-validates the rest of the document for every string character, so
/// its cost grows with the square of the document's size.
pub fn write_trace(spans: &[SpanRecord], path: &std::path::Path) -> Result<J, String> {
    let to_json = |s: &[SpanRecord]| {
        serde_json::to_string(&pap_obs::chrome::from_spans(s)).map_err(|e| e.to_string())
    };
    let mut events = 0;
    let mut slices = 0;
    for chunk in spans.chunks(VALIDATE_CHUNK) {
        let stats = pap_obs::validate_trace(&to_json(chunk)?)?;
        events += stats.events;
        slices += stats.slices;
    }
    if slices != spans.len() {
        return Err(format!(
            "trace holds {slices} slices for {} spans",
            spans.len()
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, to_json(spans)?).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(J::Obj(vec![
        ("path".into(), J::Str(path.display().to_string())),
        ("spans".into(), J::Int(spans.len() as u64)),
        ("validated_events".into(), J::Int(events as u64)),
        ("dropped".into(), J::Int(pap_obs::trace::dropped_spans())),
    ]))
}

/// Per span name: calls, total and self time (duration minus the part its
/// child spans on the same thread cover), in ms.
pub struct SelfTime {
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, SelfTime> {
    let mut by_thread: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for (_, mut list) in by_thread {
        list.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        // Stack of (span, time covered by its direct children).
        let mut stack: Vec<(&SpanRecord, u64)> = Vec::new();
        let mut close = |(s, child): (&SpanRecord, u64),
                         parent: Option<&mut (&SpanRecord, u64)>| {
            let dur = s.end_ns - s.start_ns;
            let e = out
                .entry(format!("{}/{}", s.cat, s.name))
                .or_insert(SelfTime {
                    calls: 0,
                    total_ms: 0.0,
                    self_ms: 0.0,
                });
            e.calls += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += dur.saturating_sub(child) as f64 / 1e6;
            if let Some(p) = parent {
                p.1 += dur;
            }
        };
        for s in list {
            while stack
                .last()
                .is_some_and(|(top, _)| top.end_ns <= s.start_ns)
            {
                let done = stack.pop().expect("checked non-empty");
                close(done, stack.last_mut());
            }
            stack.push((s, 0));
        }
        while let Some(done) = stack.pop() {
            close(done, stack.last_mut());
        }
    }
    out
}

pub fn self_times_json(t: &BTreeMap<String, SelfTime>) -> J {
    J::Obj(
        t.iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    J::Obj(vec![
                        ("calls".into(), J::Int(s.calls)),
                        ("total_ms".into(), J::Num(s.total_ms)),
                        ("self_ms".into(), J::Num(s.self_ms)),
                    ]),
                )
            })
            .collect(),
    )
}
