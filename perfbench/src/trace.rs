//! The benchmark's own spans. Each call the benchmark makes into a
//! layer's public function is wrapped in a span (name, layer, start,
//! end, parent span, request id); spans are kept in memory and written
//! out when the run ends, next to the program's own `Obs` events.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent child spans. Returns `f`'s result and the span duration
    /// in seconds.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        request: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        // Reserve the id before running `f`, so children get later ids.
        let id = {
            let mut spans = self.spans.lock().expect("span list lock");
            let id = spans.len() as u64 + 1;
            spans.push(SpanRec {
                id,
                parent,
                request,
                layer,
                name,
                start_us: self.now_us(),
                end_us: f64::NAN,
            });
            id
        };
        let out = f(id);
        let end = self.now_us();
        let mut spans = self.spans.lock().expect("span list lock");
        let rec = &mut spans[id as usize - 1];
        rec.end_us = end;
        let secs = (rec.end_us - rec.start_us) / 1e6;
        (out, secs)
    }

    /// Records a span measured by the program itself (for example the
    /// optimizer's own `opt_seconds`) as a child of the closed span
    /// `parent`, placed at the parent's start or ending at its end.
    pub fn child_from_duration(
        &self,
        parent: u64,
        request: u64,
        layer: &'static str,
        name: &'static str,
        secs: f64,
        at_start: bool,
    ) {
        let mut spans = self.spans.lock().expect("span list lock");
        let p = &spans[parent as usize - 1];
        let (start_us, end_us) = if at_start {
            (p.start_us, p.start_us + secs * 1e6)
        } else {
            (p.end_us - secs * 1e6, p.end_us)
        };
        let id = spans.len() as u64 + 1;
        spans.push(SpanRec {
            id,
            parent: Some(parent),
            request,
            layer,
            name,
            start_us,
            end_us,
        });
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part of it its children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list lock");
        let mut child_us = vec![0.0f64; spans.len() + 1];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.end_us - s.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end_us - s.start_us - child_us[s.id as usize]).max(0.0);
            *out.entry(s.layer).or_insert(0.0) += own / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span list lock");
        let mut out = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"layer\": \"{}\", \
                 \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}\n",
                s.id, s.request, s.layer, s.name, s.start_us, s.end_us
            ));
        }
        out
    }
}
