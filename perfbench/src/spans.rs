//! The traced run's recorder: spans around coarse library calls and
//! aggregated counters around per-cycle calls, kept in memory until the
//! run ends and then written as Chrome trace-event JSON.
//!
//! A disabled recorder does no clock reads at all, so the untraced
//! passes pay nothing for it.

use snacknoc_trace::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Count, total and maximum host time of one per-cycle call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter {
    /// Calls recorded.
    pub count: u64,
    /// Summed host time, ns.
    pub total_ns: u64,
    /// Longest single call, ns.
    pub max_ns: u64,
}

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
}

/// Span and counter recorder; see the module docs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, Counter>,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A recorder that records (`on`) or ignores everything.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// matching [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>) {
        if !self.on {
            return;
        }
        let start_ns = ns_since(self.origin);
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].dur_ns = ns_since(self.origin).saturating_sub(self.spans[i].start_ns);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Runs `f`, adding its host time to the counter `name`.
    pub fn count<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = ns_since(t);
        let c = self.counters.entry(name).or_default();
        c.count += 1;
        c.total_ns += ns;
        c.max_ns = c.max_ns.max(ns);
        r
    }

    /// The counter `name` (all zero if never recorded).
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Durations (ns) of every closed span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Summed duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, with
    /// its id and its parent's id in `args`, then one counter (`"C"`)
    /// event per counter.
    pub fn chrome_json(&self) -> String {
        let us = |ns: u64| ns as f64 / 1_000.0;
        let mut out = String::from("[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (id, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                us(s.start_ns),
                us(s.dur_ns),
            );
        }
        let end = us(ns_since(self.origin));
        for (name, c) in &self.counters {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"perfbench\",\"ph\":\"C\",\"ts\":{end:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}}}",
                c.count, c.total_ns, c.max_ns,
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Parses `text` (this recorder's [`Tracer::chrome_json`]) with the
    /// in-tree JSON parser and checks it holds exactly this recorder's
    /// spans and counters, each parent id naming an earlier span.
    pub fn validate(&self, text: &str) -> Result<(), String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let events = doc.as_arr().ok_or("trace is not a JSON array")?;
        let (mut spans, mut counters) = (0usize, 0usize);
        for (i, ev) in events.iter().enumerate() {
            let field = |k: &str| ev.get(k).ok_or_else(|| format!("event {i} has no \"{k}\""));
            let num = |k: &str| {
                field(k)?
                    .as_f64()
                    .ok_or_else(|| format!("event {i}: \"{k}\" is not a number"))
            };
            field("name")?
                .as_str()
                .ok_or_else(|| format!("event {i}: name is not a string"))?;
            num("ts")?;
            match field("ph")?.as_str() {
                Some("X") => {
                    if num("dur")? < 0.0 {
                        return Err(format!("event {i}: negative duration"));
                    }
                    let args = field("args")?;
                    let id = args.get("id").and_then(Json::as_f64);
                    let parent = args.get("parent").and_then(Json::as_f64);
                    match (id, parent) {
                        (Some(id), Some(p)) if id == spans as f64 && p < id => {}
                        _ => return Err(format!("event {i}: bad span id or parent")),
                    }
                    spans += 1;
                }
                Some("C") => counters += 1,
                other => return Err(format!("event {i}: unexpected phase {other:?}")),
            }
        }
        if spans != self.spans.len() || counters != self.counters.len() {
            return Err(format!(
                "trace holds {spans} spans and {counters} counters, recorder holds {} and {}",
                self.spans.len(),
                self.counters.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("a");
        t.count("c", || ());
        t.end();
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.counter("c").count, 0);
    }

    #[test]
    fn chrome_json_round_trips_through_the_in_tree_parser() {
        let mut t = Tracer::new(true);
        t.begin("pass");
        t.span("build", || std::hint::black_box(1 + 1));
        for _ in 0..3 {
            t.count("noc.step", || ());
        }
        t.end();
        assert_eq!(t.counter("noc.step").count, 3);
        assert_eq!(t.durations("build").len(), 1);
        let text = t.chrome_json();
        t.validate(&text).expect("valid trace");
        assert!(t.validate("[]").is_err());
        assert!(t.validate("{").is_err());
    }
}
