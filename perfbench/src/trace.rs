//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Tracer`] covers one traced section. Each [`Tracer::span`] records
//! its name, start, end and whether it ran inside another span; spans
//! stay in memory until the section ends. [`Tracer::finish`] checks the
//! span-sum invariant: the unattributed rest (wall − Σ top-level spans)
//! lies between 0 and a small share of the section's wall time. A
//! disabled tracer runs the same closures without reading the clock,
//! which is the untraced arm the tracing overhead is measured against.

use std::collections::BTreeMap;
use std::time::Instant;

/// Largest share of a section's wall time the spans may leave
/// unattributed before the trace counts as failed.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.05;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer metric the span feeds.
    name: &'static str,
    /// Start, seconds since the section began.
    start: f64,
    /// End, seconds since the section began.
    end: f64,
    /// Whether the span ran inside another one.
    nested: bool,
}

impl Span {
    /// Duration in seconds.
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Recorder for one traced section.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    /// Spans currently open.
    depth: usize,
}

/// Totals of a finished section.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Wall seconds of the section.
    pub wall: f64,
    /// Wall seconds no span covers.
    pub unattributed: f64,
    /// Per span name: summed duration (children included).
    total: BTreeMap<&'static str, f64>,
    /// Per span name: every duration, in recording order.
    durations: BTreeMap<&'static str, Vec<f64>>,
    /// Whether the span-sum invariant held.
    pub invariant_ok: bool,
}

impl Tracer {
    /// A recording tracer; the section starts now.
    pub fn on() -> Tracer {
        Tracer { origin: Some(Instant::now()), spans: Vec::new(), depth: 0 }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { origin: None, spans: Vec::new(), depth: 0 }
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f`
    /// through the tracer it receives become this span's children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let idx = self.spans.len();
        let nested = self.depth > 0;
        let start = origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, nested });
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        self.spans[idx].end = origin.elapsed().as_secs_f64();
        out
    }

    /// End the section and total its spans. `None` for a disabled
    /// tracer.
    pub fn finish(self) -> Option<Summary> {
        let wall = self.origin?.elapsed().as_secs_f64();
        let mut total: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut top_level = 0.0;
        for s in &self.spans {
            *total.entry(s.name).or_default() += s.secs();
            durations.entry(s.name).or_default().push(s.secs());
            if !s.nested {
                top_level += s.secs();
            }
        }
        let unattributed = wall - top_level;
        let invariant_ok = (0.0..=MAX_UNATTRIBUTED_SHARE * wall).contains(&unattributed);
        Some(Summary { wall, unattributed, total, durations, invariant_ok })
    }
}

impl Summary {
    /// Add another section's totals: the sections ran one after the
    /// other, so walls, spans and unattributed time all add up.
    pub fn absorb(&mut self, other: Summary) {
        self.wall += other.wall;
        self.unattributed += other.unattributed;
        for (name, secs) in other.total {
            *self.total.entry(name).or_default() += secs;
        }
        for (name, secs) in other.durations {
            self.durations.entry(name).or_default().extend(secs);
        }
        self.invariant_ok &= other.invariant_ok;
    }

    /// Summed duration of the spans named `name` (0 when none ran).
    pub fn total(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }

    /// Every duration of the spans named `name`.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(secs: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < secs {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_sum_to_wall() {
        let mut tr = Tracer::on();
        tr.span("outer", |tr| {
            spin(0.002);
            tr.span("inner", |_| spin(0.003));
        });
        tr.span("leaf", |_| spin(0.001));
        let s = tr.finish().expect("recording tracer");
        assert!(s.invariant_ok, "{s:?}");
        assert!(s.total("outer") >= s.total("inner") + 0.002);
        let top = s.total("outer") + s.total("leaf");
        assert!((top + s.unattributed - s.wall).abs() < 1e-9);
        assert_eq!(s.durations("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_runs_closures() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 41) + 1), 42);
        assert!(tr.finish().is_none());
    }

    #[test]
    fn uncovered_time_breaks_the_invariant() {
        let mut tr = Tracer::on();
        tr.span("short", |_| spin(0.001));
        spin(0.01);
        assert!(!tr.finish().expect("recording tracer").invariant_ok);
    }
}
