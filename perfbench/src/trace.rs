//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call into a layer (`Session::prepare`,
//! `Prepared::execute`, `parse_statement`, `Executor::eval_result`, ...) in
//! a span.  A span records its name, start, end, parent span and request
//! id.  Spans are pushed into a vector while the run goes and written out
//! as JSON lines when it ends; the per-layer metrics are the spans' self
//! times (duration minus the durations of their direct children).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One finished span.  `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span ids are unique across every tracer of a process, so the spans of
/// several tracers can be written to one file.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A collection of spans; shared by reference across the workload threads.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// A root scope for one request; with `tracer` `None` every span
    /// opened under it just runs its closure.
    pub fn root(tracer: Option<&Tracer>, request: u64) -> Scope<'_> {
        Scope {
            tracer,
            parent: 0,
            request,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while recording a span")
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Self time in milliseconds summed per span name.
    pub fn self_ms(&self) -> HashMap<&'static str, f64> {
        let spans = self.lock();
        let child_ms = child_ms(&spans);
        let mut out = HashMap::new();
        for s in spans.iter() {
            let own = s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// Durations in milliseconds of the spans called `name`, keyed by
    /// request id, in recording order.
    pub fn durations(&self, name: &str) -> Vec<(u64, f64)> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, s.ms()))
            .collect()
    }

    /// Share (percent) of the root spans' time that no child span covers.
    pub fn unattributed_pct(&self) -> f64 {
        let spans = self.lock();
        let child_ms = child_ms(&spans);
        let (mut total, mut own) = (0.0, 0.0);
        for s in spans.iter().filter(|s| s.parent == 0) {
            total += s.ms();
            own += s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
        }
        if total > 0.0 {
            100.0 * own / total
        } else {
            0.0
        }
    }
}

/// Summed durations of each span's direct children, by parent id.
fn child_ms(spans: &[Span]) -> HashMap<u64, f64> {
    let mut out: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *out.entry(s.parent).or_default() += s.ms();
    }
    out
}

/// The current position in the span tree: new spans become children of
/// `parent` and belong to `request`.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    parent: u64,
    request: u64,
}

impl<'a> Scope<'a> {
    /// Run `f` inside a span called `name`; `f` gets the child scope.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> T {
        let Some(tracer) = self.tracer else {
            return f(*self);
        };
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let start_ns = now_ns();
        let out = f(Scope {
            tracer: self.tracer,
            parent: id,
            request: self.request,
        });
        let end_ns = now_ns();
        tracer.lock().push(Span {
            id,
            parent: self.parent,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Write spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let root = Tracer::root(Some(&t), 7);
        root.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(spans.iter().all(|s| s.request == 7));
        let own = t.self_ms();
        assert!(own["inner"] >= 5.0);
        assert!(own["outer"] < own["inner"]);
        assert!(t.unattributed_pct() < 50.0);
    }

    #[test]
    fn untraced_scope_only_runs_the_closure() {
        let root = Tracer::root(None, 1);
        assert_eq!(root.span("x", |s| s.span("y", |_| 3)), 3);
    }
}
