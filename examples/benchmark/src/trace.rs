//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Each thread keeps its spans in memory (name, start, end, parent, job
//! id, and one count measured at the boundary); they are merged and
//! written out as JSON lines when the run ends. A span's self time is its
//! duration minus the part of it that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use pga_serve::protocol::Json;

use crate::stats::Sample;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
    /// A count taken at the boundary: evaluations folded, bytes written.
    pub count: Option<u64>,
}

/// One thread's spans, timed from an origin shared by all threads. While
/// disabled it records nothing and every call is a branch.
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>, job: Option<u64>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            job,
            count: None,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>, count: Option<u64>) {
        if let Some(i) = span {
            let end_ns = self.ns(Instant::now());
            let span = &mut self.spans[i];
            span.end_ns = end_ns;
            span.count = count;
        }
    }

    /// Records a finished span whose bounds were taken by the caller.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        job: Option<u64>,
        (start, end): (Instant, Instant),
        count: Option<u64>,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
                job,
                count,
            });
        }
    }
}

/// The spans of one run, merged from every thread's [`Trace`].
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl Spans {
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Self {
        let mut spans = Vec::new();
        for trace in traces {
            let offset = spans.len();
            spans.extend(trace.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
        }
        let self_ns = self_times(&spans);
        Self { spans, self_ns }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self times of every span called `name`, divided by `per_unit_ns`
    /// (1 000 for microseconds, 1 000 000 for milliseconds).
    pub fn self_times(&self, name: &str, per_unit_ns: f64) -> Sample {
        Sample::new(
            self.spans
                .iter()
                .zip(&self.self_ns)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &ns)| ns as f64 / per_unit_ns)
                .collect(),
        )
    }

    /// The boundary counts of every span called `name`.
    pub fn counts(&self, name: &str) -> Sample {
        Sample::new(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .filter_map(|s| s.count.map(|c| c as f64))
                .collect(),
        )
    }

    /// Sum of self times (ns) of the `name` spans under each job id.
    pub fn self_ns_by_job(&self, names: &[&str]) -> std::collections::BTreeMap<u64, u64> {
        let mut by_job = std::collections::BTreeMap::new();
        for (span, &ns) in self.spans.iter().zip(&self.self_ns) {
            if let (Some(job), true) = (span.job, names.contains(&span.name.as_str())) {
                *by_job.entry(job).or_insert(0) += ns;
            }
        }
        by_job
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        for (i, (span, &self_ns)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let line = Json::Obj(vec![
                ("span".into(), Json::Num(i as f64)),
                ("name".into(), Json::Str(span.name.clone())),
                ("start_us".into(), Json::Num(span.start_ns as f64 / 1e3)),
                ("end_us".into(), Json::Num(span.end_ns as f64 / 1e3)),
                ("self_us".into(), Json::Num(self_ns as f64 / 1e3)),
                ("parent".into(), opt(span.parent.map(|p| p as u64))),
                ("job".into(), opt(span.job)),
                ("count".into(), opt(span.count)),
            ]);
            writeln!(out, "{}", line.to_json_string())?;
        }
        out.flush()
    }
}

/// Each span's duration minus the union of its children's intervals
/// (clipped to the span itself).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            job: None,
            count: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the first child
            span(90, 120, Some(0)), // runs past its parent
            span(25, 28, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 17, 30, 30, 3]);
    }
}
