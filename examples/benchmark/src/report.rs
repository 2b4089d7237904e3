//! What one workload run measured, and how it is printed.

use std::time::Duration;

use pga_serve::protocol::Json;

use crate::replay::poll_span;
use crate::stats::Sample;
use crate::trace::Spans;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
}

/// Options every workload runs with.
pub struct RunOpts {
    pub seed: u64,
    pub trace: bool,
    pub phases: Phases,
    /// Working directory of this run (spools); removed when the run ends.
    pub run_dir: std::path::PathBuf,
}

/// A run's timeline, from the moment load starts: a warm-up that is not
/// measured, then (traced runs only) an untraced reference window, then
/// the measured window — traced in traced runs.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warmup: Duration,
    pub reference: Duration,
    pub window: Duration,
}

impl Phases {
    pub fn reference_start(&self) -> Duration {
        self.warmup
    }

    pub fn window_start(&self) -> Duration {
        self.warmup + self.reference
    }

    pub fn end(&self) -> Duration {
        self.warmup + self.reference + self.window
    }

    /// `true` when `t` falls in the measured window.
    pub fn in_window(&self, t: Duration) -> bool {
        t >= self.window_start() && t < self.end()
    }

    /// `true` when `t` falls in the reference window.
    pub fn in_reference(&self, t: Duration) -> bool {
        t >= self.reference_start() && t < self.window_start()
    }
}

#[derive(Default)]
pub struct Measured {
    /// Operations attempted: jobs submitted, or research runs.
    pub attempted: u64,
    /// Non-2xx responses, jobs that did not end `Done`, and results that
    /// disagree with an uninterrupted reference run.
    pub failed: u64,
    /// Reasons the run is invalid even when nothing failed.
    pub invalid: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Spans of a traced run (empty otherwise).
    pub spans: Spans,
}

impl Measured {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
        });
    }

    pub fn median(&mut self, name: &str, sample: &Sample, unit: &'static str) {
        if let Some(v) = sample.median() {
            self.add(name, v, unit, sample.n());
        }
    }

    /// Adds the `q`-quantile when the sample supports it.
    pub fn tail(&mut self, name: &str, sample: &Sample, q: f64, unit: &'static str) {
        if let Some(v) = sample.tail(q) {
            self.add(name, v, unit, sample.n());
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Counts one failed operation; the first few are logged to stderr.
    pub fn fail(&mut self, reason: &str) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("benchmark: {reason}");
        }
    }
}

/// Per-layer numbers read off a traced run's spans: each layer's self
/// time, and the counts taken at its boundary.
pub fn add_span_metrics(m: &mut Measured, spans: &Spans) {
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let submit = spans.self_times("http.submit", US);
    m.median("http.submit_us_p50", &submit, "us");
    m.tail("http.submit_us_p99", &submit, 0.99, "us");
    for (metric, span, per_unit, unit) in [
        ("http.events_tail_ms_p50", "http.events_tail", MS, "ms"),
        ("http.healthz_us_p50", "http.healthz", US, "us"),
        ("protocol.parse_us_p50", "protocol.parse", US, "us"),
        (
            "protocol.status_encode_us_p50",
            "protocol.status_encode",
            US,
            "us",
        ),
        ("factory.build_us_p50", "factory.build", US, "us"),
        ("snapshot.encode_us_p50", "snapshot.encode", US, "us"),
        ("spool.save_us_p50", "spool.save", US, "us"),
    ] {
        m.median(metric, &spans.self_times(span, per_unit), unit);
    }
    m.median(
        "snapshot.bytes_p50",
        &spans.counts("snapshot.encode"),
        "bytes",
    );
    m.median(
        "spool.record_bytes_p50",
        &spans.counts("spool.save"),
        "bytes",
    );
    for family in pga_serve::Registries::builtin().families.names() {
        let span = poll_span(family);
        let polls = spans.self_times(&span, US);
        m.median(&format!("engine.{family}.poll_us_p50"), &polls, "us");
        let folded = spans.counts(&span);
        m.median(&format!("engine.{family}.evals_per_poll"), &folded, "count");
    }
}

/// Work-stealing pool counters over a window (`delta` of two snapshots).
pub fn add_pool_metrics(m: &mut Measured, d: &rayon::PoolStats) {
    let per_call = |v: u64| {
        if d.calls > 0 {
            v as f64 / d.calls as f64
        } else {
            0.0
        }
    };
    m.add("pool.calls", d.calls as f64, "count", 1);
    m.add("pool.steals", d.steals as f64, "count", 1);
    m.add("pool.parks", d.parks as f64, "count", 1);
    m.add(
        "pool.tasks_per_call",
        per_call(d.tasks_executed),
        "count",
        1,
    );
    m.add(
        "pool.queue_wait_us_per_call",
        per_call(d.queue_wait_micros),
        "us",
        1,
    );
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One metric line: `{"workload", "metric", "value", "unit", "n"}`.
pub fn metric_line(workload: &str, m: &Metric) -> String {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("metric".into(), Json::Str(m.name.clone())),
        ("value".into(), Json::Num(m.value)),
        ("unit".into(), Json::Str(m.unit.into())),
        ("n".into(), Json::Num(m.n as f64)),
    ])
    .to_json_string()
}
