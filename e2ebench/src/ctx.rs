//! Run-wide state shared by the phases: tracer, operation tallies, the
//! scratch directory, and metric accumulation.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::median;
use crate::trace::Tracer;

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// First failures, for the run record.
    pub notes: Vec<String>,
}

impl Ops {
    /// Counts one operation; a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Counts one operation from its result; an `Err` is a failure.
    pub fn result<T, E: std::fmt::Debug>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e:?}"));
                None
            }
        }
    }
}

/// A metric value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a phase needs from the run.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Span recorder for the main thread.
    pub tracer: Tracer,
    /// Whether this is a `--trace 1` run. Its compile phase drives the
    /// layers one call at a time whether spans are on or off, so the
    /// untraced reference of the tracing overhead runs the same code.
    pub trace_run: bool,
    /// Operation tallies.
    pub ops: Ops,
    /// Scratch directory for compile-cache payloads; removed at exit.
    pub scratch: PathBuf,
    /// Run start, the origin of every span.
    pub origin: Instant,
    /// Metrics reported by the run, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Facts for the run record (generator lateness, input digest, ...).
    pub record: BTreeMap<String, String>,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// Sets a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    /// Sets a metric to the median of `values` (0 when there are none).
    pub fn put_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.put(name, median(values).unwrap_or(0.0), unit);
    }

    /// Records the median of `values` in the run record.
    pub fn record_median(&mut self, key: &str, values: &[f64]) {
        let v = median(values).unwrap_or(0.0);
        self.record.insert(key.to_string(), v.to_string());
    }

    /// Per-pass self time of the spans named `span`: the median over
    /// passes (span `req`) of each pass's total.
    pub fn span_median(&self, span: &str) -> f64 {
        let mut per_req: BTreeMap<u64, f64> = BTreeMap::new();
        for ((name, req), secs) in self.tracer.self_times() {
            if name == span {
                *per_req.entry(req).or_insert(0.0) += secs;
            }
        }
        median(&per_req.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

/// Passes whose exact counts the traced run reports: the first few, whose
/// inputs and cache states are the same in every run with the same seed.
pub const COUNTED_PASSES: u64 = 3;
