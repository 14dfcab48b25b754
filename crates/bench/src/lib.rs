//! Benchmark harness for the paper's evaluation (Sec. 6).
//!
//! Each table and figure has a binary that regenerates it:
//!
//! | target | artifact |
//! |---|---|
//! | `table1_compression` | Table 1 (SPE size with/without optimizations) |
//! | `table2_fairness` | Table 2 (fairness runtimes & judgments) |
//! | `table3_variance` | Table 3 (runtime mean/std across datasets) |
//! | `table4_psi` | Table 4 (stage-wise runtime vs the PSI substitute) |
//! | `fig2_indian_gpa` | Fig. 2 (prior/posterior marginals & CDFs) |
//! | `fig3_hmm` | Fig. 3 (smoothing + expression growth) |
//! | `fig4_transform` | Fig. 4 (transform conditioning) |
//! | `fig8_rare_events` | Fig. 8 (exact vs rejection-sampling estimates) |
//!
//! Run them all with `cargo run --release -p sppl-bench --bin <target>`;
//! Criterion micro-benchmarks live under `benches/`.

use std::time::Instant;

use sppl_core::{Event, Model};

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Renders a table with fixed-width columns.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: vec![],
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, c) in widths.iter().zip(cells) {
                s.push_str(&format!("{c:<width$}  ", width = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// True when two result series agree bit for bit (the parity check the
/// bench bins assert and record in their JSON artifacts).
pub fn bits_match(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The tree-walk reference for a batch: [`Factory::logprob`] on each
/// canonical event, through the factory's node-level memo — the answers
/// [`Model::logprob_many`] must reproduce bit for bit.
///
/// [`Factory::logprob`]: sppl_core::Factory::logprob
///
/// # Panics
///
/// Panics when an event fails to evaluate.
pub fn tree_logprobs(model: &Model, events: &[Event]) -> Vec<f64> {
    events
        .iter()
        .map(|e| {
            model
                .factory()
                .logprob(model.root(), &e.canonical())
                .expect("tree walk")
        })
        .collect()
}

/// The machine's available parallelism (one when unknown), recorded in
/// the `BENCH_*.json` artifacts so their ratios can be read against the
/// box that produced them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Formats seconds compactly (`12 ms`, `3.42 s`).
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.1} ms", s * 1000.0)
    } else {
        format!("{s:.2} s")
    }
}

/// Formats a large count in scientific notation when needed.
pub fn fmt_count(x: f64) -> String {
    if x < 1e6 {
        format!("{x:.0}")
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(0.0123), "12.3 ms");
        assert_eq!(fmt_secs(3.4), "3.40 s");
        assert_eq!(fmt_count(1234.0), "1234");
        assert!(fmt_count(2.9e16).contains('e'));
    }
}

pub mod args;
pub mod json;
pub mod restart;
pub mod suite;
