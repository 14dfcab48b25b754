//! The shared Sec. 6.2 benchmark suite driver used by the Table 3 and
//! Table 4 binaries: each benchmark is a program, a list of datasets, and
//! a fixed query, runnable through both the multi-stage SPPL workflow and
//! the single-stage enumerative (PSI-substitute) engine.

use sppl_baseline::enumerative::{Data, EnumOutcome, EnumerativeEngine};
use sppl_core::condition::condition;
use sppl_core::density::constrain;
use sppl_core::event::Event;
use sppl_core::{Factory, Spe};
use sppl_models::psi_suite;

use crate::timed;

/// A benchmark: program, datasets, and a posterior query.
pub struct PsiBenchmark {
    /// Display name (matches Table 4 rows).
    pub name: String,
    /// SPPL source.
    pub source: String,
    /// Datasets to condition on, one posterior per dataset.
    pub datasets: Vec<Data>,
    /// The query evaluated against every posterior.
    pub query: Event,
}

/// Builds the Table 4 benchmark list. Sizes (pixels, patients per arm,
/// students) are scaled down so that each row finishes in minutes on a
/// 2-vCPU container, and the comment above each row gives its size; the
/// distribution signatures match the paper's Table 4 column.
pub fn benchmarks() -> Vec<PsiBenchmark> {
    let mut out = Vec::new();

    // Digit Recognition: C × B^64, 10 datasets.
    {
        let n_pixels = 64;
        let model = psi_suite::digit_recognition(n_pixels);
        out.push(PsiBenchmark {
            name: "Digit Recognition".into(),
            source: model.source,
            datasets: (0..10)
                .map(|i| {
                    Data::Assignment(psi_suite::digit_dataset(i as u64, (i * 3) % 10, n_pixels))
                })
                .collect(),
            query: psi_suite::digit_query(7),
        });
    }

    // TrueSkill: P × Bi², 2 datasets.
    {
        let model = psi_suite::trueskill();
        out.push(PsiBenchmark {
            name: "TrueSkill".into(),
            source: model.source,
            datasets: vec![
                Data::Assignment(psi_suite::trueskill_dataset(9)),
                Data::Assignment(psi_suite::trueskill_dataset(3)),
            ],
            query: psi_suite::trueskill_query(7),
        });
    }

    // Clinical Trial: B × U³ × B^20 × B^20, 10 datasets.
    {
        let (nt, nc) = (20, 20);
        let model = psi_suite::clinical_trial(nt, nc);
        out.push(PsiBenchmark {
            name: "Clinical Trial".into(),
            source: model.source,
            datasets: (0..10)
                .map(|i| {
                    let (pt, pc) = if i % 2 == 0 { (0.8, 0.3) } else { (0.5, 0.5) };
                    Data::Assignment(psi_suite::clinical_trial_dataset(i as u64, nt, nc, pt, pc))
                })
                .collect(),
            query: psi_suite::clinical_trial_query(),
        });
    }

    // Gamma Transforms: G × T × (T + T), 5 interval datasets.
    {
        let model = psi_suite::gamma_transforms();
        out.push(PsiBenchmark {
            name: "Gamma Transforms".into(),
            source: model.source,
            datasets: psi_suite::gamma_constraints()
                .into_iter()
                .map(Data::Event)
                .collect(),
            query: psi_suite::gamma_query(),
        });
    }

    // Student Interviews with 2 and 6 students, 10 datasets each.
    for students in [2usize, 6] {
        let model = psi_suite::student_interviews(students);
        out.push(PsiBenchmark {
            name: format!("Student Interviews {students}"),
            source: model.source,
            datasets: (0..10)
                .map(|i| {
                    Data::Assignment(psi_suite::student_interviews_dataset(i as u64, students))
                })
                .collect(),
            query: psi_suite::student_interviews_query(),
        });
    }

    // Markov Switching with 3 and 100 steps, 10 datasets each.
    for steps in [3usize, 100] {
        let model = psi_suite::markov_switching(steps);
        out.push(PsiBenchmark {
            name: format!("Markov Switching {steps}"),
            source: model.source,
            datasets: (0..10)
                .map(|i| Data::Assignment(psi_suite::markov_switching_dataset(i as u64, steps)))
                .collect(),
            query: psi_suite::markov_switching_query(steps),
        });
    }

    out
}

/// Stage-wise timings of the SPPL multi-stage workflow on one benchmark.
pub struct SpplRun {
    /// Translation (stage S1) seconds.
    pub translate_s: f64,
    /// Per-dataset conditioning (stage S2) seconds.
    pub condition_s: Vec<f64>,
    /// Per-dataset querying (stage S3) seconds.
    pub query_s: Vec<f64>,
    /// The posterior query values (for cross-checking the baseline).
    pub values: Vec<f64>,
}

impl SpplRun {
    /// Total wall-clock across all stages and datasets.
    pub fn overall(&self) -> f64 {
        self.translate_s + self.condition_s.iter().sum::<f64>() + self.query_s.iter().sum::<f64>()
    }
}

/// Runs the multi-stage workflow: translate once, then condition + query
/// per dataset.
pub fn run_sppl(bench: &PsiBenchmark) -> SpplRun {
    let factory = Factory::new();
    let (spe, translate_s) =
        timed(|| sppl_lang::compile(&factory, &bench.source).expect("benchmark compiles"));
    let mut condition_s = Vec::new();
    let mut query_s = Vec::new();
    let mut values = Vec::new();
    for data in &bench.datasets {
        let (posterior, cs): (Spe, f64) = timed(|| match data {
            Data::None => spe.clone(),
            Data::Event(e) => condition(&factory, &spe, e).expect("positive probability"),
            Data::Assignment(a) => constrain(&factory, &spe, a).expect("positive density"),
        });
        let (value, qs) = timed(|| posterior.prob(&bench.query).expect("query"));
        condition_s.push(cs);
        query_s.push(qs);
        values.push(value);
    }
    SpplRun {
        translate_s,
        condition_s,
        query_s,
        values,
    }
}

/// Per-dataset outcomes of the single-stage enumerative engine.
pub fn run_enumerative(bench: &PsiBenchmark, engine: &EnumerativeEngine) -> Vec<EnumOutcome> {
    bench
        .datasets
        .iter()
        .map(|data| {
            engine
                .query(&bench.source, data, &bench.query)
                .expect("enumerative query")
        })
        .collect()
}
