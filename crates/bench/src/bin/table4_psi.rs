//! Table 4: stage-wise runtime of the SPPL multi-stage workflow
//! (translate / condition / query) versus the single-stage enumerative
//! engine (the PSI substitute) across the Sec. 6.2 benchmark suite.

use sppl_baseline::enumerative::{EnumOutcome, EnumerativeEngine};
use sppl_bench::suite::{benchmarks, run_enumerative, run_sppl};
use sppl_bench::{fmt_secs, mean_std, Table};

fn main() {
    let engine = EnumerativeEngine::default();
    let mut table = Table::new([
        "Benchmark",
        "Datasets",
        "SPPL translate",
        "SPPL condition",
        "SPPL query",
        "SPPL overall",
        "Enum* overall",
    ]);
    println!("Table 4: multi-stage SPPL vs single-stage enumerative engine\n");
    for bench in benchmarks() {
        let sppl = run_sppl(&bench);
        let n = bench.datasets.len();
        let (cond_mean, _) = mean_std(&sppl.condition_s);
        let (query_mean, _) = mean_std(&sppl.query_s);

        let enum_runs = run_enumerative(&bench, &engine);
        let mut enum_total = 0.0;
        let mut exhausted = false;
        let mut max_disagreement = 0.0f64;
        for (run, sppl_value) in enum_runs.iter().zip(&sppl.values) {
            match run {
                EnumOutcome::Solved { value, seconds, .. } => {
                    enum_total += seconds;
                    max_disagreement = max_disagreement.max((value - sppl_value).abs());
                }
                EnumOutcome::ResourceExhausted { seconds, .. } => {
                    enum_total += seconds;
                    exhausted = true;
                }
            }
        }
        let enum_cell = if exhausted {
            format!("o/m after {}", fmt_secs(enum_total))
        } else {
            format!("{} (agree<{max_disagreement:.1e})", fmt_secs(enum_total))
        };
        table.row([
            bench.name.clone(),
            n.to_string(),
            fmt_secs(sppl.translate_s),
            format!("{n}x{}", fmt_secs(cond_mean)),
            format!("{n}x{}", fmt_secs(query_mean)),
            fmt_secs(sppl.overall()),
            enum_cell,
        ]);
    }
    table.print();
    println!(
        "\n*single-stage flat-enumeration engine (PSI substitute; see README.md, \
         \"Substitutes for the paper's tools and programs\");"
    );
    println!("o/m = term budget exhausted, the analogue of PSI running out of memory.");
}
