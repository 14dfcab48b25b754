//! Table 1: SPE graph size with and without the factorization and
//! deduplication optimizations, on the seven benchmark models.
//!
//! "Optimized" is the physical node count of the hash-consed DAG built
//! with all Sec. 5.1 optimizations; "unoptimized" is the tree-expanded
//! node count of the same semantics (what the expression would occupy
//! with no sharing), computed analytically rather than by building the
//! expression with the optimizations switched off. So the absolute
//! unoptimized counts differ from the paper's while the shape (ratios ≈1
//! for structure-poor models, astronomic for the HMM) is preserved.

use sppl_bench::{fmt_count, timed, Table};
use sppl_core::stats::graph_stats;
use sppl_core::Factory;
use sppl_models::networks::table1_models;

fn main() {
    let mut table = Table::new([
        "Benchmark",
        "Unoptimized (tree)",
        "Optimized (DAG)",
        "Compression",
        "Translate",
    ]);
    for model in table1_models() {
        let factory = Factory::new();
        let (spe, secs) = timed(|| model.compile(&factory).expect("benchmark compiles"));
        let stats = graph_stats(&spe);
        table.row([
            model.name.clone(),
            fmt_count(stats.tree_nodes),
            stats.physical_nodes.to_string(),
            format!("{:.1}x", stats.compression_ratio()),
            sppl_bench::fmt_secs(secs),
        ]);
    }
    println!("Table 1: effect of factorization + deduplication on SPE size\n");
    table.print();
}
