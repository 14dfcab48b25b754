//! Table 2: runtime and judgments for the fifteen fairness verification
//! tasks, comparing exact SPPL inference against the FairSquare-style
//! volume verifier and the VeriFair-style adaptive sampler.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl_baseline::fairsquare::VolumeVerifier;
use sppl_baseline::verifair::AdaptiveSampler;
use sppl_bench::{fmt_secs, timed, Table};
use sppl_core::Factory;
use sppl_models::fairness::{self, all_tasks};

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut table = Table::new([
        "Task",
        "LoC",
        "Judgment",
        "FairSquare*",
        "VeriFair*",
        "SPPL",
        "vs FS",
        "vs VF",
    ]);
    println!("Table 2: fairness verification (15 decision tree tasks)\n");
    for task in all_tasks() {
        // SPPL: translate + exact Eq. (7) ratio.
        let factory = Factory::new();
        let (outcome, sppl_s) = timed(|| {
            let spe = task.model.compile(&factory).expect("task compiles");
            let ratio = fairness::fairness_ratio(&spe).expect("exact ratio");
            (spe, ratio)
        });
        let (spe, ratio) = outcome;
        let fair = fairness::is_fair(ratio, task.epsilon);

        // FairSquare substitute.
        let fs = VolumeVerifier::default()
            .verify(&spe, &task.tree.spec())
            .expect("volume verifier");
        // VeriFair substitute.
        let vf = AdaptiveSampler::default().verify(&spe, &mut rng);

        let agree = |b: bool| if b == fair { "" } else { " (!)" };
        table.row([
            task.name.clone(),
            task.model.lines_of_code().to_string(),
            (if fair { "Fair" } else { "Unfair" }).to_string(),
            format!("{}{}", fmt_secs(fs.seconds), agree(fs.fair)),
            format!("{}{}", fmt_secs(vf.seconds), agree(vf.fair)),
            fmt_secs(sppl_s),
            format!("{:.1}x", fs.seconds / sppl_s),
            format!("{:.1}x", vf.seconds / sppl_s),
        ]);
    }
    table.print();
    println!("\n(!) marks a baseline judgment disagreeing with the exact one.");
    println!(
        "*behavioural substitutes for the original tools; see README.md, \
         \"Substitutes for the paper's tools and programs\"."
    );
}
