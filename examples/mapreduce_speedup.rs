//! The Section 6.2 experiment in miniature: the CS job vs the traditional
//! top-k job on the MapReduce simulator.
//!
//! Two parts:
//! 1. **Executed**: both jobs actually run over the same splits; the CS job
//!    must produce the same top keys while shuffling a fraction of the
//!    bytes (real counters from the engine).
//! 2. **Modeled**: the cluster time model prices both jobs at the paper's
//!    input sizes (600 MB / 600 GB / 12 GB) and prints the end-to-end and
//!    breakdown numbers of Figures 10 and 11.
//!
//! Run with: `cargo run --release --example mapreduce_speedup`

use cs_outlier::core::BompConfig;
use cs_outlier::mapreduce::{
    cs_bomp, run_cs_job, run_topk_job, traditional_topk, ClusterProfile, ExecConfig, Record,
    WorkloadShape,
};
use cs_outlier::workloads::{PowerLawConfig, PowerLawData};

fn main() {
    // ---- Part 1: executed jobs on real records -------------------------
    let n = 4000;
    let k = 5;
    // α = 1.5 power-law data with the mode shifted to 0, as in the paper's
    // Hadoop experiments.
    let data = PowerLawData::generate(&PowerLawConfig { n, alpha: 1.5, x_min: 10.0 }, 77)
        .expect("generate");
    let shifted = data.shifted_to_zero_mode();

    // Spread each key's mass unevenly over 8 splits (shares vary by key).
    let splits: Vec<Vec<Record>> = (0..8)
        .map(|t| {
            shifted
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, v * ((t + i) % 5 + 1) as f64 / 15.0))
                .collect()
        })
        .collect();

    let m = 320;
    let cs = run_cs_job(
        &ExecConfig::sequential(),
        &splits,
        n,
        m,
        1234,
        k,
        &BompConfig::for_k_outliers(k),
    )
    .expect("cs job");
    let tk = run_topk_job(&splits, n, k).expect("topk job");

    println!("executed on {} splits × {} keys:", splits.len(), n);
    println!(
        "  traditional top-k: shuffle {:>10} bytes, top keys {:?}",
        tk.counters.shuffle_bytes,
        tk.topk.iter().map(|o| o.index).collect::<Vec<_>>()
    );
    println!(
        "  CS job (M = {m}):   shuffle {:>10} bytes, top keys {:?}",
        cs.counters.shuffle_bytes,
        cs.outliers.iter().map(|o| o.index).collect::<Vec<_>>()
    );
    let reduction =
        100.0 * (1.0 - cs.counters.shuffle_bytes as f64 / tk.counters.shuffle_bytes as f64);
    println!("  shuffle reduction: {reduction:.1}%");

    // ---- Part 2: modeled timings at paper scale ------------------------
    let profile = ClusterProfile::paper_2015();
    const MB: u64 = 1 << 20;
    const GB: u64 = 1 << 30;
    let settings = [
        ("fig10a: 600MB, N=100K", 600 * MB, 100_000usize, 25usize),
        ("fig10b: 600GB, N=100K", 600 * GB, 100_000, 25),
        ("fig10c: 12GB product, N=10K", 12 * GB, 10_000, 600),
    ];
    for (label, input, nn, r) in settings {
        let shape = WorkloadShape { input_bytes: input, record_bytes: 100, n: nn };
        let trad = traditional_topk(&profile, &shape);
        println!("\n{label}");
        println!("  {:<18} {:>10} {:>10} {:>10}", "job", "map s", "reduce s", "total s");
        println!(
            "  {:<18} {:>10.1} {:>10.1} {:>10.1}",
            "traditional",
            trad.mapper_s(),
            trad.reducer_s(),
            trad.end_to_end_s()
        );
        for m in [200usize, 800, 2000] {
            let cs = cs_bomp(&profile, &shape, m, r);
            println!(
                "  {:<18} {:>10.1} {:>10.1} {:>10.1}",
                format!("cs-bomp M={m}"),
                cs.mapper_s(),
                cs.reducer_s(),
                cs.end_to_end_s()
            );
        }
    }
}
