//! Consistency between the three execution paths: the direct protocol, the
//! MapReduce jobs, and the query layer must all tell the same story on the
//! same data.

use cs_outlier::core::BompConfig;
use cs_outlier::distributed::{Cluster, CsProtocol, OutlierProtocol};
use cs_outlier::mapreduce::{run_cs_job, run_topk_job, ExecConfig, Record};
use cs_outlier::query::{run, ProtocolChoice, QueryOptions};
use cs_outlier::workloads::{ClickLogConfig, ClickLogData};

fn workload() -> ClickLogData {
    // Instance seed picked so all six planted outliers sit clearly above
    // the noise floor under the vendored deterministic RNG.
    ClickLogData::generate(&ClickLogConfig::ads().scaled_down(20), 2023).unwrap()
}

/// Raw events for each data center, resolved to key indices.
fn event_splits(data: &ClickLogData) -> Vec<Vec<Record>> {
    let index_of: std::collections::HashMap<_, _> =
        data.keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
    (0..data.l())
        .map(|dc| data.events(dc, 2, 99).into_iter().map(|e| (index_of[&e.key], e.score)).collect())
        .collect()
}

#[test]
fn mapreduce_cs_job_matches_direct_protocol() {
    let data = workload();
    let splits = event_splits(&data);
    let k = 8;
    let m = 260;
    let recovery = BompConfig::with_max_iterations(120);

    let job = run_cs_job(&ExecConfig::sequential(), &splits, data.n(), m, 5, k, &recovery).unwrap();

    let cluster = Cluster::new(data.slices.clone()).unwrap();
    let direct = CsProtocol::new(m, 5).with_recovery(recovery).run(&cluster, k).unwrap();

    let job_keys: Vec<usize> = job.outliers.iter().map(|o| o.index).collect();
    let direct_keys: Vec<usize> = direct.estimate.iter().map(|o| o.index).collect();
    assert_eq!(job_keys, direct_keys, "job and protocol must agree");
    assert!((job.mode - direct.mode).abs() < 1e-6);
}

#[test]
fn topk_job_reproduces_exact_aggregate() {
    let data = workload();
    let splits = event_splits(&data);
    let out = run_topk_job(&splits, data.n(), 5).unwrap();
    // Exact aggregate from the workload's ground truth.
    let mut expect: Vec<(usize, f64)> = data.global.iter().copied().enumerate().collect();
    expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for (got, want) in out.topk.iter().zip(expect.iter().take(5)) {
        assert_eq!(got.index, want.0);
        assert!((got.value - want.1).abs() < 1e-6);
    }
}

#[test]
fn cs_job_recovers_planted_outliers_from_raw_events() {
    let data = workload();
    let splits = event_splits(&data);
    let k = 6;
    let job = run_cs_job(
        &ExecConfig::sequential(),
        &splits,
        data.n(),
        260,
        41,
        k,
        &BompConfig::with_max_iterations(130),
    )
    .unwrap();
    let truth = data.true_k_outliers(k);
    let truth_keys: std::collections::HashSet<usize> = truth.iter().map(|o| o.index).collect();
    let hit = job.outliers.iter().filter(|o| truth_keys.contains(&o.index)).count();
    assert!(hit >= k - 1, "at least {k}−1 of the true outliers, got {hit}");
    assert!((job.mode - data.mode).abs() < data.mode.abs() * 0.01 + 1.0);
}

#[test]
fn query_layer_agrees_with_protocol_on_full_grouping() {
    let data = workload();
    let sql = "SELECT OUTLIER 6 SUM(score) FROM clicks GROUP BY day, market, vertical, url";
    let res =
        run(sql, &data, &QueryOptions { protocol: ProtocolChoice::Cs { m: Some(260) }, seed: 5 })
            .unwrap();
    let exact = run(sql, &data, &QueryOptions { protocol: ProtocolChoice::All, seed: 5 }).unwrap();
    let res_labels: Vec<&str> = res.rows.iter().map(|r| r.label.as_str()).collect();
    let exact_labels: Vec<&str> = exact.rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(res_labels, exact_labels);
}
