//! Integration: hierarchical aggregation feeding matrix-free recovery —
//! the wide-area deployment shape (regional hubs, memory-constrained
//! aggregator) assembled from the extension modules.

use cs_outlier::core::{bomp_with_op, BompConfig, MeasurementOperator, MeasurementSpec};
use cs_outlier::distributed::{AggregationTree, TreeNode};
use cs_outlier::workloads::{split, SliceStrategy};

#[test]
fn three_level_tree_plus_streaming_recovery() {
    // 12 data centers in 3 regions of 2 sub-hubs each.
    let n = 1500;
    let mut x = vec![450.0; n];
    x[100] = 30_000.0;
    x[700] = -12_000.0;
    x[1400] = 18_000.0;
    let slices =
        split(&x, 12, SliceStrategy::Camouflaged { offset: 2500.0, fraction: 0.3 }, 21).unwrap();

    let spec = MeasurementSpec::new(90, n, 5150).unwrap();
    let sketches: Vec<_> = slices.iter().map(|s| spec.measure_dense(s).unwrap()).collect();

    // region r holds sub-hubs over leaves {4r..4r+1} and {4r+2..4r+3}.
    let regions: Vec<TreeNode> = (0..3)
        .map(|r| {
            TreeNode::hub(vec![
                TreeNode::hub(vec![TreeNode::leaf(4 * r), TreeNode::leaf(4 * r + 1)]),
                TreeNode::hub(vec![TreeNode::leaf(4 * r + 2), TreeNode::leaf(4 * r + 3)]),
            ])
        })
        .collect();
    let tree = AggregationTree::new(TreeNode::hub(regions), 12).unwrap();
    assert_eq!(tree.links(), 12 + 6 + 3);

    let (y, cost) = tree.aggregate(&spec, &sketches).unwrap();
    assert_eq!(cost.rounds, 3, "three levels of forwarding");
    assert_eq!(cost.tuples, 21 * 90);

    // Matrix-free recovery on the aggregator.
    let r = bomp_with_op(&MeasurementOperator::Dense(spec), &y, &BompConfig::default()).unwrap();
    assert!((r.mode - 450.0).abs() < 1e-6, "mode = {}", r.mode);
    let top: Vec<usize> = r.top_k(3).iter().map(|o| o.index).collect();
    assert_eq!(top, vec![100, 1400, 700], "ordered by |deviation|");
    for o in r.top_k(3) {
        assert!((o.value - x[o.index]).abs() < 1e-4);
    }
}

#[test]
fn tree_shape_does_not_change_recovery() {
    let n = 600;
    let mut x = vec![-50.0; n];
    x[9] = 7_000.0;
    let slices = split(&x, 8, SliceStrategy::RandomProportions, 3).unwrap();
    let spec = MeasurementSpec::new(50, n, 77).unwrap();
    let sketches: Vec<_> = slices.iter().map(|s| spec.measure_dense(s).unwrap()).collect();

    let shapes = [
        AggregationTree::star(8).unwrap(),
        AggregationTree::two_level(8, 2).unwrap(),
        AggregationTree::two_level(8, 3).unwrap(),
    ];
    let mut modes = Vec::new();
    for tree in &shapes {
        let (y, _) = tree.aggregate(&spec, &sketches).unwrap();
        let r =
            bomp_with_op(&MeasurementOperator::Dense(spec), &y, &BompConfig::default()).unwrap();
        assert_eq!(r.top_k(1)[0].index, 9);
        modes.push(r.mode);
    }
    for m in &modes[1..] {
        assert!((m - modes[0]).abs() < 1e-9, "topology must not matter");
    }
}
