//! Golden bits of a dense BOMP recovery at the `paper_clicklog` geometry:
//! `M = 500`, `N = 10,400`, so the extended dictionary has `D = N + 1 =
//! 10,401` atoms with the bias column first, and `D` is a multiple of no
//! scan block size. Mode, outliers, residual trace and mode trace are
//! pinned as `u64` bit patterns, computed when the recovery scan still
//! ran over 2048-column blocks in two pool sections per iteration (a
//! full `Φ̃ᵀq` pass, then a shift+argmax sweep). The scan's block size,
//! task split and worker count must never move a bit (DESIGN.md §9): each
//! column's product is a function of that column alone and the block
//! winners fold in ascending order.
//!
//! Both dense entry points are pinned, `bomp_with_matrix` and a kept
//! operator's `ResidentOp::recover`, at 1, 2 and 8 workers with the pool
//! forced on (`par_min_work = 0`).

use cso_core::{
    bomp_with_matrix, BompConfig, BompResult, MeasurementOperator, MeasurementSpec, ResidentOp,
};
use cso_exec::ExecConfig;
use cso_linalg::Vector;

const M: usize = 500;
const N: usize = 10_400;
const SEED: u64 = 2015;

/// A mode of 1800 with a small deterministic ripple on every key (so no
/// run stops early on the residual tolerance), plus the planted outliers.
fn measurement(spec: &MeasurementSpec, outliers: &[(usize, f64)]) -> Vector {
    let mut x: Vec<f64> = (0..N).map(|i| 1800.0 + ((i * 7919 % 101) as f64 - 50.0) * 0.1).collect();
    for &(i, v) in outliers {
        x[i] = v;
    }
    spec.measure_dense(&x).unwrap()
}

/// Every reported bit: mode, outliers (index, value), residual and mode
/// traces.
type Bits = (u64, Vec<(usize, u64)>, Vec<u64>, Vec<u64>);

fn bits_of(r: &BompResult) -> Bits {
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    let outliers = r.outliers.iter().map(|o| (o.index, o.value.to_bits())).collect();
    (r.mode.to_bits(), outliers, bits(&r.residual_trace), bits(&r.mode_trace))
}

/// Recovers `outliers` with `R = 3k + 1` through both dense entry points at
/// every worker count and checks each run against the pinned bits.
fn check(outliers: &[(usize, f64)], k: usize, want: &Bits) {
    let spec = MeasurementSpec::new(M, N, SEED).unwrap();
    let y = measurement(&spec, outliers);
    let phi0 = spec.materialize();
    let resident = ResidentOp::new(MeasurementOperator::Dense(spec));
    for workers in [1, 2, 8] {
        let mut cfg = BompConfig { track_mode: true, ..BompConfig::for_k_outliers(k) };
        cfg.omp.par_min_work = 0;
        cfg.omp.exec = ExecConfig::with_workers(workers);
        let matrix = bomp_with_matrix(&phi0, &y, &cfg).unwrap();
        assert_eq!(matrix.iterations, 3 * k + 1, "workers = {workers}");
        assert!(bits_of(&matrix) == *want, "bomp_with_matrix, workers = {workers}");
        let kept = resident.recover(&y, &cfg).unwrap();
        assert!(bits_of(&kept) == *want, "ResidentOp::recover, workers = {workers}");
    }
}

fn pinned<const O: usize, const R: usize>(
    mode: u64,
    outliers: &[(usize, u64); O],
    residual: &[u64; R],
    mode_trace: &[u64; R],
) -> Bits {
    (mode, outliers.to_vec(), residual.to_vec(), mode_trace.to_vec())
}

/// The paper's core-search query: `k = 20`, so `R = 61` iterations, with
/// twenty alternating-sign outliers spread over the key space.
#[test]
fn dense_recovery_keeps_its_golden_bits_at_the_clicklog_geometry() {
    let outliers: Vec<(usize, f64)> = (0..20)
        .map(|i| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            ((i * 5231 + 77) % N, 1800.0 + 400.0 * (i as f64 + 1.0) * sign)
        })
        .collect();
    let want =
        pinned(CLICKLOG_MODE, &CLICKLOG_OUTLIERS, &CLICKLOG_RESIDUAL_TRACE, &CLICKLOG_MODE_TRACE);
    check(&outliers, 20, &want);
}

/// The first winner is key 10,399 (atom 10,400), in the last partial block
/// at any block size that does not divide `D`; the next picks sit on block
/// edges: keys 511 and 512 (atoms 512 and 513), key 2047 (atom 2048) and
/// key 10,240 (atom 10,241).
#[test]
fn dense_recovery_keeps_its_golden_bits_at_block_edges() {
    let outliers = [
        (10_399, 900_000.0),
        (511, 40_000.0),
        (512, -30_000.0),
        (2047, 25_000.0),
        (10_240, 20_000.0),
    ];
    let want = pinned(EDGE_MODE, &EDGE_OUTLIERS, &EDGE_RESIDUAL_TRACE, &EDGE_MODE_TRACE);
    check(&outliers, 4, &want);
    // The planted keys are selected in that order.
    let first: Vec<usize> = want.1.iter().take(5).map(|&(i, _)| i).collect();
    assert_eq!(first, [10_399, 511, 512, 2047, 10_240]);
}

const CLICKLOG_MODE: u64 = 0x409c2066aa39275c;
const CLICKLOG_OUTLIERS: [(usize, u64); 60] = [
    (5866, 0xc0b844a22db32a3d),
    (635, 0x40c25aff31bddd94),
    (5804, 0xc0b523031eba4554),
    (573, 0x40c0de3fae9f4714),
    (5742, 0xc0b208f308531297),
    (511, 0x40be623e80517459),
    (5680, 0xc0ada8f64c960c0a),
    (449, 0x40bb6110ad5b6463),
    (5618, 0xc0a76994fe6982a0),
    (387, 0x40b83812668ba155),
    (5556, 0xc0a15c31d1bd83f6),
    (325, 0x40b508f928ebe510),
    (5494, 0xc09541f4449d6db2),
    (263, 0x40b207c7d9362a24),
    (5432, 0xc083279074d4fb7c),
    (201, 0x40adae701a10ec91),
    (5370, 0x4061efd45d1b3590),
    (139, 0x40a76dc634797867),
    (5308, 0x40901b4c3091877c),
    (77, 0x40a16c77f0b8785d),
    (1027, 0x409b16ddbbde9a61),
    (10174, 0x409b23a41b28c8e5),
    (7902, 0x409d1cdadd5809a4),
    (4995, 0x409d11b5509d166e),
    (2671, 0x409b48c609f44211),
    (8806, 0x409cf276e4068375),
    (2323, 0x409b5248d4740810),
    (1736, 0x409ce47537adc501),
    (6145, 0x409b5cb243aa0a93),
    (4898, 0x409b6102896d6f9b),
    (7667, 0x409cdfb9ff80c557),
    (1116, 0x409b61b142b74234),
    (1252, 0x409b61b768f0b920),
    (3399, 0x409cda8d56a4aa3f),
    (8010, 0x409cd4c102f6701b),
    (6647, 0x409cd2c050d0c6af),
    (7303, 0x409cca0257607760),
    (152, 0x409b78ef3a1de64d),
    (2490, 0x409cc3b5ba8010c5),
    (8615, 0x409b7ec703c58f8d),
    (7210, 0x409cbeeadaa4ecc1),
    (3112, 0x409b824a63f2f006),
    (6785, 0x409cb887b9cb376e),
    (896, 0x409b897e8cbb4083),
    (2444, 0x409cb64ba5ab96bf),
    (9181, 0x409cb48b4d87f47f),
    (3869, 0x409cb2cdacf0c35b),
    (3627, 0x409b9017ade5f162),
    (7961, 0x409b91c15647bc5d),
    (989, 0x409caef7f06a9cfc),
    (758, 0x409cad2434748630),
    (239, 0x409b93d65eb31b60),
    (2589, 0x409caab2accc1d31),
    (1267, 0x409b972f374bafe4),
    (4423, 0x409b98fd00ad36c1),
    (4844, 0x409ba26c8fc6ba05),
    (8535, 0x409bac2cb33feb2d),
    (6444, 0x409c93679abf0410),
    (1380, 0x409bb214b7ba3854),
    (10124, 0x409c846df8f1987a),
];
const CLICKLOG_RESIDUAL_TRACE: [u64; 61] = [
    0x40d4643a36b2814d,
    0x40d2e85f889e14fb,
    0x40d191ced63a732c,
    0x40d00454d38e5e7c,
    0x40cd1bbbb2a54bd2,
    0x40ca344195ab9d97,
    0x40c7300f7ca482ee,
    0x40c5484b98651be5,
    0x40c326740f17bb55,
    0x40c0dce7cf593398,
    0x40bd1ba16862f093,
    0x40b94eb3facb5726,
    0x40b527e5e18757a4,
    0x40b1c007079ae0ad,
    0x40ae152f3c6c92ca,
    0x40a6e5885e804bf3,
    0x40a0ac4e307e9e27,
    0x409739e04c2f0131,
    0x408d3aa91ba2d68b,
    0x407fbe0d03e8ca47,
    0x40720bb06c0bff7d,
    0x4071aa31fe558df8,
    0x4071658e49fd67c4,
    0x407125c5735a42ed,
    0x4070e6b0242daa10,
    0x4070b26751c5b80d,
    0x40706efffebc1e1b,
    0x40703b4f8a90359f,
    0x40700cac230e2f01,
    0x406fa573fd6c86cf,
    0x406f37a9f6dc6b43,
    0x406ec42e0e7c2f62,
    0x406e5c84209b318b,
    0x406e00f7f5282455,
    0x406da54c4b91d02b,
    0x406d4c7734158031,
    0x406cecfc48216531,
    0x406c90bc5ac9a3dd,
    0x406c38595d7bcf5b,
    0x406bd56e7e0c2f56,
    0x406b7dac62130ae0,
    0x406b22a0dd2c89fd,
    0x406ac51ca786c1bf,
    0x406a5d54d042cc2a,
    0x4069f4378ff1826b,
    0x40698a42e85fe24e,
    0x406935eb568042d4,
    0x4068def45e3d2397,
    0x40688164f3208483,
    0x40682863bf1d13ae,
    0x4067cf8ea2eef5e6,
    0x40678b727f8d6e6d,
    0x40673f22c9eef9ee,
    0x4066f4dc99923db0,
    0x40669e3f03f963e2,
    0x40664deaa976feca,
    0x4065ee785c1a945f,
    0x40659b49114a5fc0,
    0x406549516b30c8c6,
    0x4064f4e9d45dc5dd,
    0x4064ae8d72cd795b,
];
const CLICKLOG_MODE_TRACE: [u64; 61] = [
    0x409c3abc9274664d,
    0x409c2d64ca9752a3,
    0x409c3b38c5395263,
    0x409c3b4e694cf728,
    0x409c46cadaa9e176,
    0x409c3af3e55e690d,
    0x409c3ed0950b49df,
    0x409c37d10b620a24,
    0x409c38ba7a4ba45c,
    0x409c2f32dc3d213c,
    0x409c236ff3b02710,
    0x409c182c454daf46,
    0x409c1a4ab0deb236,
    0x409c1a5d7ff44494,
    0x409c19f5a632780f,
    0x409c207ab576bdcf,
    0x409c1d9c3eb01c5b,
    0x409c1f89c9d25aa6,
    0x409c1e761e82db08,
    0x409c1fa07977db1b,
    0x409c201ae771a130,
    0x409c20163b27e651,
    0x409c202ad367f421,
    0x409c203de6741e53,
    0x409c203c447cdbe6,
    0x409c2055d3023ea0,
    0x409c205cd271fe96,
    0x409c2056e9cd7db1,
    0x409c204f44a5d843,
    0x409c204a65b549fc,
    0x409c205c4f8fd3b8,
    0x409c206a4e9c75cc,
    0x409c206e19d4a79c,
    0x409c20696cfd9b8c,
    0x409c20752dac2d81,
    0x409c205e6974a11e,
    0x409c206cba3003e8,
    0x409c20548099733c,
    0x409c2030de3d379e,
    0x409c202feaa4922d,
    0x409c202820b36bb1,
    0x409c2038a06d0cb1,
    0x409c2027341b87d1,
    0x409c202e1463604b,
    0x409c20282ecea235,
    0x409c201305a15829,
    0x409c201f8f41383e,
    0x409c202b2e964bc3,
    0x409c20458f7d4d8c,
    0x409c203840865c53,
    0x409c203158dc567f,
    0x409c202211bb9d17,
    0x409c2009e1132feb,
    0x409c200f00e2eb1e,
    0x409c201f793a3d22,
    0x409c2030853368e6,
    0x409c204fbeda84b1,
    0x409c204b93430d49,
    0x409c20554ee4c5ec,
    0x409c205f2b38e18c,
    0x409c2066aa39275c,
];

const EDGE_MODE: u64 = 0x409c201024ffe28e;
const EDGE_OUTLIERS: [(usize, u64); 12] = [
    (10399, 0x412b773343bcbb0f),
    (511, 0x40e385f7ff00ff80),
    (512, 0xc0dd4a70f61c0dc8),
    (2047, 0x40d8685f108e7465),
    (10240, 0x40d3884b05d2ead1),
    (7902, 0x409d024acded0557),
    (2323, 0x409b40b5d46ed659),
    (10174, 0x409b517d3e426a46),
    (1252, 0x409b6022a25f4339),
    (1027, 0x409b6833a25beee6),
    (989, 0x409cd4e1ee2cb54a),
    (8535, 0x409b734dc40c0ef1),
];
const EDGE_RESIDUAL_TRACE: [u64; 13] = [
    0x4107ae77eeb90cc5,
    0x40eb4b0b1903aba0,
    0x40e559c70daba272,
    0x40dcb90eeeba70ad,
    0x40d1b5104638b950,
    0x40724f47b14b7b52,
    0x4071f3b3505c4ce7,
    0x4071b17d15bafb9a,
    0x4071753c44882c40,
    0x40713c0b27c19f9a,
    0x4070feace90fc4df,
    0x4070c618c80913a0,
    0x40708552bb0de093,
];
const EDGE_MODE_TRACE: [u64; 13] = [
    0x0000000000000000,
    0x409c3a07eb5d6254,
    0x409be08cfe32fdb0,
    0x409c0575885dc029,
    0x409c4da1bf9a0c94,
    0x409c2013b7221ff0,
    0x409c200f3a9c82d1,
    0x409c202677a37ac7,
    0x409c20364142e8f3,
    0x409c2039622fca27,
    0x409c20362027ea75,
    0x409c2027f90e9658,
    0x409c201024ffe28e,
];
