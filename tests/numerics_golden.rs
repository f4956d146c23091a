//! Absolute-bits golden values of the DeepSeq forward pass and training
//! loop.
//!
//! The other bitwise suites compare two computations with each other: runs
//! against runs and thread counts against thread counts
//! (`training_determinism`), tape against serving (the serve equivalence
//! suite). A change of operation order that moves both sides of such a
//! comparison in step passes all of them. This test pins the bits
//! themselves: FNV-1a over the `f32` bits of `DeepSeq::predict` and
//! `DeepSeq::embed_graph` for all nine aggregator × scheme configurations
//! on two small sequential circuits, and `f64::to_bits` of every epoch loss plus FNV-1a of the parameter
//! bytes after a short training job on a 2-thread pool.
//!
//! The values hold on both kernels (the default `blocked` and
//! `DEEPSEQ_KERNEL=naive`) at any thread count (`DEEPSEQ_THREADS`). A
//! change that alters them changes training numerics; re-record them only
//! when that is the intent.

use deepseq::core::encoding::initial_states;
use deepseq::core::{
    train_on, Aggregator, CircuitGraph, DeepSeq, DeepSeqConfig, PropagationScheme, TrainOptions,
    TrainSample,
};
use deepseq::netlist::SeqAig;
use deepseq::nn::{Matrix, Pool};
use deepseq::sim::{SimOptions, Workload};

mod common;
use common::{and_not_pairs, two_ff_circuit};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn fnv_matrices(matrices: &[&Matrix]) -> u64 {
    matrices.iter().fold(FNV_OFFSET, |h, m| {
        m.data()
            .iter()
            .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
    })
}

const CONFIGS: [(Aggregator, PropagationScheme); 9] = [
    (Aggregator::ConvSum, PropagationScheme::DagConv),
    (Aggregator::ConvSum, PropagationScheme::DagRec),
    (Aggregator::ConvSum, PropagationScheme::Custom),
    (Aggregator::Attention, PropagationScheme::DagConv),
    (Aggregator::Attention, PropagationScheme::DagRec),
    (Aggregator::Attention, PropagationScheme::Custom),
    (Aggregator::DualAttention, PropagationScheme::DagConv),
    (Aggregator::DualAttention, PropagationScheme::DagRec),
    (Aggregator::DualAttention, PropagationScheme::Custom),
];

/// FNV-1a of `tr ‖ lg ‖ embedding` bits on [`two_ff_circuit`], one per
/// entry of [`CONFIGS`].
const GOLDEN_FORWARD: [u64; 9] = [
    3806058375180240366,
    2260405120838899495,
    13873382455784024045,
    2444516843364434743,
    11960679002587852455,
    15937880018635723100,
    12950321125200673859,
    2315189294534234684,
    7313424226051511916,
];

/// The same on `and_not_pairs("fanout", 8, 4, 2)`, whose flip-flops fan
/// out to four gates each: the reverse pass sums and softmaxes over
/// four-edge segments, where accumulation order shows in the bits.
const GOLDEN_FORWARD_FANOUT: [u64; 9] = [
    16739150345662055378,
    17187712263736563988,
    745004626997476208,
    5988165399860329338,
    1856032277351838597,
    15917538363093216421,
    13340480988950757090,
    1988152017040422213,
    6584691003292596414,
];

/// `f64::to_bits` of the three epoch losses.
const GOLDEN_LOSSES: [u64; 3] = [
    4598935143588735659,
    4598793832274853888,
    4598683947415633920,
];

/// FNV-1a of `params().save_binary()` after training.
const GOLDEN_PARAMS: u64 = 8143782035327133638;

fn config(aggregator: Aggregator, scheme: PropagationScheme) -> DeepSeqConfig {
    DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        aggregator,
        scheme,
        seed: 1,
    }
}

fn forward_bits(aig: &SeqAig) -> Vec<u64> {
    let graph = CircuitGraph::build(aig);
    let h0 = initial_states(aig, &Workload::uniform(aig.num_pis(), 0.4), 8, 3);
    CONFIGS
        .iter()
        .map(|&(aggregator, scheme)| {
            let model = DeepSeq::new(config(aggregator, scheme));
            let preds = model.predict(&graph, &h0);
            let embedding = model.embed_graph(&graph, &h0);
            fnv_matrices(&[&preds.tr, &preds.lg, &embedding])
        })
        .collect()
}

#[test]
fn forward_bits_match_golden_values() {
    let pair = forward_bits(&two_ff_circuit());
    assert_eq!(pair, GOLDEN_FORWARD, "two-FF forward bits moved");
    let fanout = forward_bits(&and_not_pairs("fanout", 8, 4, 2));
    assert_eq!(fanout, GOLDEN_FORWARD_FANOUT, "fan-out forward bits moved");
}

#[test]
fn training_bits_match_golden_values() {
    let aig = two_ff_circuit();
    let samples: Vec<TrainSample> = (0..3)
        .map(|i| {
            let workload = Workload::uniform(aig.num_pis(), 0.3 + 0.2 * i as f64);
            let sim = SimOptions {
                cycles: 64,
                warmup: 8,
                seed: i,
            };
            TrainSample::generate(&aig, &workload, 8, &sim, i)
        })
        .collect();
    let mut model = DeepSeq::new(config(Aggregator::DualAttention, PropagationScheme::Custom));
    let opts = TrainOptions {
        epochs: 3,
        ..TrainOptions::default()
    };
    let history = train_on(&Pool::new(2), &mut model, &samples, &opts);
    let losses: Vec<u64> = history.iter().map(|e| e.loss.to_bits()).collect();
    assert_eq!(losses, GOLDEN_LOSSES, "epoch loss bits moved");
    let params = fnv1a(FNV_OFFSET, &model.params().save_binary());
    assert_eq!(params, GOLDEN_PARAMS, "trained parameter bytes moved");
}
