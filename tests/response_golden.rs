//! Golden bytes of the serving JSON responses.
//!
//! perfbench's correctness check and the serving tests render their
//! reference with the same `response_to_json` they check, so a change of
//! number format or field order would pass all of them. This test pins the
//! bytes themselves: full and summary bodies for three circuits (one of
//! them the 16-block `eco` design of perfbench), error bodies and
//! non-finite values rendered as `null`. Short bodies are stored as text;
//! long ones as FNV-1a-64 plus their length.
//!
//! The predictions come from the blocked kernel on a 1-thread pool, which
//! is bitwise-stable under every `DEEPSEQ_THREADS` and `DEEPSEQ_KERNEL`
//! setting. A change that alters these values changes what clients
//! receive; re-record them only when that is the intent.

use std::sync::Arc;

use deepseq::core::encoding::initial_states;
use deepseq::core::{CircuitGraph, DeepSeq, DeepSeqConfig, Predictions};
use deepseq::netlist::{NetlistError, SeqAig};
use deepseq::nn::{Kernel, Matrix, Pool};
use deepseq::serve::json::response_to_json;
use deepseq::serve::{
    CachedInference, InferenceModel, ServeError, ServeResponse, ServedInference, Workspace,
};
use deepseq::sim::Workload;

mod common;
use common::{and_not_pairs, two_ff_circuit};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// splitmix64 finalizer, as perfbench seeds its `eco` blocks.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// perfbench's `eco` base design for `seed`: 16 blocks of one PI, one FF
/// and a 24-gate AND chain, 416 nodes.
fn eco_design(seed: u64) -> SeqAig {
    let mut aig = SeqAig::new("eco");
    for block in 0..16u64 {
        let mut state = mix(mix(seed ^ (block << 40))) | 1;
        let mut next = move |bound: usize| -> usize {
            state = mix(state);
            (state >> 33) as usize % bound.max(1)
        };
        let pi = aig.add_pi(format!("b{block}pi"));
        let ff = aig.add_ff(format!("b{block}ff"), next(2) == 1);
        let mut nodes = vec![pi, ff, aig.add_and(pi, ff)];
        for _ in 1..24 {
            let last = *nodes.last().expect("nonempty");
            let other = nodes[next(nodes.len() - 1)];
            nodes.push(aig.add_and(last, other));
        }
        aig.connect_ff(ff, *nodes.last().expect("nonempty"))
            .expect("block FF connects to its last gate");
    }
    aig
}

fn model() -> InferenceModel {
    InferenceModel::from_model(&DeepSeq::new(DeepSeqConfig {
        hidden_dim: 32,
        iterations: 4,
        seed: 0x5EED_D5E0,
        ..DeepSeqConfig::default()
    }))
}

fn response(id: u64, design: &str, cache_hit: bool, data: CachedInference) -> ServeResponse {
    ServeResponse {
        id,
        design: design.to_string(),
        result: Ok(ServedInference {
            num_nodes: data.num_nodes,
            cache_hit,
            cones_reused: 0,
            data: Arc::new(data),
        }),
    }
}

/// What the engine answers for `aig`, computed on the blocked kernel.
fn served(model: &InferenceModel, id: u64, aig: &SeqAig) -> ServeResponse {
    let graph = CircuitGraph::build(aig);
    let h0 = initial_states(aig, &Workload::uniform(aig.num_pis(), 0.5), 32, 0);
    let mut ws = Workspace::with_pool(Kernel::Blocked, Arc::new(Pool::new(1)));
    let out = model.run(&graph, &h0, &mut ws);
    let data = CachedInference {
        predictions: out.predictions,
        embedding: out.embedding,
        num_nodes: aig.len(),
    };
    response(id, aig.name(), id % 2 == 1, data)
}

/// Asserts a body's length and FNV-1a-64.
fn assert_digest(what: &str, body: &str, len: usize, hash: u64) {
    assert_eq!(
        (body.len(), fnv1a(body.as_bytes())),
        (len, hash),
        "{what}: body changed (got len {} hash {:#018x}): {body:.300}",
        body.len(),
        fnv1a(body.as_bytes())
    );
}

#[test]
fn full_and_summary_bodies_match_golden_bytes() {
    let model = model();
    // (circuit, full-body digest, summary body)
    let cases: [(SeqAig, usize, u64, &str); 3] = [
        (
            two_ff_circuit(),
            688,
            0xc20e_14d5_f0db_52fa,
            r#"{"id":0,"design":"pair","nodes":7,"cache_hit":false,"mean_tr":0.49141878,"mean_lg":0.51513094,"embedding":[[0.13434097,-0.072042994,0.2891826,-0.03983721,-0.16569921,-0.09443056,0.14175048,-0.027018212,0.17557503,0.18711331,0.17189328,0.051449466,0.24702424,0.032942627,0.056666426,-0.064509176,-0.05278559,0.01786381,0.10911587,-0.08576508,-0.103528745,-0.10012385,0.1313614,-0.015256361,0.111379504,-0.017183062,0.0706711,0.08365436,0.19016166,0.073447786,0.05601009,0.07919493]]}"#,
        ),
        (
            and_not_pairs("pairs", 12, 3, 4),
            1494,
            0xe9d3_3de0_fb61_983f,
            r#"{"id":1,"design":"pairs","nodes":31,"cache_hit":true,"mean_tr":0.48502824,"mean_lg":0.5190236,"embedding":[[0.05173092,-0.13610801,0.23417626,-0.11158072,-0.2677065,-0.10575799,0.106844194,0.053145412,0.027685847,0.08868557,0.073887624,-0.023997584,0.118993975,-0.104151376,0.08368396,-0.09707025,-0.09371582,0.121096976,0.12192846,0.03348242,0.02033416,0.025976894,0.039301317,-0.098204516,0.2388264,-0.0006185847,-0.029627472,-0.009574975,0.10917983,0.11289537,-0.0726551,0.046536233]]}"#,
        ),
        (
            eco_design(3),
            14366,
            0xcd08_8232_0738_a871,
            r#"{"id":2,"design":"eco","nodes":416,"cache_hit":false,"mean_tr":0.48673248,"mean_lg":0.50813913,"embedding":[[-0.041161783,-0.002653243,0.11771312,0.0015062446,-0.068998255,-0.15868479,0.0461447,-0.08562391,0.06748122,0.2078272,0.13161567,0.10541516,0.18147825,-0.085603334,-0.01165984,-0.17378294,-0.1271117,0.08208579,0.018183187,-0.04901192,-0.13853903,-0.0116631165,0.11636327,0.009716355,0.2046114,-0.05977668,0.13545835,0.030221554,0.19735926,0.022452308,0.14890926,-0.048700202]]}"#,
        ),
    ];
    for (id, (aig, len, hash, summary)) in cases.into_iter().enumerate() {
        let response = served(&model, id as u64, &aig);
        assert_digest(aig.name(), &response_to_json(&response, false), len, hash);
        assert_eq!(
            response_to_json(&response, true),
            summary,
            "{} summary",
            aig.name()
        );
    }
}

#[test]
fn error_bodies_match_golden_bytes() {
    let cases = [
        (
            ServeResponse {
                id: 7,
                design: "bad \"name\"\n\t\\ é\u{1}".to_string(),
                result: Err(ServeError::WorkloadTooShort { pis: 3, stimuli: 1 }),
            },
            r#"{"id":7,"design":"bad \"name\"\n\t\\ é\u0001","error":"workload covers 1 PIs but the circuit has 3"}"#,
        ),
        (
            ServeResponse {
                id: 8,
                design: "aiger".to_string(),
                result: Err(ServeError::Netlist(NetlistError::Parse {
                    line: 4,
                    msg: "bad number `x\"y`".into(),
                })),
            },
            r#"{"id":8,"design":"aiger","error":"invalid circuit: parse error at line 4: bad number `x\"y`"}"#,
        ),
    ];
    for (response, want) in cases {
        for summary in [false, true] {
            assert_eq!(response_to_json(&response, summary), want);
        }
    }
}

#[test]
fn non_finite_values_render_as_null() {
    let tr = Matrix::from_vec(
        3,
        2,
        vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1e-30,
            f32::MAX,
        ],
    );
    let lg = Matrix::from_vec(3, 1, vec![f32::MIN_POSITIVE / 8.0, 0.1, -2.5]);
    let embedding = Matrix::from_vec(1, 4, vec![0.0, f32::NAN, 1.0 / 3.0, -7.0]);
    let data = CachedInference {
        predictions: Predictions { tr, lg },
        embedding,
        num_nodes: 3,
    };
    let response = response(5, "nan", true, data);
    assert_eq!(
        response_to_json(&response, false),
        r#"{"id":5,"design":"nan","nodes":3,"cache_hit":true,"tr":[[null,null],[null,-0],[0.000000000000000000000000000001,340282350000000000000000000000000000000]],"lg":[0.000000000000000000000000000000000000001469368,0.1,-2.5],"embedding":[[0,null,0.33333334,-7]]}"#
    );
    assert_eq!(
        response_to_json(&response, true),
        r#"{"id":5,"design":"nan","nodes":3,"cache_hit":true,"mean_tr":null,"mean_lg":0.8666666,"embedding":[[0,null,0.33333334,-7]]}"#
    );
}
