//! Cross-crate integration tests: the full train → predict → downstream
//! pipelines at miniature scale.

use deepseq::core::train::{evaluate, train, TrainOptions};
use deepseq::core::{Aggregator, DeepSeq, DeepSeqConfig, PropagationScheme, TrainSample};
use deepseq::data::dataset::Corpus;
use deepseq::data::random::{random_circuit, CircuitSpec};
use deepseq::netlist::lower_to_aig;
use deepseq::power::{run_pipeline, PipelineConfig};
use deepseq::reliability::{analyze, predict_reliability, reliability_sample, AnalyticalOptions};
use deepseq::sim::{inject_faults, FaultOptions, SimOptions, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_sim() -> SimOptions {
    SimOptions {
        cycles: 96,
        warmup: 8,
        seed: 0,
    }
}

fn tiny_config() -> DeepSeqConfig {
    DeepSeqConfig {
        hidden_dim: 12,
        iterations: 2,
        ..DeepSeqConfig::default()
    }
}

fn corpus_samples(n: usize, hidden: usize) -> Vec<TrainSample> {
    let corpus = Corpus::generate(n, 42);
    let mut rng = StdRng::seed_from_u64(1);
    corpus
        .circuits()
        .iter()
        .enumerate()
        .map(|(i, aig)| {
            let w = Workload::random(aig.num_pis(), &mut rng);
            TrainSample::generate(aig, &w, hidden, &small_sim(), i as u64)
        })
        .collect()
}

#[test]
fn pretraining_improves_both_tasks() {
    let samples = corpus_samples(8, 12);
    let mut model = DeepSeq::new(tiny_config());
    let before = evaluate(&model, &samples);
    train(
        &mut model,
        &samples,
        &TrainOptions {
            epochs: 10,
            lr: 3e-3,
            ..TrainOptions::default()
        },
    );
    let after = evaluate(&model, &samples);
    assert!(after.pe_tr < before.pe_tr, "{before:?} -> {after:?}");
    assert!(after.pe_lg < before.pe_lg, "{before:?} -> {after:?}");
}

#[test]
fn model_generalizes_to_unseen_circuits() {
    // Train on 10 circuits, evaluate on 4 held-out ones: the trained model
    // must beat an untrained one out of distribution.
    let all = corpus_samples(14, 12);
    let (train_set, test_set) = all.split_at(10);
    let mut model = DeepSeq::new(tiny_config());
    let untrained = evaluate(&model, test_set);
    train(
        &mut model,
        train_set,
        &TrainOptions {
            epochs: 12,
            lr: 3e-3,
            ..TrainOptions::default()
        },
    );
    let trained = evaluate(&model, test_set);
    assert!(
        trained.pe_lg < untrained.pe_lg,
        "unseen LG error should improve: {untrained:?} -> {trained:?}"
    );
}

#[test]
fn checkpoint_roundtrip_through_training() {
    let samples = corpus_samples(4, 12);
    let mut model = DeepSeq::new(tiny_config());
    train(
        &mut model,
        &samples,
        &TrainOptions {
            epochs: 3,
            ..TrainOptions::default()
        },
    );
    let restored = DeepSeq::from_binary_checkpoint(&model.save_binary()).expect("roundtrip");
    let m1 = evaluate(&model, &samples);
    let m2 = evaluate(&restored, &samples);
    assert!((m1.pe_tr - m2.pe_tr).abs() < 1e-9);
    assert!((m1.pe_lg - m2.pe_lg).abs() < 1e-9);
}

#[test]
fn power_pipeline_orders_methods_on_toy_design() {
    // On a small design with a trained model, DeepSeq should land closer to
    // GT than wildly wrong estimates; at minimum the pipeline must be
    // internally consistent (GT > 0, errors finite).
    use deepseq::netlist::netlist::{GateKind, Netlist};
    let mut nl = Netlist::new("toy");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let x = nl.add_named_gate(GateKind::Xor, vec![a, b], "x");
    let q = nl.add_dff("q", false);
    let m = nl.add_named_gate(GateKind::Mux, vec![x, q, a], "m");
    nl.connect_dff(q, m).unwrap();
    nl.set_output(m, "y");

    let lowered = lower_to_aig(&nl).unwrap();
    let w = Workload::uniform(2, 0.5);
    // Fine-tune directly on this design + workload.
    let sample = TrainSample::generate(&lowered.aig, &w, 12, &small_sim(), 0);
    let mut model = DeepSeq::new(tiny_config());
    train(
        &mut model,
        std::slice::from_ref(&sample),
        &TrainOptions {
            epochs: 200,
            lr: 5e-3,
            ..TrainOptions::default()
        },
    );
    let result = run_pipeline(
        &nl,
        &w,
        None,
        Some(&model),
        &PipelineConfig {
            sim: small_sim(),
            ..PipelineConfig::default()
        },
    );
    assert!(result.gt_mw > 0.0);
    let d = result.deepseq.expect("deepseq supplied");
    assert!(d.error_pct.is_finite());
    assert!(result.probabilistic.error_pct.is_finite());
    // The fine-tuned model should estimate power within 50% on its own
    // training workload.
    assert!(d.error_pct < 50.0, "deepseq error {:.2}%", d.error_pct);
}

#[test]
fn reliability_pipeline_is_consistent() {
    let mut rng = StdRng::seed_from_u64(3);
    let aig = random_circuit(
        "r",
        &CircuitSpec {
            num_pis: 6,
            num_ffs: 6,
            num_gates: 80,
            ..CircuitSpec::default()
        },
        &mut rng,
    );
    let w = Workload::uniform(6, 0.5);
    let fault_opts = FaultOptions {
        error_rate: 0.001,
        patterns: 256,
        cycles_per_pattern: 50,
        seed: 5,
    };
    let gt = inject_faults(&aig, &w, &fault_opts);
    let analytical = analyze(
        &aig,
        &w,
        &AnalyticalOptions {
            error_rate: 0.001,
            ..AnalyticalOptions::default()
        },
    );
    // Both estimates must land in a sane band around the GT.
    assert!(gt.output_reliability > 0.8);
    assert!((analytical.output_reliability - gt.output_reliability).abs() < 0.2);

    // Fine-tuned model beats the untrained one on reliability error.
    let sample = reliability_sample(&aig, &w, &fault_opts, 12, 0);
    let mut model = DeepSeq::new(tiny_config());
    let before = predict_reliability(&model, &aig, &w, 0);
    train(
        &mut model,
        std::slice::from_ref(&sample),
        &TrainOptions {
            epochs: 20,
            lr: 5e-3,
            ..TrainOptions::default()
        },
    );
    let after = predict_reliability(&model, &aig, &w, 0);
    let err_before = (before.output_reliability - gt.output_reliability).abs();
    let err_after = (after.output_reliability - gt.output_reliability).abs();
    assert!(err_after < err_before, "{err_before} -> {err_after}");
}

#[test]
fn all_schemes_and_aggregators_train_on_real_corpus() {
    let samples = corpus_samples(3, 12);
    for scheme in [
        PropagationScheme::DagConv,
        PropagationScheme::DagRec,
        PropagationScheme::Custom,
    ] {
        for aggregator in [
            Aggregator::ConvSum,
            Aggregator::Attention,
            Aggregator::DualAttention,
        ] {
            let mut config = tiny_config();
            config.scheme = scheme;
            config.aggregator = aggregator;
            let mut model = DeepSeq::new(config);
            let history = train(
                &mut model,
                &samples,
                &TrainOptions {
                    epochs: 2,
                    ..TrainOptions::default()
                },
            );
            assert_eq!(history.len(), 2);
            assert!(history.iter().all(|e| e.loss.is_finite()));
        }
    }
}

#[test]
fn six_designs_flow_through_simulation() {
    // Every Table IV design must lower and simulate cleanly.
    for netlist in deepseq::data::designs::all_designs() {
        let lowered = lower_to_aig(&netlist).expect("valid design");
        let w = Workload::uniform(lowered.aig.num_pis(), 0.4);
        let r = deepseq::sim::simulate(
            &lowered.aig,
            &w,
            &SimOptions {
                cycles: 32,
                warmup: 4,
                seed: 0,
            },
        );
        assert!(
            r.probs.check_consistency(0.2).is_ok(),
            "{} inconsistent",
            netlist.name()
        );
    }
}
