//! Internal probe: fine-tuning strength vs. power-estimation error on one
//! design. Used to calibrate the default scale; not part of the evaluation.
//!
//! Run: `cargo run --release -p deepseq-bench --bin probe_ft [design] [workloads] [epochs] [lr] [pretrained]`
//! (`pretrained` starts from the bench crate's cached pre-trained model at
//! the current scale, training it first when no cache exists).

use deepseq_bench::{build_samples, pretrained_deepseq, Scale};
use deepseq_core::train::{train, TrainOptions};
use deepseq_core::DeepSeq;
use deepseq_data::designs::design_by_name;
use deepseq_netlist::lower_to_aig;
use deepseq_power::{finetune_samples, run_pipeline, PipelineConfig};
use deepseq_sim::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let design = args.get(1).map(String::as_str).unwrap_or("ptc");
    let workloads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let epochs: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(10);
    let lr: f32 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(8e-3);

    let scale = Scale::from_env();
    let netlist = design_by_name(design).expect("known design");
    let lowered = lower_to_aig(&netlist).unwrap();
    let n_pis = netlist.inputs().len();
    println!(
        "probe: {design} ({} nodes), {workloads} workloads × {epochs} epochs, lr {lr}",
        lowered.aig.len()
    );

    let mut rng = StdRng::seed_from_u64(99);
    let ft_wl: Vec<Workload> = (0..workloads)
        .map(|_| Workload::random(n_pis, &mut rng))
        .collect();
    let t0 = Instant::now();
    let ft = finetune_samples(&lowered.aig, &ft_wl, scale.hidden, &scale.sim_options(1), 7);
    println!("label generation: {:.1}s", t0.elapsed().as_secs_f64());

    let mut model = if args.get(5).map(String::as_str) == Some("pretrained") {
        println!("starting from the pre-trained checkpoint");
        pretrained_deepseq(&scale, &build_samples(&scale, scale.hidden).0)
    } else {
        DeepSeq::new(scale.config(
            deepseq_core::Aggregator::DualAttention,
            deepseq_core::PropagationScheme::Custom,
        ))
    };
    let t1 = Instant::now();
    let history = train(
        &mut model,
        &ft,
        &TrainOptions {
            epochs,
            lr,
            ..TrainOptions::default()
        },
    );
    println!(
        "fine-tune: {:.1}s, loss {:.4} -> {:.4}",
        t1.elapsed().as_secs_f64(),
        history.first().map(|e| e.loss).unwrap_or(0.0),
        history.last().map(|e| e.loss).unwrap_or(0.0)
    );

    let test_workload = Workload::random(n_pis, &mut rng);
    let result = run_pipeline(
        &netlist,
        &test_workload,
        None,
        Some(&model),
        &PipelineConfig {
            sim: scale.sim_options(2),
            ..PipelineConfig::default()
        },
    );
    println!(
        "GT {:.4} mW | probabilistic {:.4} mW ({:.2}%) | deepseq {:.4} mW ({:.2}%)",
        result.gt_mw,
        result.probabilistic.mw,
        result.probabilistic.error_pct,
        result.deepseq.as_ref().unwrap().mw,
        result.deepseq.as_ref().unwrap().error_pct
    );
}
