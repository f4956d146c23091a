//! Table VII — reliability analysis on the six large test designs.
//!
//! Ground truth comes from Monte-Carlo fault injection (0.05 % error rate;
//! paper: 1 000 patterns × 100 cycles). The analytical baseline [32] and a
//! DeepSeq model fine-tuned on the Table I corpus (with error-probability
//! supervision, Section V-B1) are compared on circuit reliability.
//!
//! Expected shape (paper): analytical ≈ 2.7% avg error, DeepSeq ≈ 0.3%.
//!
//! Run: `cargo bench -p deepseq-bench --bench table7_reliability`

use std::time::Instant;

use deepseq_bench::{fmt_pct, pretrained_deepseq, print_table, Scale};
use deepseq_core::train::{train, TrainSample};
use deepseq_data::dataset::Corpus;
use deepseq_data::designs::all_designs;
use deepseq_netlist::lower_to_aig;
use deepseq_power::percent_error;
use deepseq_reliability::{analyze, predict_reliability, reliability_sample, AnalyticalOptions};
use deepseq_sim::{inject_faults, FaultOptions, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    eprintln!("[table7] scale: {scale:?}");
    let pretrained = pretrained_deepseq(&scale);

    // Fine-tune on the Table I corpus with fault-injection labels.
    let corpus = Corpus::generate(scale.circuits, 11);
    let fault_opts = FaultOptions {
        error_rate: 0.0005,
        patterns: 512,
        cycles_per_pattern: 100,
        seed: 3,
    };
    let mut rng = StdRng::seed_from_u64(71);
    let ft_start = Instant::now();
    let ft_samples: Vec<TrainSample> = corpus
        .circuits()
        .iter()
        .enumerate()
        .map(|(i, aig)| {
            let w = Workload::random(aig.num_pis(), &mut rng);
            reliability_sample(aig, &w, &fault_opts, scale.hidden, 500 + i as u64)
        })
        .collect();
    let mut model = pretrained.clone();
    let mut ft_opts = scale.train_options();
    ft_opts.epochs = scale.ft_epochs.max(2);
    ft_opts.lr = scale.ft_lr;
    train(&mut model, &ft_samples, &ft_opts);
    eprintln!(
        "[table7] reliability fine-tuning on {} circuits in {:.1}s",
        ft_samples.len(),
        ft_start.elapsed().as_secs_f64()
    );

    let paper: &[(&str, f64, f64, f64)] = &[
        ("noc_router", 0.9876, 2.72, 0.63),
        ("pll", 0.9792, 3.95, 0.35),
        ("ptc", 0.9970, 3.15, 0.42),
        ("rtcclock", 0.9985, 1.73, 0.16),
        ("ac97_ctrl", 0.9953, 2.50, 0.10),
        ("mem_ctrl", 0.9958, 1.92, 0.22),
    ];

    let mut rows = Vec::new();
    let mut err_analytical = 0.0f64;
    let mut err_deepseq = 0.0f64;
    let designs = all_designs();
    for netlist in &designs {
        let start = Instant::now();
        let lowered = lower_to_aig(netlist).expect("designs are valid");
        let mut w_rng = StdRng::seed_from_u64(77);
        let workload = Workload::random(netlist.inputs().len(), &mut w_rng);

        let gt = inject_faults(&lowered.aig, &workload, &fault_opts);
        let analytical = analyze(
            &lowered.aig,
            &workload,
            &AnalyticalOptions {
                error_rate: fault_opts.error_rate,
                ..AnalyticalOptions::default()
            },
        );
        let prediction = predict_reliability(&model, &lowered.aig, &workload, 42);

        let e_a = percent_error(analytical.output_reliability, gt.output_reliability);
        let e_d = percent_error(prediction.output_reliability, gt.output_reliability);
        err_analytical += e_a;
        err_deepseq += e_d;
        let paper_row = paper
            .iter()
            .find(|(n, _, _, _)| *n == netlist.name())
            .copied()
            .unwrap_or((netlist.name(), 0.0, 0.0, 0.0));
        eprintln!(
            "[table7] {}: GT {:.4}, analytical {:.4} ({:.2}%), deepseq {:.4} ({:.2}%) ({:.0}s)",
            netlist.name(),
            gt.output_reliability,
            analytical.output_reliability,
            e_a,
            prediction.output_reliability,
            e_d,
            start.elapsed().as_secs_f64()
        );
        rows.push(vec![
            netlist.name().to_string(),
            format!("{:.4}", gt.output_reliability),
            format!("{:.4}", analytical.output_reliability),
            fmt_pct(e_a),
            format!("{:.4}", prediction.output_reliability),
            fmt_pct(e_d),
            format!("{:.4}/{:.1}%/{:.1}%", paper_row.1, paper_row.2, paper_row.3),
        ]);
    }
    let n = designs.len() as f64;
    rows.push(vec![
        "Avg.".into(),
        String::new(),
        String::new(),
        fmt_pct(err_analytical / n),
        String::new(),
        fmt_pct(err_deepseq / n),
        "-/2.7%/0.3%".into(),
    ]);

    print_table(
        "Table VII: reliability analysis on 6 large-scale circuits",
        &[
            "Design Name",
            "GT",
            "Probabilistic",
            "Error",
            "DeepSeq",
            "Error",
            "Paper (GT/P/D)",
        ],
        &rows,
    );
    println!("(shape to check: fine-tuned DeepSeq closer to GT than the analytical method)");
}
