//! Table V — power estimation on the six large test designs.
//!
//! Reproduces the Fig. 3 pipeline: ground-truth logic simulation, the
//! probabilistic baseline [27], fine-tuned Grannite [18] and fine-tuned
//! DeepSeq each produce a SAIF file, which the power model evaluates with a
//! 90 nm-class cell library.
//!
//! Expected shape (paper): Probabilistic worst (16.35% avg error), Grannite
//! middle (8.48%), DeepSeq best (3.19%).
//!
//! Run: `cargo bench -p deepseq-bench --bench table5_power`

use std::time::Instant;

use deepseq_bench::{fmt_mw, fmt_pct, pretrained_deepseq, print_table, Scale};
use deepseq_core::train::train;
use deepseq_data::designs::all_designs;
use deepseq_netlist::lower_to_aig;
use deepseq_power::{
    finetune_samples, run_pipeline, train_grannite, Grannite, GranniteConfig, GranniteSample,
    GranniteTrainOptions, PipelineConfig,
};
use deepseq_sim::{simulate, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    eprintln!("[table5] scale: {scale:?}");
    let pretrained = pretrained_deepseq(&scale);

    // Pre-train Grannite on the same corpus (paper Section V-A2: "we keep
    // the same training data for Grannite").
    let corpus = deepseq_data::dataset::Corpus::generate(scale.circuits, 11);
    let mut rng = StdRng::seed_from_u64(29);
    let grannite_samples: Vec<GranniteSample> = corpus
        .circuits()
        .iter()
        .enumerate()
        .map(|(i, aig)| {
            let w = Workload::random(aig.num_pis(), &mut rng);
            let r = simulate(aig, &w, &scale.sim_options(300 + i as u64));
            GranniteSample::new(aig, &r.probs)
        })
        .collect();
    let mut grannite = Grannite::new(GranniteConfig {
        hidden_dim: scale.hidden,
        seed: 5,
    });
    let g_start = Instant::now();
    train_grannite(
        &mut grannite,
        &grannite_samples,
        &GranniteTrainOptions {
            epochs: scale.epochs,
            lr: scale.lr,
            seed: 0,
        },
    );
    eprintln!(
        "[table5] pre-trained Grannite in {:.1}s",
        g_start.elapsed().as_secs_f64()
    );

    let pipeline_config = PipelineConfig {
        sim: scale.sim_options(999),
        ..PipelineConfig::default()
    };

    let mut rows = Vec::new();
    let mut errors = (0.0f64, 0.0f64, 0.0f64);
    let paper_rows: &[(&str, f64, f64, f64)] = &[
        ("noc_router", 6.58, 1.85, 1.53),
        ("pll", 19.12, 11.41, 2.56),
        ("ptc", 25.55, 10.20, 3.24),
        ("rtcclock", 12.84, 5.72, 4.54),
        ("ac97_ctrl", 26.22, 17.60, 2.74),
        ("mem_ctrl", 7.77, 4.10, 4.54),
    ];

    let designs = all_designs();
    for netlist in &designs {
        let design_start = Instant::now();
        let lowered = lower_to_aig(netlist).expect("designs are valid");
        let n_pis = netlist.inputs().len();
        let mut w_rng = StdRng::seed_from_u64(hash_name(netlist.name()));
        let test_workload = Workload::random(n_pis, &mut w_rng);

        // Budget-aware fine-tuning: large designs get fewer steps so the
        // default run stays tractable (full scale: DEEPSEQ_SCALE=full).
        let size_factor = (6_000.0 / lowered.aig.len() as f64).clamp(0.25, 1.0);
        let ft_workloads = ((scale.ft_workloads as f64 * size_factor).round() as usize).max(2);
        let ft_epochs = ((scale.ft_epochs as f64 * size_factor).round() as usize).max(1);

        // Fine-tune DeepSeq on this design under fresh random workloads
        // (Section V-A1).
        let ft_wl: Vec<Workload> = (0..ft_workloads)
            .map(|_| Workload::random(n_pis, &mut w_rng))
            .collect();
        let ft_samples = finetune_samples(
            &lowered.aig,
            &ft_wl,
            scale.hidden,
            &scale.sim_options(1234),
            77,
        );
        let mut deepseq_ft = pretrained.clone();
        let mut ft_opts = scale.train_options();
        ft_opts.epochs = ft_epochs;
        ft_opts.lr = scale.ft_lr;
        train(&mut deepseq_ft, &ft_samples, &ft_opts);

        // Fine-tune Grannite on the same workloads.
        let g_samples: Vec<GranniteSample> = ft_wl
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let r = simulate(&lowered.aig, w, &scale.sim_options(1234 + i as u64));
                GranniteSample::new(&lowered.aig, &r.probs)
            })
            .collect();
        let mut grannite_ft = grannite.clone();
        train_grannite(
            &mut grannite_ft,
            &g_samples,
            &GranniteTrainOptions {
                epochs: ft_epochs,
                lr: scale.ft_lr,
                seed: 1,
            },
        );

        let result = run_pipeline(
            netlist,
            &test_workload,
            Some(&grannite_ft),
            Some(&deepseq_ft),
            &pipeline_config,
        );
        let g = result.grannite.expect("grannite supplied");
        let d = result.deepseq.expect("deepseq supplied");
        errors.0 += result.probabilistic.error_pct;
        errors.1 += g.error_pct;
        errors.2 += d.error_pct;
        let paper = paper_rows
            .iter()
            .find(|(n, _, _, _)| *n == netlist.name())
            .copied()
            .unwrap_or((netlist.name(), 0.0, 0.0, 0.0));
        eprintln!(
            "[table5] {}: GT {:.3} mW, prob {:.2}%, grannite {:.2}%, deepseq {:.2}% ({:.0}s)",
            netlist.name(),
            result.gt_mw,
            result.probabilistic.error_pct,
            g.error_pct,
            d.error_pct,
            design_start.elapsed().as_secs_f64()
        );
        rows.push(vec![
            result.design.clone(),
            fmt_mw(result.gt_mw),
            fmt_mw(result.probabilistic.mw),
            fmt_pct(result.probabilistic.error_pct),
            fmt_mw(g.mw),
            fmt_pct(g.error_pct),
            fmt_mw(d.mw),
            fmt_pct(d.error_pct),
            format!("{:.1}/{:.1}/{:.1}", paper.1, paper.2, paper.3),
        ]);
    }
    let n = designs.len() as f64;
    rows.push(vec![
        "Avg.".into(),
        String::new(),
        String::new(),
        fmt_pct(errors.0 / n),
        String::new(),
        fmt_pct(errors.1 / n),
        String::new(),
        fmt_pct(errors.2 / n),
        "16.4/8.5/3.2".into(),
    ]);

    print_table(
        "Table V: power estimation on 6 large-scale circuits",
        &[
            "Design Name",
            "GT (mW)",
            "Prob. (mW)",
            "Error",
            "Grannite (mW)",
            "Error",
            "DeepSeq (mW)",
            "Error",
            "Paper err (P/G/D)",
        ],
        &rows,
    );
    println!("(shape to check: probabilistic worst, Grannite middle, DeepSeq best on average)");
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}
