//! Table VI — power estimation on `ac97_ctrl` under five different
//! workloads (W0–W4).
//!
//! A single fine-tuned model per method must generalize to *unseen*
//! workloads of the same circuit (paper Section V-A3b).
//!
//! Run: `cargo bench -p deepseq-bench --bench table6_workloads`

use deepseq_bench::{fmt_mw, fmt_pct, pretrained_deepseq, print_table, Scale};
use deepseq_core::train::train;
use deepseq_data::designs::ac97_ctrl;
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
    eprintln!("[table6] scale: {scale:?}");
    let pretrained = pretrained_deepseq(&scale);

    let netlist = ac97_ctrl();
    let lowered = lower_to_aig(&netlist).expect("valid design");
    let n_pis = netlist.inputs().len();
    let mut rng = StdRng::seed_from_u64(606);

    // Fine-tune both models once on this circuit.
    let size_factor = (6_000.0 / lowered.aig.len() as f64).clamp(0.25, 1.0);
    let ft_workloads = ((scale.ft_workloads as f64 * size_factor).round() as usize).max(2);
    let ft_epochs = ((scale.ft_epochs as f64 * size_factor).round() as usize).max(1);
    let ft_wl: Vec<Workload> = (0..ft_workloads)
        .map(|_| Workload::random(n_pis, &mut rng))
        .collect();
    let ft_samples = finetune_samples(
        &lowered.aig,
        &ft_wl,
        scale.hidden,
        &scale.sim_options(4321),
        88,
    );
    let mut deepseq_ft = pretrained.clone();
    let mut ft_opts = scale.train_options();
    ft_opts.epochs = ft_epochs;
    ft_opts.lr = scale.ft_lr;
    train(&mut deepseq_ft, &ft_samples, &ft_opts);

    let g_samples: Vec<GranniteSample> = ft_wl
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let r = simulate(&lowered.aig, w, &scale.sim_options(4321 + i as u64));
            GranniteSample::new(&lowered.aig, &r.probs)
        })
        .collect();
    let mut grannite = Grannite::new(GranniteConfig {
        hidden_dim: scale.hidden,
        seed: 5,
    });
    train_grannite(
        &mut grannite,
        &g_samples,
        &GranniteTrainOptions {
            epochs: ft_epochs.max(2),
            lr: scale.ft_lr,
            seed: 1,
        },
    );

    // Five unseen workloads W0–W4.
    let pipeline_config = PipelineConfig {
        sim: scale.sim_options(888),
        ..PipelineConfig::default()
    };
    let paper: [(f64, f64, f64); 5] = [
        (26.22, 17.60, 2.74),
        (7.97, 6.93, 3.88),
        (17.73, 2.47, 2.21),
        (13.15, 6.62, 2.69),
        (12.49, 3.49, 1.33),
    ];
    let mut rows = Vec::new();
    let mut errors = (0.0f64, 0.0f64, 0.0f64);
    for (i, paper_row) in paper.iter().enumerate() {
        let workload = Workload::random(n_pis, &mut rng);
        let result = run_pipeline(
            &netlist,
            &workload,
            Some(&grannite),
            Some(&deepseq_ft),
            &pipeline_config,
        );
        let g = result.grannite.expect("grannite supplied");
        let d = result.deepseq.expect("deepseq supplied");
        errors.0 += result.probabilistic.error_pct;
        errors.1 += g.error_pct;
        errors.2 += d.error_pct;
        eprintln!(
            "[table6] W{i}: GT {:.3} mW, prob {:.2}%, grannite {:.2}%, deepseq {:.2}%",
            result.gt_mw, result.probabilistic.error_pct, g.error_pct, d.error_pct
        );
        rows.push(vec![
            format!("W{i}"),
            fmt_mw(result.gt_mw),
            fmt_mw(result.probabilistic.mw),
            fmt_pct(result.probabilistic.error_pct),
            fmt_mw(g.mw),
            fmt_pct(g.error_pct),
            fmt_mw(d.mw),
            fmt_pct(d.error_pct),
            format!("{:.1}/{:.1}/{:.1}", paper_row.0, paper_row.1, paper_row.2),
        ]);
    }
    rows.push(vec![
        "Avg.".into(),
        String::new(),
        String::new(),
        fmt_pct(errors.0 / 5.0),
        String::new(),
        fmt_pct(errors.1 / 5.0),
        String::new(),
        fmt_pct(errors.2 / 5.0),
        "15.5/7.4/2.6".into(),
    ]);

    print_table(
        "Table VI: power estimation on ac97_ctrl with different workloads",
        &[
            "Workload ID",
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
    println!("(shape to check: DeepSeq error lowest and stable across workloads)");
}
