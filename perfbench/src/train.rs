//! The `train` workload: whole `train_on` jobs with the default
//! `TrainOptions` on a 2-thread pool over a fixed seeded corpus.

use std::time::Instant;

use deepseq_core::{train_on, EpochStats, TrainOptions, TrainSample};
use deepseq_netlist::SeqAig;
use deepseq_nn::{Kernel, Pool};
use deepseq_sim::{SimOptions, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs;
use crate::probe::HostSpeed;
use crate::server::{vm_hwm_mb, CLEARED_ENV};
use crate::stats::{describe, median, quantile, ratio, trimmed_mean, Report};

/// The corpus is fixed (not drawn from `--seed`), so the epoch losses and
/// final parameters of every job can be checked against recorded values.
pub const CORPUS_SEED: u64 = 0x7EA1;
pub const CORPUS_SIZE: usize = 4;
pub const TRAIN_THREADS: usize = 2;

/// Set-ups per run, one before each job (then topped up); `setup_s` is the
/// mean of the middle ones, as for the serving workloads.
const SETUP_REPS: usize = 15;
const SETUP_TRIM: usize = 3;

/// Latency limit of `slo_met_ratio`: one whole `train_on` job.
const JOB_LIMIT_MS: f64 = 4000.0;

/// Values every job must reproduce bit for bit (regenerate with
/// `--record-train` after an intended numerics change).
const EXPECTED: &str = include_str!("../expected_train.txt");

pub fn corpus_circuits() -> Vec<SeqAig> {
    inputs::family_circuits(CORPUS_SEED, CORPUS_SIZE)
}

/// The training sample of corpus circuit `i`: a seeded random workload,
/// simulated with the default options.
pub fn sample(aig: &SeqAig, i: usize) -> TrainSample {
    let mut rng = StdRng::seed_from_u64(inputs::mix(CORPUS_SEED ^ i as u64));
    let workload = Workload::random(aig.num_pis(), &mut rng);
    TrainSample::generate(
        aig,
        &workload,
        inputs::HIDDEN,
        &SimOptions::default(),
        i as u64,
    )
}

pub fn corpus() -> Vec<TrainSample> {
    corpus_circuits()
        .iter()
        .enumerate()
        .map(|(i, aig)| sample(aig, i))
        .collect()
}

/// FNV-1a over the model's binary parameter encoding.
fn param_hash(model: &deepseq_core::DeepSeq) -> u64 {
    model
        .save_binary()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One job's fingerprint: final-parameter hash and every epoch loss, as
/// exact bit patterns.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    params: u64,
    losses: Vec<u64>,
}

impl Fingerprint {
    fn of(model: &deepseq_core::DeepSeq, stats: &[EpochStats]) -> Fingerprint {
        Fingerprint {
            params: param_hash(model),
            losses: stats.iter().map(|s| s.loss.to_bits()).collect(),
        }
    }

    fn render(&self) -> String {
        let mut out = format!("params {:016x}\n", self.params);
        for (epoch, bits) in self.losses.iter().enumerate() {
            out.push_str(&format!(
                "loss {epoch} {bits:016x} {}\n",
                f64::from_bits(*bits)
            ));
        }
        out
    }

    fn parse(text: &str) -> Result<Fingerprint, String> {
        let mut params = None;
        let mut losses = Vec::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| format!("bad hex {s:?}"));
            match fields.as_slice() {
                ["params", h] => params = Some(hex(h)?),
                ["loss", _, h, ..] => losses.push(hex(h)?),
                _ => return Err(format!("unreadable expected-values line {line:?}")),
            }
        }
        Ok(Fingerprint {
            params: params.ok_or("expected values lack a params line")?,
            losses,
        })
    }
}

/// One whole job from the fixed initial weights.
fn job(pool: &Pool, samples: &[TrainSample]) -> (Fingerprint, f64) {
    let mut model = inputs::model();
    let start = Instant::now();
    let stats = train_on(pool, &mut model, samples, &TrainOptions::default());
    let secs = start.elapsed().as_secs_f64();
    (Fingerprint::of(&model, &stats), secs)
}

/// Prints the expected-values file for the current code.
pub fn record() {
    let pool = Pool::new(TRAIN_THREADS);
    let (fp, _) = job(&pool, &corpus());
    print!(
        "# Fingerprint of one train job (perfbench train workload): corpus seed {CORPUS_SEED:#x}, \
         {CORPUS_SIZE} circuits, default TrainOptions.\n# params <fnv1a64 of the DSQP bytes>; \
         loss <epoch> <f64 bits> <value>\n{}",
        fp.render()
    );
}

fn print_hygiene() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "hygiene: nproc {nproc}; no client connections; train pool threads {TRAIN_THREADS}; \
         kernel {} (training), simd_accelerated {}; env cleared: {}",
        Kernel::global().name(),
        deepseq_nn::simd_accelerated(),
        CLEARED_ENV.join(", ")
    );
}

/// Runs whole jobs until `seconds` have passed (at least two). Returns the
/// job durations and the number of jobs whose fingerprint differed.
fn jobs_for(
    pool: &Pool,
    samples: &[TrainSample],
    seconds: f64,
    expected: &Fingerprint,
) -> (Vec<f64>, u64) {
    let start = Instant::now();
    let (mut secs, mut mismatches) = (Vec::new(), 0);
    while secs.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let (fp, took) = job(pool, samples);
        if fp != *expected {
            mismatches += 1;
        }
        secs.push(took);
    }
    (secs, mismatches)
}

pub fn run_timed(seconds: f64, report: &mut Report) -> Result<(), String> {
    let expected = Fingerprint::parse(EXPECTED)?;
    print_hygiene();
    // Set-ups are spread over the run, one before each job, so that
    // `setup_s` does not hinge on the host's speed in one instant.
    let set_up = || {
        let start = Instant::now();
        let samples = corpus();
        let pool = Pool::new(TRAIN_THREADS);
        std::hint::black_box(inputs::model());
        (samples, pool, start.elapsed().as_secs_f64())
    };
    // Each set-up and job is scaled to the reference host speed by the
    // probes right before and after it (see `probe`).
    let mut speed = HostSpeed::start();
    let start = Instant::now();
    let (mut setups, mut secs, mut raw_secs, mut mismatches) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    while secs.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let (samples, pool, setup) = set_up();
        let (fp, took) = job(&pool, &samples);
        mismatches += u64::from(fp != expected);
        let k = speed.scale();
        setups.push(setup * k);
        secs.push(took * k);
        raw_secs.push(took);
    }
    while setups.len() < SETUP_REPS {
        let setup = set_up().2;
        setups.push(setup * speed.scale());
    }
    let epochs = TrainOptions::default().epochs;
    let job_ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    // Whole jobs over the time spent in them (set-ups excluded).
    let jobs_per_s = secs.len() as f64 / secs.iter().sum::<f64>();
    println!(
        "jobs (train): run {}, succeeded {}, failed 0, fingerprint mismatches {mismatches}; \
         {} samples per job ({CORPUS_SIZE} circuits x {epochs} epochs); latency limit {JOB_LIMIT_MS} ms",
        secs.len(),
        secs.len() as u64 - mismatches,
        CORPUS_SIZE * epochs,
    );
    println!("job ms at reference host speed: {}", describe(&job_ms));
    let raw_ms: Vec<f64> = raw_secs.iter().map(|s| s * 1e3).collect();
    println!("job ms as measured: {}", describe(&raw_ms));
    speed.print();
    println!(
        "jobs/s as measured: {:.5}",
        raw_secs.len() as f64 / raw_secs.iter().sum::<f64>()
    );
    println!(
        "setup_s samples at reference host speed (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.attempted += secs.len() as u64;
    report.mismatches += mismatches;
    // Against the limit as a user would see them: unscaled.
    let within = raw_secs
        .iter()
        .filter(|&&s| s * 1e3 <= JOB_LIMIT_MS)
        .count();
    report.metric("setup_s", trimmed_mean(&setups, SETUP_TRIM), "s");
    // On `train` one operation is one whole fine-tuning job.
    report.metric("throughput_rps", jobs_per_s, "1/s");
    report.metric("latency_p50_ms", median(&job_ms), "ms");
    report.metric("latency_p95_ms", quantile(&job_ms, 0.95), "ms");
    report.metric(
        "slo_met_ratio",
        ratio(within as f64, secs.len() as f64),
        "ratio",
    );
    report.metric("peak_rss_mb", vm_hwm_mb("/proc/self/status"), "MB");
    report.metric(
        "train_samples_per_s",
        jobs_per_s * (CORPUS_SIZE * epochs) as f64,
        "1/s",
    );
    Ok(())
}

/// Traced-run part of `train`: the tracing overhead on whole jobs.
/// Returns the untraced and traced job throughput.
pub fn traced_overhead(seconds: f64, report: &mut Report) -> Result<(f64, f64), String> {
    let expected = Fingerprint::parse(EXPECTED)?;
    let samples = corpus();
    let pool = Pool::new(TRAIN_THREADS);
    let (plain, m1) = jobs_for(&pool, &samples, seconds / 2.0, &expected);
    deepseq_nn::trace::set_enabled(true);
    let (traced, m2) = jobs_for(&pool, &samples, seconds / 2.0, &expected);
    deepseq_nn::trace::set_enabled(false);
    report.attempted += (plain.len() + traced.len()) as u64;
    report.mismatches += m1 + m2;
    let rate = |v: &[f64]| v.len() as f64 / v.iter().sum::<f64>();
    Ok((rate(&plain), rate(&traced)))
}
