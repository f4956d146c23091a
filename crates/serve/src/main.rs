//! `deepseq-serve` — serve DeepSeq predictions from the command line.
//!
//! ```text
//! deepseq-serve predict [options] <circuit files...>
//! deepseq-serve serve [options]
//! deepseq-serve convert <input> <output>
//! deepseq-serve help
//! ```
//!
//! `predict` loads circuits (`.aag` ASCII AIGER or `.bench` ISCAS'89,
//! lowered to AIGs), runs them through the batched inference engine and
//! prints one JSON object per circuit to stdout. `serve` puts the same
//! engine behind an HTTP/1.1 endpoint (`POST /v1/embed`, `/healthz`,
//! `/metrics`; see `docs/SERVING.md`). Both read `DSQM` checkpoints only;
//! `convert` turns a `DSQM` checkpoint into text and text into `DSQM`
//! (direction picked by the input's magic).

use std::fs;
use std::process::ExitCode;
use std::time::Duration;

use deepseq_core::model::MODEL_MAGIC;
use deepseq_core::{DeepSeq, DeepSeqConfig};
use deepseq_netlist::{lower_to_aig, parse_aiger, SeqAig};
use deepseq_nn::ParamsError;
use deepseq_serve::json::response_to_json;
use deepseq_serve::{
    Engine, EngineOptions, HttpServer, InferenceModel, ServeError, ServeRequest, ServerOptions,
};
use deepseq_sim::Workload;

const USAGE: &str = "deepseq-serve — batched tape-free DeepSeq inference

USAGE:
    deepseq-serve predict [OPTIONS] <FILES...>
    deepseq-serve serve [OPTIONS]
    deepseq-serve convert <INPUT> <OUTPUT>
    deepseq-serve help

predict options:
    --checkpoint <FILE>  `DSQM` model checkpoint (CRC-verified; convert a
                         text checkpoint first); without it a freshly
                         seeded model is used
    --hidden <D>         hidden dim for the fresh model (default 32)
    --iters <T>          propagation iterations for the fresh model (default 4)
    --p1 <P>             uniform workload logic-1 probability (default 0.5)
    --seed <S>           initial-state seed (default 0)
    --workers <N>        max requests processed concurrently (default: the
                         pool size; the pool itself is sized by the
                         DEEPSEQ_THREADS environment variable)
    --cones <N>          cone-memo capacity in fanin cones (default 1024;
                         0 disables reuse)
    --repeat <N>         serve the file batch N times (default 1; >1 shows
                         the cache-hit path)
    --summary            emit mean predictions instead of full matrices
    --stats              print engine/cone-memo statistics to stderr
    --trace-out <FILE>   enable span tracing and write a chrome://tracing
                         JSON profile to FILE on exit (see
                         docs/OBSERVABILITY.md); DEEPSEQ_TRACE=<FILE> does
                         the same without the flag

serve options:
    --addr <HOST:PORT>   bind address (default 127.0.0.1:0; the chosen
                         address is printed to stdout as `listening <addr>`)
    --checkpoint <FILE>  model checkpoint (as for predict); without it a
                         freshly seeded model is used
    --hidden <D>         hidden dim for the fresh model (default 32)
    --iters <T>          propagation iterations for the fresh model (default 4)
    --cones <N>          cone-memo capacity in fanin cones (default 1024;
                         0 disables reuse)
    --max-inflight <N>   admission: concurrent embed requests (default: pool size)
    --max-queue <N>      admission: waiting embed requests before 429 (default 64)
    --deadline-ms <MS>   per-request deadline, 504 on expiry (default 30000)
    --degrade-after <N>  enter degraded (cache-only) mode after N consecutive
                         429 rejections with no admission in between
                         (default 0 = never trip automatically)
    --trace-out <FILE>   enable span tracing: `GET /debug/trace` serves live
                         span trees / stage summaries, and a chrome://tracing
                         JSON profile is written to FILE after drain
    The server runs until `POST /admin/drain` arrives, then drains
    gracefully: in-flight requests finish, no new connections are accepted.
    `POST /admin/reload` re-reads --checkpoint and swaps it in (failed
    reloads degrade the server to cache-only; see docs/RELIABILITY.md);
    `POST /admin/degrade?mode=on|off` toggles degraded mode by hand.

convert:
    a `DSQM` checkpoint becomes text (`deepseq-model v1` header), anything
    else is read as text and becomes `DSQM`; the weights are preserved
    exactly. Text is for reading and editing only: every load path reads
    `DSQM`.

Circuits: *.aag (ASCII AIGER) are read directly; *.bench netlists are
lowered to sequential AIGs first. Each PI receives the uniform --p1
stimulus.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    let result = match command {
        "predict" => predict(rest),
        "serve" => serve(rest),
        "convert" => convert(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

struct PredictArgs {
    checkpoint: Option<String>,
    hidden: usize,
    iters: usize,
    p1: f64,
    seed: u64,
    workers: Option<usize>,
    cones: usize,
    repeat: usize,
    summary: bool,
    stats: bool,
    trace_out: Option<String>,
    files: Vec<String>,
}

fn parse_predict_args(args: &[String]) -> Result<PredictArgs, String> {
    let mut out = PredictArgs {
        checkpoint: None,
        hidden: 32,
        iters: 4,
        p1: 0.5,
        seed: 0,
        workers: None,
        cones: EngineOptions::default().cone_capacity,
        repeat: 1,
        summary: false,
        stats: false,
        trace_out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--checkpoint" => out.checkpoint = Some(value("--checkpoint")?.clone()),
            "--hidden" => out.hidden = parse_num(value("--hidden")?, "--hidden")?,
            "--iters" => out.iters = parse_num(value("--iters")?, "--iters")?,
            "--p1" => {
                out.p1 = value("--p1")?
                    .parse()
                    .map_err(|_| "--p1 needs a float".to_string())?
            }
            "--seed" => out.seed = parse_num(value("--seed")?, "--seed")? as u64,
            "--workers" => out.workers = Some(parse_num(value("--workers")?, "--workers")?),
            "--cones" => out.cones = parse_num(value("--cones")?, "--cones")?,
            "--repeat" => out.repeat = parse_num(value("--repeat")?, "--repeat")?.max(1),
            "--summary" => out.summary = true,
            "--stats" => out.stats = true,
            "--trace-out" => out.trace_out = Some(value("--trace-out")?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            file => out.files.push(file.to_string()),
        }
    }
    if out.files.is_empty() {
        return Err(format!("no circuit files given\n\n{USAGE}"));
    }
    Ok(out)
}

fn parse_num(s: &str, name: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{name} needs an integer"))
}

/// Resolves where the chrome://tracing profile should go: an explicit
/// `--trace-out FILE` wins (and force-enables tracing); otherwise a
/// `DEEPSEQ_TRACE=<path>` environment value supplies the path. Returns
/// `None` when no profile should be written (tracing may still be on via
/// `DEEPSEQ_TRACE=1`, feeding `/debug/trace` and the stage metrics only).
fn resolve_trace_out(cli: &Option<String>) -> Option<String> {
    use deepseq_nn::trace;
    if let Some(path) = cli {
        trace::set_enabled(true);
        return Some(path.clone());
    }
    if trace::enabled() {
        return trace::env_output_path();
    }
    None
}

/// Writes the accumulated spans as a chrome://tracing JSON profile.
fn write_trace_profile(path: &str) -> Result<(), String> {
    let json = deepseq_nn::trace::chrome_trace_json();
    fs::write(path, &json).map_err(|e| format!("writing trace profile {path}: {e}"))?;
    eprintln!("trace profile written to {path} ({} bytes)", json.len());
    Ok(())
}

fn predict(args: &[String]) -> Result<(), String> {
    let args = parse_predict_args(args)?;
    let trace_out = resolve_trace_out(&args.trace_out);

    let model = match &args.checkpoint {
        Some(path) => load_checkpoint(path)?,
        None => {
            let config = DeepSeqConfig {
                hidden_dim: args.hidden,
                iterations: args.iters,
                ..DeepSeqConfig::default()
            };
            InferenceModel::from(DeepSeq::new(config))
        }
    };

    let circuits: Vec<SeqAig> = args
        .files
        .iter()
        .map(|path| load_circuit(path))
        .collect::<Result<_, _>>()?;

    let options = EngineOptions {
        workers: args.workers.unwrap_or(EngineOptions::default().workers),
        cone_capacity: args.cones,
        ..EngineOptions::default()
    };
    let engine = Engine::new(model, options);

    let mut next_id = 0u64;
    for _round in 0..args.repeat {
        let requests: Vec<ServeRequest> = circuits
            .iter()
            .map(|aig| {
                let id = next_id;
                next_id += 1;
                ServeRequest {
                    id,
                    aig: aig.clone(),
                    workload: Workload::uniform(aig.num_pis(), args.p1),
                    init_seed: args.seed,
                }
            })
            .collect();
        for response in engine.serve_batch(requests) {
            println!("{}", response_to_json(&response, args.summary));
        }
    }

    if args.stats {
        let (s, c) = (engine.cache_stats(), engine.cone_stats());
        eprintln!(
            "served {} requests ({} wholly from the memo) | cone memo: {} hits, {} misses, {} evictions, {}/{} entries ({:.0}% hit)",
            engine.requests_served(),
            s.hits,
            c.hits,
            c.misses,
            c.evictions,
            c.entries,
            c.capacity,
            100.0 * c.hit_ratio()
        );
    }
    if let Some(path) = &trace_out {
        write_trace_profile(path)?;
    }
    Ok(())
}

struct ServeArgs {
    addr: String,
    checkpoint: Option<String>,
    hidden: usize,
    iters: usize,
    cones: usize,
    max_inflight: usize,
    max_queue: usize,
    deadline_ms: u64,
    degrade_after: u64,
    trace_out: Option<String>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let defaults = ServerOptions::default();
    let mut out = ServeArgs {
        addr: defaults.addr,
        checkpoint: None,
        hidden: 32,
        iters: 4,
        cones: EngineOptions::default().cone_capacity,
        max_inflight: defaults.max_inflight,
        max_queue: defaults.max_queue,
        deadline_ms: defaults.deadline.as_millis() as u64,
        degrade_after: defaults.saturation_trip,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => out.addr = value("--addr")?.clone(),
            "--checkpoint" => out.checkpoint = Some(value("--checkpoint")?.clone()),
            "--hidden" => out.hidden = parse_num(value("--hidden")?, "--hidden")?,
            "--iters" => out.iters = parse_num(value("--iters")?, "--iters")?,
            "--cones" => out.cones = parse_num(value("--cones")?, "--cones")?,
            "--max-inflight" => {
                out.max_inflight = parse_num(value("--max-inflight")?, "--max-inflight")?
            }
            "--max-queue" => out.max_queue = parse_num(value("--max-queue")?, "--max-queue")?,
            "--deadline-ms" => {
                out.deadline_ms = parse_num(value("--deadline-ms")?, "--deadline-ms")? as u64
            }
            "--degrade-after" => {
                out.degrade_after = parse_num(value("--degrade-after")?, "--degrade-after")? as u64
            }
            "--trace-out" => out.trace_out = Some(value("--trace-out")?.clone()),
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    Ok(out)
}

fn serve(args: &[String]) -> Result<(), String> {
    let args = parse_serve_args(args)?;
    let trace_out = resolve_trace_out(&args.trace_out);
    let model = match &args.checkpoint {
        Some(path) => load_checkpoint(path)?,
        None => {
            let config = DeepSeqConfig {
                hidden_dim: args.hidden,
                iterations: args.iters,
                ..DeepSeqConfig::default()
            };
            InferenceModel::from(DeepSeq::new(config))
        }
    };
    let engine = Engine::new(
        model,
        EngineOptions {
            cone_capacity: args.cones,
            ..EngineOptions::default()
        },
    );
    let server = HttpServer::bind(
        engine,
        ServerOptions {
            addr: args.addr,
            max_inflight: args.max_inflight,
            max_queue: args.max_queue,
            deadline: Duration::from_millis(args.deadline_ms),
            checkpoint_path: args.checkpoint.clone(),
            saturation_trip: args.degrade_after,
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("binding server: {e}"))?;
    // Stdout contract: exactly this line, so scripts can scrape the port.
    println!("listening {}", server.local_addr());
    server.wait_for_drain_request();
    eprintln!("drain requested; finishing in-flight requests");
    let report = server.shutdown();
    eprintln!(
        "drained: {} requests served, {} connections abandoned",
        report.requests_served, report.connections_abandoned
    );
    if let Some(path) = &trace_out {
        write_trace_profile(path)?;
    }
    Ok(())
}

fn load_checkpoint(path: &str) -> Result<InferenceModel, String> {
    match deepseq_serve::load_checkpoint(path.as_ref()) {
        Ok(model) => Ok(model.into()),
        Err(e @ ServeError::Checkpoint(ParamsError::BadMagic)) => Err(format!(
            "loading checkpoint {path}: {e}; a text checkpoint must be converted first: \
             deepseq-serve convert {path} <OUTPUT>"
        )),
        Err(e) => Err(format!("loading checkpoint {path}: {e}")),
    }
}

fn load_circuit(path: &str) -> Result<SeqAig, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".aag")
        .trim_end_matches(".bench")
        .to_string();
    if path.ends_with(".aag") {
        let mut aig = parse_aiger(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        // The parser has no design name to work with; use the file stem.
        if aig.name().is_empty() || aig.name() == "aiger" {
            aig = rename(aig, &stem);
        }
        Ok(aig)
    } else if path.ends_with(".bench") {
        let netlist = deepseq_netlist::bench_io::parse_bench_named(&text, &stem)
            .map_err(|e| format!("parsing {path}: {e}"))?;
        let lowered = lower_to_aig(&netlist).map_err(|e| format!("lowering {path}: {e}"))?;
        Ok(lowered.aig)
    } else {
        Err(format!(
            "{path}: unsupported extension (expected .aag or .bench)"
        ))
    }
}

/// Rebuilds an AIG under a new design name (SeqAig names are immutable).
fn rename(aig: SeqAig, name: &str) -> SeqAig {
    let mut out = SeqAig::new(name);
    for (id, node) in aig.iter() {
        use deepseq_netlist::AigNode;
        match *node {
            AigNode::Pi => {
                out.add_pi(
                    aig.node_name(id)
                        .unwrap_or(&format!("pi{}", id.0))
                        .to_string(),
                );
            }
            AigNode::And(a, b) => {
                out.add_and(a, b);
            }
            AigNode::Not(a) => {
                out.add_not(a);
            }
            AigNode::Ff { init, .. } => {
                out.add_ff(
                    aig.node_name(id)
                        .unwrap_or(&format!("ff{}", id.0))
                        .to_string(),
                    init,
                );
            }
        }
    }
    for (id, node) in aig.iter() {
        if let deepseq_netlist::AigNode::Ff { d: Some(d), .. } = *node {
            let _ = out.connect_ff(id, d);
        }
    }
    for (node, oname) in aig.outputs() {
        out.set_output(*node, oname.clone());
    }
    out
}

fn convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err(format!("convert needs <INPUT> <OUTPUT>\n\n{USAGE}"));
    };
    let input_bytes = fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let converted = if input_bytes.starts_with(&MODEL_MAGIC) {
        DeepSeq::from_binary_checkpoint(&input_bytes)
            .map(|model| (model.to_text().into_bytes(), "DSQM → text"))
    } else {
        DeepSeq::from_text(&String::from_utf8_lossy(&input_bytes))
            .map(|model| (model.save_binary(), "text → DSQM"))
    };
    let (bytes, direction) = converted.map_err(|e| format!("loading checkpoint {input}: {e}"))?;
    // write_atomic (temp file + fsync + rename) so a crash mid-convert
    // never leaves a truncated checkpoint at the output path.
    deepseq_nn::write_atomic(output.as_ref(), &bytes)
        .map_err(|e| format!("writing {output}: {e}"))?;
    eprintln!("converted {direction}: {input} → {output}");
    Ok(())
}
