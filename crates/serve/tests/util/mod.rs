//! Shared helpers of the serve integration tests: a tiny blocking HTTP
//! client, a deterministic circuit generator, and the bitwise prediction
//! comparison used by the equivalence suites.

// Each test binary compiles its own copy and uses a different subset.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use deepseq_core::{DeepSeq, DeepSeqConfig};
use deepseq_netlist::{write_aiger, SeqAig};
use deepseq_nn::Pool;
use deepseq_serve::{Engine, EngineOptions, InferenceModel};

/// A parsed HTTP response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One `Connection: close` HTTP/1.1 exchange against `addr`.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Response {
    let raw = raw_exchange(
        addr,
        format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes()
        .into_iter()
        .chain(body.iter().copied())
        .collect(),
    );
    parse_response(&raw)
}

/// Sends arbitrary bytes and reads to EOF — for malformed-request tests.
pub fn raw_exchange(addr: SocketAddr, payload: Vec<u8>) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream.write_all(&payload).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    raw
}

/// Parses status code and body out of a raw HTTP response.
pub fn parse_response(raw: &[u8]) -> Response {
    let text = String::from_utf8_lossy(raw);
    let status = text
        .lines()
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {text:.200}"));
    let body = match text.find("\r\n\r\n") {
        Some(at) => text[at + 4..].to_string(),
        None => String::new(),
    };
    Response { status, body }
}

/// Asserts the Prometheus text-exposition correctness of a `/metrics`
/// payload, beyond any individual test's needles:
///
/// * every line is `name[{labels}] value` with a numeric value;
/// * every histogram series has ascending `le` bounds, monotonically
///   non-decreasing cumulative bucket counts, a `+Inf` bucket, and
///   matching `_sum` / `_count` lines with `_count` == the `+Inf` bucket;
/// * the pool and per-stage families added by the tracing layer are
///   present (`deepseq_pool_*`, `deepseq_stage_seconds`) — they are part
///   of the contract whether or not tracing is enabled.
///
/// Not every test binary scrapes `/metrics`, so the helper may go unused
/// in some of them.
#[allow(dead_code)]
pub fn assert_prometheus_contract(text: &str) {
    use std::collections::BTreeMap;
    // (family, labels-without-le) → [(le, cumulative count)] in file order.
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed metrics line: {line}"));
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric metrics value: {line}"));
        values.insert(series.to_string(), value);
        let Some((name, rest)) = series.split_once('{') else {
            continue;
        };
        let Some(family) = name.strip_suffix("_bucket") else {
            continue;
        };
        let labels = rest
            .strip_suffix('}')
            .unwrap_or_else(|| panic!("unterminated label set: {line}"));
        let mut le = None;
        let mut others = Vec::new();
        for label in labels.split(',') {
            if let Some(bound) = label.strip_prefix("le=") {
                let bound = bound.trim_matches('"');
                le = Some(if bound == "+Inf" {
                    f64::INFINITY
                } else {
                    bound
                        .parse()
                        .unwrap_or_else(|_| panic!("unparseable le bound: {line}"))
                });
            } else if !label.is_empty() {
                others.push(label);
            }
        }
        let le = le.unwrap_or_else(|| panic!("bucket without le label: {line}"));
        buckets
            .entry((family.to_string(), others.join(",")))
            .or_default()
            .push((le, value));
    }
    assert!(!buckets.is_empty(), "no histogram series in /metrics");
    for ((family, labels), series) in &buckets {
        let id = format!("{family}{{{labels}}}");
        for pair in series.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "{id}: le bounds not ascending ({} then {})",
                pair[0].0,
                pair[1].0
            );
            assert!(
                pair[0].1 <= pair[1].1,
                "{id}: cumulative bucket counts decrease ({} at le={}, then {} at le={})",
                pair[0].1,
                pair[0].0,
                pair[1].1,
                pair[1].0
            );
        }
        let (last_le, inf_count) = *series.last().expect("non-empty series");
        assert!(last_le.is_infinite(), "{id}: missing le=\"+Inf\" bucket");
        let scalar = |suffix: &str| -> f64 {
            let key = if labels.is_empty() {
                format!("{family}_{suffix}")
            } else {
                format!("{family}_{suffix}{{{labels}}}")
            };
            *values
                .get(&key)
                .unwrap_or_else(|| panic!("{id}: missing {family}_{suffix} line"))
        };
        assert_eq!(
            scalar("count"),
            inf_count,
            "{id}: +Inf bucket disagrees with _count"
        );
        assert!(scalar("sum") >= 0.0, "{id}: negative _sum");
    }
    for required in [
        "deepseq_pool_threads ",
        "deepseq_pool_steals_total ",
        "deepseq_pool_parks_total ",
        "deepseq_pool_wakeups_total ",
        "deepseq_stage_seconds_bucket{",
        "deepseq_stage_p50_seconds{",
        "deepseq_stage_p95_seconds{",
    ] {
        assert!(
            text.lines().any(|line| line.starts_with(required)),
            "`{required}` missing from /metrics:\n{text}"
        );
    }
}

/// Compare a serving-side output matrix against its tape-side reference.
/// Both paths run the same arithmetic on the same kernels, so they must
/// agree bit for bit (see docs/ARCHITECTURE.md, "Numerics contract").
pub fn matrices_match(
    got: &deepseq_nn::Matrix,
    want: &deepseq_nn::Matrix,
    what: &str,
) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!(
            "{what}: shape {:?} vs {:?}",
            got.shape(),
            want.shape()
        ));
    }
    let (got, want) = (got.data(), want.data());
    match (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: element {i} differs bitwise: {:e} vs {:e}",
            got[i], want[i]
        )),
    }
}

/// Panicking wrapper around [`matrices_match`].
#[track_caller]
pub fn assert_matrices_match(got: &deepseq_nn::Matrix, want: &deepseq_nn::Matrix, what: &str) {
    if let Err(msg) = matrices_match(got, want, what) {
        panic!("{msg}");
    }
}

/// A deterministic engine (hidden 8, 2 iterations, fresh seeded weights)
/// on its own `threads`-wide pool.
pub fn test_engine(threads: usize) -> Engine {
    let model = DeepSeq::new(DeepSeqConfig {
        hidden_dim: 8,
        iterations: 2,
        ..DeepSeqConfig::default()
    });
    Engine::with_pool(
        InferenceModel::from_model(&model),
        EngineOptions {
            workers: threads,
            ..EngineOptions::default()
        },
        Arc::new(Pool::new(threads)),
    )
}

/// The `index`-th distinct test circuit: a `2 + index`-bit ripple counter
/// with an enable PI, in ASCII AIGER.
pub fn counter_aiger(index: usize) -> String {
    write_aiger(&counter_aig(index))
}

/// The same circuit as a [`SeqAig`] (for in-process comparison requests).
pub fn counter_aig(index: usize) -> SeqAig {
    let bits = 2 + index;
    let mut aig = SeqAig::new(format!("counter{bits}"));
    let enable = aig.add_pi("enable");
    let ffs: Vec<_> = (0..bits)
        .map(|b| aig.add_ff(format!("q{b}"), b % 2 == 0))
        .collect();
    let mut carry = enable;
    for (b, &ff) in ffs.iter().enumerate() {
        let nq = aig.add_not(ff);
        let ncarry = aig.add_not(carry);
        let l = aig.add_and(ff, ncarry);
        let r = aig.add_and(nq, carry);
        let nl = aig.add_not(l);
        let nr = aig.add_not(r);
        let nxor = aig.add_and(nl, nr);
        let next = aig.add_not(nxor);
        let new_carry = aig.add_and(ff, carry);
        aig.connect_ff(ff, next).expect("ff wiring");
        aig.set_output(ff, format!("count{b}"));
        carry = new_carry;
    }
    aig
}
