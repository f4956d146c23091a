//! The `deepseq-serve serve` process under test and a keep-alive client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Variables that change what the server computes or records; cleared for
/// every run (tracing is switched back on explicitly for traced servers).
pub const CLEARED_ENV: [&str; 3] = ["DEEPSEQ_TRACE", "DEEPSEQ_FAULT", "DEEPSEQ_KERNEL"];

/// Server pool size (`DEEPSEQ_THREADS`). A pool of N threads has N − 1
/// workers, and connection handlers run only on workers: with two threads
/// the one worker serves the connection and runs its requests' fan-out
/// itself, so the server and the client keep one core each of a 2-core
/// host busy. With three threads, three busy threads shared two cores and
/// each run settled into a fast or a slow p50 by where the scheduler put
/// them.
pub const SERVER_THREADS: usize = 2;

/// A small fixed circuit sent once to warm the server.
pub const WARM_AAG: &str = "aag 3 1 1 0 1\n2\n4 6\n6 2 4\n";

/// One running `deepseq-serve serve` process. Dropping it kills and reaps
/// the process if it is still running.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits for its
    /// `listening <addr>` line.
    pub fn spawn(bin: &Path, checkpoint: &Path, traced: bool) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--checkpoint"])
            .arg(checkpoint)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for var in CLEARED_ENV {
            cmd.env_remove(var);
        }
        cmd.env("DEEPSEQ_THREADS", SERVER_THREADS.to_string());
        if traced {
            cmd.env("DEEPSEQ_TRACE", "1");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report its address: {line:?}"));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Spawns a server, opens the client connection and sends one warm-up
    /// embed on it. Returns the server, the connection and the time from
    /// spawn until the warm-up was answered.
    pub fn start_warm(
        bin: &Path,
        checkpoint: &Path,
        traced: bool,
    ) -> Result<(Server, Conn, Duration), String> {
        let start = Instant::now();
        let server = Server::spawn(bin, checkpoint, traced)?;
        let mut conn = Conn::open(server.addr)?;
        let response = conn.send(&embed_request(0, 0, WARM_AAG.as_bytes()))?;
        if response.status != 200 {
            return Err(format!("warm-up answered {}", response.status));
        }
        Ok((server, conn, start.elapsed()))
    }

    /// Peak resident set size (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to drain over `conn`, closes the connection and
    /// waits for the process to exit (killing it after 10 s).
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let drained = conn.send(&simple_request("POST", "/admin/drain"));
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after drain".to_string());
                }
            }
        }
        drained.map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB (0 when unreadable).
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A complete `POST /v1/embed` request, ready to write.
pub fn embed_request(id: u64, init_seed: u64, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST /v1/embed?id={id}&seed={init_seed} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A body-less request.
pub fn simple_request(method: &str, path: &str) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: 0\r\n\r\n").into_bytes()
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive client connection; responses are framed by
/// `content-length`.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::with_capacity(64 * 1024, reader),
            line: String::new(),
        })
    }

    /// Writes one complete request and reads its response.
    pub fn send(&mut self, request: &[u8]) -> Result<Response, String> {
        self.writer
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let mut status = 0u16;
        let mut length = 0usize;
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            let line = self.line.trim_end();
            if status == 0 {
                status = line
                    .split(' ')
                    .nth(1)
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| format!("malformed status line {line:?}"))?;
            } else if line.is_empty() {
                break;
            } else if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad content-length {value:?}"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        Ok(Response { status, body })
    }

    /// `GET path`, body as text; errors on a non-200 answer.
    pub fn get_text(&mut self, path: &str) -> Result<String, String> {
        let response = self.send(&simple_request("GET", path))?;
        if response.status != 200 {
            return Err(format!("GET {path} answered {}", response.status));
        }
        String::from_utf8(response.body).map_err(|_| format!("GET {path}: body is not UTF-8"))
    }
}

/// Value of an unlabelled Prometheus sample (`name value` line).
pub fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

/// A numeric field of one stage in the `/debug/trace` summary JSON.
pub fn stage_field(summary: &str, stage: &str, field: &str) -> f64 {
    let Some(at) = summary.find(&format!("{{\"stage\":\"{stage}\"")) else {
        return 0.0;
    };
    let entry = &summary[at..];
    let entry = &entry[..entry.find('}').unwrap_or(entry.len())];
    let key = format!("\"{field}\":");
    entry
        .find(&key)
        .and_then(|i| {
            let rest = &entry[i + key.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_metrics_and_stage_summaries() {
        let prom = "# HELP x y\ndeepseq_pool_steals_total 12\ndeepseq_pool_parks_total 3\n";
        assert_eq!(prom_value(prom, "deepseq_pool_steals_total"), 12.0);
        assert_eq!(prom_value(prom, "missing"), 0.0);
        let summary = "{\"dropped_spans\":0,\"stages\":[{\"stage\":\"gemm\",\"count\":40,\
                       \"p50_s\":0.00001,\"p95_s\":0.00002,\"total_s\":0.5}]}";
        assert_eq!(stage_field(summary, "gemm", "count"), 40.0);
        assert_eq!(stage_field(summary, "gemm", "total_s"), 0.5);
        assert_eq!(stage_field(summary, "forward", "count"), 0.0);
    }
}
