//! Host-speed probe. The shared host runs this benchmark's code up to 1.8
//! times slower for tens of seconds at a time, more than any statistic
//! inside one run can average out. A fixed piece of work that does not
//! depend on the program under test slows down with it, so timed intervals
//! are scaled by how long that work took right before and right after
//! them: the figures read as if the host ran at its reference speed
//! throughout, and a change to the program still moves them fully.

use std::time::Instant;

use crate::stats::describe;

/// Time of one `host_probe` on an uncontended 2-vCPU Xeon virtual machine.
pub const PROBE_REF_S: f64 = 0.11;

/// The probe: f32 multiply-adds over L1-resident rows, as in a small dense
/// layer, then short-lived buffers with a `tanh` per element, as on a tape.
/// Returns its duration in seconds.
pub fn host_probe() -> f64 {
    let start = Instant::now();
    let (m, k, n) = (256, 32, 32);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 * 0.02).collect();
    let mut c = vec![0f32; m * n];
    for _ in 0..3000 {
        for i in 0..m {
            let row = &mut c[i * n..(i + 1) * n];
            row.fill(0.0);
            for p in 0..k {
                let a_ip = a[i * k + p];
                let b_row = &b[p * n..(p + 1) * n];
                for j in 0..n {
                    row[j] += a_ip * b_row[j];
                }
            }
        }
        std::hint::black_box(&mut c);
    }
    let mut acc = 0f32;
    for r in 0..10_000 {
        let v: Vec<f32> = (0..32 * 40).map(|i| (i ^ r) as f32).collect();
        let w: Vec<f32> = v.iter().map(|x| x.tanh() * 0.5).collect();
        acc += w[r % w.len()];
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Probes taken between the timed intervals of a run.
pub struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Takes the probe that opens the first interval.
    pub fn start() -> HostSpeed {
        HostSpeed {
            probes: vec![host_probe()],
        }
    }

    /// Takes the probe that closes the interval just timed and returns the
    /// factor that scales that interval to the reference host speed.
    pub fn scale(&mut self) -> f64 {
        self.probes.push(host_probe());
        let around = &self.probes[self.probes.len() - 2..];
        2.0 * PROBE_REF_S / (around[0] + around[1])
    }

    pub fn print(&self) {
        let ms: Vec<f64> = self.probes.iter().map(|s| s * 1e3).collect();
        println!(
            "host probe ms (reference {:.0}): {} probes, {}",
            PROBE_REF_S * 1e3,
            ms.len(),
            describe(&ms)
        );
    }
}
