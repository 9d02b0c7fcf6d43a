//! Sample statistics, the result line, and the two host probes the
//! workloads share (peak RSS and the raw loopback echo).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Named metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result object: the last line the benchmark prints.
    pub fn result_line(&self, attempted: u64, failed: u64) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(&format!(
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Median round trip, in microseconds, of `rounds` 64-byte messages
/// echoed by a raw `TcpStream` on loopback: one write per message, so
/// no Nagle/delayed-ACK stall. This is the floor an RPC round trip is
/// compared against.
pub fn loopback_echo_rtt_us(rounds: usize, seed: u64) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("loopback echo: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            let mut buf = [0u8; 64];
            for _ in 0..rounds {
                conn.read_exact(&mut buf)?;
                conn.write_all(&buf)?;
            }
            Ok(())
        });
        let mut samples = Vec::with_capacity(rounds);
        let client = (|| -> std::io::Result<()> {
            let mut conn = TcpStream::connect(addr)?;
            let mut msg = [0u8; 64];
            let mut rng = SplitMix(seed);
            let mut back = [0u8; 64];
            for _ in 0..rounds {
                msg.iter_mut().for_each(|b| *b = rng.next() as u8);
                let t = Instant::now();
                conn.write_all(&msg)?;
                conn.read_exact(&mut back)?;
                samples.push(secs(t) * 1e6);
                if back != msg {
                    return Err(std::io::Error::other("echo returned different bytes"));
                }
            }
            Ok(())
        })();
        let served = echo.join().map_err(|_| "echo thread panicked".to_owned())?;
        client.map_err(io)?;
        served.map_err(io)?;
        Ok(median(&samples))
    })
}

/// SplitMix64: the benchmark's own seeded generator (schedule phases
/// and query order), so the program under test sees only its inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
