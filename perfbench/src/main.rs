//! End-to-end and per-layer benchmark for Fremont.
//!
//! ```sh
//! python3 perfbench/run.py --workload survey_inproc --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `survey_inproc` (the 114-subnet campus surveyed for 16
//! simulated hours into the in-process Journal), `deployment_remote`
//! (the same campus, one simulated hour, the driver writing through to a
//! WAL-backed Journal Server over loopback TCP) and `journal_serve` (a
//! pre-populated WAL-backed server under an open-loop writer and
//! presentation reader). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` prints the per-layer ones from a traced run beside an
//! untraced one. The last stdout line is the JSON result; a failed
//! correctness gate prints no result and exits non-zero.
//!
//! `--seed` drives the benchmark's own schedule and query order.
//! `--campus-seed` (default 1993, the paper campus; 20717 is held out
//! for claims) picks the campus, which stays fixed across seeds because
//! the generator's seed changes the campus size and discovery outcome.

mod report;
mod serve;
mod survey;

use std::path::{Path, PathBuf};
use std::time::Instant;

use fremont_netsim::campus::CampusConfig;

use report::{loopback_echo_rtt_us, median, peak_rss_mb, secs, Metrics, SplitMix};
use serve::{capture, capture_span, Stream};
use survey::{iteration, journal_metrics, server_metrics, Samples, Session, SESSION_SPAN};

/// Set-ups alone at the start and at the end of a run, and before each
/// survey besides its own, so that they spread over the run; `setup_s`
/// is the median of all. `journal_serve` measures the server of its
/// last set-up at the start.
const SETUP_ONLY: usize = 15;
const SERVE_SETUPS: usize = 8;
const SETUPS_PER_SURVEY: usize = 4;
/// Round trips in the raw loopback echo probe.
const ECHO_ROUNDS: usize = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    campus_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1993,
        seconds: 30.0,
        trace: false,
        campus_seed: CampusConfig::default().seed,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--campus-seed" => args.campus_seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> Result<String, String> {
    let cfg = CampusConfig {
        seed: args.campus_seed,
        ..CampusConfig::default()
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut rng = SplitMix(args.seed);
    let result = match (args.workload.as_str(), args.trace) {
        ("survey_inproc", false) => survey_e2e(&cfg, &work, false, args, &mut rng),
        ("deployment_remote", false) => survey_e2e(&cfg, &work, true, args, &mut rng),
        ("survey_inproc", true) => survey_traced(&cfg, &work, false, args, &mut rng),
        ("deployment_remote", true) => survey_traced(&cfg, &work, true, args, &mut rng),
        ("journal_serve", false) => serve_e2e(&cfg, &work, args, &mut rng),
        ("journal_serve", true) => serve_traced(&cfg, &work, args, &mut rng),
        (other, _) => Err(format!(
            "unknown workload {other:?} (survey_inproc, deployment_remote, journal_serve)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let (metrics, samples) = result?;
    metrics.result_line(samples.attempted, samples.failed)
}

fn end_to_end(setup: &[f64], survey_s: f64, samples: &Samples) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    m.put("setup_s", median(setup), "s");
    m.put("survey_s", survey_s, "s");
    samples.latency_metrics(&mut m);
    m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(m)
}

/// Whether one more iteration, as long as the one begun at `last`, ends
/// within `seconds` of `start`.
fn another_fits(start: Instant, last: Instant, seconds: f64) -> bool {
    secs(start) + secs(last) <= seconds
}

/// Iteration `i`'s directory for `deployment_remote`.
fn deploy_dir(work: &Path, remote: bool, i: usize) -> Option<PathBuf> {
    remote.then(|| work.join(format!("deploy-{i}")))
}

/// Runs the survey workloads' presentation session, once per run,
/// after the first survey.
fn survey_session(
    stream: &Stream,
    work: &Path,
    remote: bool,
    rng: &mut SplitMix,
    samples: &mut Samples,
) -> Result<(), String> {
    let session = Session {
        stream,
        rng,
        samples,
    };
    let wal_dir = remote.then(|| work.join("session"));
    survey::run_session(session, wal_dir.as_deref())
}

fn survey_e2e(
    cfg: &CampusConfig,
    work: &Path,
    remote: bool,
    args: &Args,
    rng: &mut SplitMix,
) -> Result<(Metrics, Samples), String> {
    let stream = capture(cfg, &work.join("capture"), SESSION_SPAN, false)?;
    let start = Instant::now();
    let mut samples = Samples::default();
    let (mut setups, mut surveys) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut dirs = 0;
    let mut next_dir = || {
        dirs += 1;
        deploy_dir(work, remote, dirs)
    };
    for _ in 0..SETUP_ONLY {
        setups.push(survey::setup_time(cfg, next_dir().as_deref())?);
    }
    loop {
        let started = Instant::now();
        for _ in 0..SETUPS_PER_SURVEY {
            setups.push(survey::setup_time(cfg, next_dir().as_deref())?);
        }
        samples.attempted += 1;
        let it = iteration(cfg, next_dir().as_deref(), false)?;
        if surveys.is_empty() {
            survey_session(&stream, work, remote, rng, &mut samples)?;
        }
        if *first.get_or_insert(it.counts) != it.counts {
            return Err(
                "same campus, different work counts: the survey is not deterministic".into(),
            );
        }
        setups.push(it.setup_s);
        surveys.push(it.survey_s);
        if !another_fits(start, started, args.seconds) {
            break;
        }
    }
    for _ in 0..SETUP_ONLY {
        setups.push(survey::setup_time(cfg, next_dir().as_deref())?);
    }
    println!(
        "{} surveys; survey_s samples: {:?}",
        surveys.len(),
        surveys
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
    );
    Ok((end_to_end(&setups, median(&surveys), &samples)?, samples))
}

/// Per-layer metrics taken around the layers rather than inside one:
/// round trips, generator lateness, tracing overhead and error rate.
fn host_metrics(
    m: &mut Metrics,
    samples: &Samples,
    late_ms: f64,
    overhead_pct: f64,
    seed: u64,
) -> Result<(), String> {
    m.put("client.rtt_p50_us", median(&samples.stats_us), "us");
    m.put(
        "net.loopback_echo_rtt_us",
        loopback_echo_rtt_us(ECHO_ROUNDS, seed)?,
        "us",
    );
    m.put("journal_serve.generator_late_ms", late_ms, "ms");
    m.put("trace_overhead_pct", overhead_pct, "%");
    m.put(
        "error_rate",
        samples.failed as f64 / samples.attempted.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Median of each named metric across traced iterations.
fn median_metrics(runs: &[Metrics]) -> Metrics {
    let mut out = Metrics::default();
    for (name, _, unit) in runs[0].iter() {
        let values: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
        out.put(name.clone(), median(&values), unit);
    }
    out
}

fn survey_traced(
    cfg: &CampusConfig,
    work: &Path,
    remote: bool,
    args: &Args,
    rng: &mut SplitMix,
) -> Result<(Metrics, Samples), String> {
    let stream = capture(cfg, &work.join("capture"), SESSION_SPAN, false)?;
    let start = Instant::now();
    let mut samples = Samples::default();
    let (mut plain, mut traced, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0.. {
        let started = Instant::now();
        samples.attempted += 2;
        let base = iteration(cfg, deploy_dir(work, remote, 2 * i).as_deref(), false)?;
        let it = iteration(cfg, deploy_dir(work, remote, 2 * i + 1).as_deref(), true)?;
        if i == 0 {
            survey_session(&stream, work, remote, rng, &mut samples)?;
        }
        if base.counts != it.counts {
            return Err(format!(
                "equivalence: traced loop counts {:?} differ from run_for counts {:?}",
                it.counts, base.counts
            ));
        }
        plain.push(base.survey_s);
        traced.push(it.survey_s);
        layers.push(
            it.layers
                .ok_or("traced iteration returned no layer figures")?,
        );
        if !another_fits(start, started, args.seconds) {
            break;
        }
    }
    let mut m = median_metrics(&layers);
    let (untraced_s, traced_s) = (median(&plain), median(&traced));
    println!(
        "equivalence: traced and run_for surveys agree on events, frames and observations ({} pairs)",
        plain.len()
    );
    let part = |name| m.get(name).unwrap_or(0.0);
    let layered = part("netsim.run_s") + part("driver.pump_s") + part("driver.flush_s");
    println!(
        "attribution: netsim.run_s {:.3} + driver.pump_s {:.3} + driver.flush_s {:.3} = {layered:.3} s \
         against untraced survey_s {untraced_s:.3} s: remainder {:.3} s ({:.1}%); \
         traced survey {traced_s:.3} s; driver.pump_s is {:.1}% of the layered time",
        part("netsim.run_s"),
        part("driver.pump_s"),
        part("driver.flush_s"),
        untraced_s - layered,
        100.0 * (untraced_s - layered) / untraced_s,
        100.0 * part("driver.pump_s") / layered,
    );
    let overhead = 100.0 * (traced_s - untraced_s) / untraced_s;
    host_metrics(&mut m, &samples, 0.0, overhead, args.seed)?;
    Ok((m, samples))
}

fn serve_e2e(
    cfg: &CampusConfig,
    work: &Path,
    args: &Args,
    rng: &mut SplitMix,
) -> Result<(Metrics, Samples), String> {
    let stream = capture(
        cfg,
        &work.join("capture"),
        capture_span(args.seconds),
        false,
    )?;
    let mut setups = Vec::new();
    let mut served: Option<serve::Served> = None;
    for i in 0..SERVE_SETUPS {
        let s = serve::set_up(&stream, &work.join(format!("setup-{i}")), false)?;
        setups.push(s.setup_s);
        if let Some(prev) = served.replace(s) {
            prev.shutdown();
        }
    }
    let served = served.ok_or("no set-up ran")?;
    let phase = serve::open_loop(&served, &stream, args.seconds, rng);
    served.shutdown();
    let phase = phase?;
    for i in SERVE_SETUPS..2 * SERVE_SETUPS {
        let s = serve::set_up(&stream, &work.join(format!("setup-{i}")), false)?;
        setups.push(s.setup_s);
        s.shutdown();
    }
    println!(
        "journal_serve: {} writes, {} reads, generator at most {:.3} ms late; closed-loop replay {:.3} s",
        phase.samples.store_ms.len(),
        phase.samples.query_ms.len(),
        phase.late_ms,
        phase.replay_s
    );
    Ok((
        end_to_end(&setups, phase.replay_s, &phase.samples)?,
        phase.samples,
    ))
}

fn serve_traced(
    cfg: &CampusConfig,
    work: &Path,
    args: &Args,
    rng: &mut SplitMix,
) -> Result<(Metrics, Samples), String> {
    let half = args.seconds / 2.0;
    let plain_stream = capture(cfg, &work.join("capture-0"), capture_span(half), false)?;
    let base = serve::set_up(&plain_stream, &work.join("setup-0"), false)?;
    let plain = serve::open_loop(&base, &plain_stream, half, rng);
    base.shutdown();
    let plain = plain?;

    let mut stream = capture(cfg, &work.join("capture-1"), capture_span(half), true)?;
    if stream.counts != plain_stream.counts || stream.shape() != plain_stream.shape() {
        return Err(format!(
            "equivalence: traced capture {:?} ({} frames) differs from untraced {:?} ({} frames)",
            stream.counts,
            stream.frames.len(),
            plain_stream.counts,
            plain_stream.frames.len()
        ));
    }
    let served = serve::set_up(&stream, &work.join("setup-1"), true)?;
    let figures = serve::open_loop(&served, &stream, half, rng).and_then(|phase| {
        let mut m = stream
            .layers
            .take()
            .ok_or("traced capture has no layer figures")?;
        journal_metrics(&mut m, served.durable.shared())?;
        server_metrics(
            &mut m,
            served.recorder.as_deref(),
            Some(&served.journal_dir),
        );
        Ok((m, phase))
    });
    served.shutdown();
    let (mut m, traced) = figures?;
    println!("equivalence: traced and untraced captures agree on events, frames, observations and every frame's shape");
    let all = |p: &serve::Phase| -> Vec<f64> {
        p.samples
            .store_ms
            .iter()
            .chain(&p.samples.query_ms)
            .copied()
            .collect()
    };
    let overhead = 100.0 * (median(&all(&traced)) - median(&all(&plain))) / median(&all(&plain));
    let mut samples = traced.samples;
    samples.attempted += plain.samples.attempted;
    host_metrics(&mut m, &samples, traced.late_ms, overhead, args.seed)?;
    Ok((m, samples))
}
