//! The two survey workloads: the paper's campus explored in process
//! (`survey_inproc`) and the same campus written through to a durable
//! Journal Server over loopback TCP (`deployment_remote`).
//!
//! An untraced iteration calls `DiscoveryDriver::run_for` once. A traced
//! iteration drives the same loop from here (`pump`, then `run_for(slice)`
//! and `pump` until the deadline, then `flush`) and times each call, with
//! recording telemetry attached to the driver and the server.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fremont_core::driver::{DiscoveryDriver, DriverConfig};
use fremont_core::Fremont;
use fremont_journal::client::RemoteJournal;
use fremont_journal::proto::ProtoError;
use fremont_journal::{
    InterfaceQuery, JournalAccess, JournalServer, SharedJournal, StoreBatchItem, SubnetQuery,
};
use fremont_net::Subnet;
use fremont_netsim::campus::{generate, CampusConfig, CampusTruth};
use fremont_netsim::engine::Sim;
use fremont_netsim::time::SimDuration;
use fremont_storage::{DurableJournal, WalConfig};
use fremont_telemetry::{Recorder, Telemetry};

use crate::report::{median, percentile, secs, Metrics, SplitMix};
use crate::serve::Stream;

/// Simulated span of one `survey_inproc` survey (the paper's evaluation run).
const INPROC_SPAN: SimDuration = SimDuration::from_hours(16);
/// Simulated span of one `deployment_remote` survey: the first hour,
/// by which both reference campuses are fully discovered.
const REMOTE_SPAN: SimDuration = SimDuration::from_hours(1);
/// Simulated span of the capture survey whose `StoreBatch` frames the
/// presentation session replays.
pub const SESSION_SPAN: SimDuration = SimDuration::from_hours(1);
/// Frames the presentation session replays: ten samples beyond each
/// p95, about 9 s at today's ~44 ms a round trip.
const SESSION_FRAMES: usize = 200;
/// Trace ring large enough that a traced 16 h survey drops nothing,
/// so the folded work profile counts every observation.
pub const TRACE_CAPACITY: usize = 1 << 21;

/// The presentation programs' query mix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Stats,
    CampusSubnets,
    Gateways,
    CsInterfaces,
}

pub const QUERY_MIX: [Query; 4] = [
    Query::Stats,
    Query::CampusSubnets,
    Query::Gateways,
    Query::CsInterfaces,
];

pub fn run_query(
    j: &impl JournalAccess,
    q: Query,
    network: Subnet,
    cs: Subnet,
) -> Result<(), ProtoError> {
    match q {
        Query::Stats => j.stats().map(drop),
        Query::CampusSubnets => j
            .subnets(&SubnetQuery {
                within: Some(network),
                ..Default::default()
            })
            .map(drop),
        Query::Gateways => j.gateways().map(drop),
        Query::CsInterfaces => j.interfaces(&InterfaceQuery::in_subnet(cs)).map(drop),
    }
}

/// `n` presentation queries: shuffled rounds of the mix.
pub fn query_order(n: usize, rng: &mut SplitMix) -> Vec<Query> {
    let mut queries = Vec::with_capacity(n + QUERY_MIX.len());
    while queries.len() < n {
        let mut round = QUERY_MIX;
        rng.shuffle(&mut round);
        queries.extend(round);
    }
    queries.truncate(n);
    queries
}

/// Observations in a `StoreBatch` frame.
pub fn observations(frame: &[StoreBatchItem]) -> u64 {
    frame.iter().map(|b| b.observations.len() as u64).sum()
}

/// Latency samples and operation counts gathered over a run.
#[derive(Default)]
pub struct Samples {
    pub store_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub stats_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// Latency percentiles over the run's samples.
    pub fn latency_metrics(&self, m: &mut Metrics) {
        m.put("store_p50_ms", percentile(&self.store_ms, 0.50), "ms");
        m.put("store_p95_ms", percentile(&self.store_ms, 0.95), "ms");
        m.put("query_p50_ms", percentile(&self.query_ms, 0.50), "ms");
        m.put("query_p95_ms", percentile(&self.query_ms, 0.95), "ms");
    }

    /// Adds one connection's query latencies, with its `Stats` calls
    /// also kept as client round trips.
    pub fn add_queries(&mut self, query_ms: Vec<f64>, queries: &[Query]) {
        self.stats_us.extend(
            query_ms
                .iter()
                .zip(queries)
                .filter(|(_, q)| **q == Query::Stats)
                .map(|(ms, _)| ms * 1e3),
        );
        self.query_ms.extend(query_ms);
    }
}

/// Per-call wall times of one layered survey.
#[derive(Default)]
pub struct LayerTimes {
    pub run_s: f64,
    pub pumps_s: Vec<f64>,
    pub flush_s: f64,
}

/// Drives the survey exactly as `DiscoveryDriver::run_for` does, up to
/// its final flush, timing every call (callers time the flush with
/// [`timed_flush`]: a captured WAL segment must be read before it).
pub fn survey_layered(
    driver: &mut DiscoveryDriver,
    span: SimDuration,
    interval: SimDuration,
) -> LayerTimes {
    let mut times = LayerTimes::default();
    let deadline = driver.sim.now() + span;
    let t = Instant::now();
    driver.pump();
    times.pumps_s.push(secs(t));
    while driver.sim.now() < deadline {
        let slice = interval.min(deadline - driver.sim.now());
        let t = Instant::now();
        driver.sim.run_for(slice);
        times.run_s += secs(t);
        let t = Instant::now();
        driver.pump();
        times.pumps_s.push(secs(t));
    }
    times
}

/// `DiscoveryDriver::flush`, timed.
pub fn timed_flush(driver: &DiscoveryDriver) -> Result<f64, String> {
    let t = Instant::now();
    driver
        .flush()
        .map_err(|e| format!("survey flush failed: {e}"))?;
    Ok(secs(t))
}

/// The driver's pump interval (the `DriverConfig::full` default every
/// deployment here uses).
pub fn pump_interval(network: Subnet) -> SimDuration {
    DriverConfig::full(network, None).pump_interval
}

/// Logical work counts the traced and untraced runs must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub frames: u64,
    pub broadcast_frames: u64,
    pub observations_applied: u64,
}

pub fn counts(sim: &Sim, observations_applied: u64) -> Counts {
    Counts {
        events: sim.stats.events_processed,
        frames: sim.segments.iter().map(|s| s.stats.frames_sent).sum(),
        broadcast_frames: sim.segments.iter().map(|s| s.stats.broadcasts).sum(),
        observations_applied,
    }
}

/// Ground-truth gate: every connected subnet and exactly the real CS
/// interfaces are in the journal.
pub fn check_discovery(
    j: &impl JournalAccess,
    truth: &CampusTruth,
    network: Subnet,
) -> Result<(), String> {
    let err = |e: ProtoError| format!("gate query failed: {e}");
    let found: BTreeSet<Subnet> = j
        .subnets(&SubnetQuery {
            within: Some(network),
            ..Default::default()
        })
        .map_err(err)?
        .into_iter()
        .map(|s| s.subnet)
        .collect();
    let connected: BTreeSet<Subnet> = truth.connected_subnets.iter().copied().collect();
    let hit = connected.intersection(&found).count();
    if hit != connected.len() {
        return Err(format!(
            "gate: {hit}/{} connected subnets discovered",
            connected.len()
        ));
    }
    let cs_records = j
        .interfaces(&InterfaceQuery::in_subnet(truth.cs_subnet))
        .map_err(err)?;
    let cs_found: BTreeSet<Ipv4Addr> = cs_records
        .iter()
        .filter_map(|r| r.ip.as_ref().map(|ip| *ip.get()))
        .collect();
    let missing = truth
        .cs_interfaces
        .iter()
        .filter(|(ip, _)| !cs_found.contains(ip))
        .count();
    if missing > 0 || cs_records.len() != truth.cs_interfaces.len() {
        return Err(format!(
            "gate: {} CS interface records for {} real interfaces ({missing} real addresses missing)",
            cs_records.len(),
            truth.cs_interfaces.len()
        ));
    }
    Ok(())
}

/// Times `n` calls made back to back, in milliseconds; the first
/// failure ends the loop.
fn closed_loop(
    n: usize,
    mut call: impl FnMut(usize) -> Result<(), ProtoError>,
) -> Result<Vec<f64>, String> {
    let mut ms = Vec::with_capacity(n);
    for i in 0..n {
        let t = Instant::now();
        call(i).map_err(|e| format!("session call failed: {e}"))?;
        ms.push(secs(t) * 1e3);
    }
    Ok(ms)
}

/// The presentation session: replays the first frames of the stream
/// (the driver's own `StoreBatch` frames, captured from a survey of the
/// same campus) once, in order, into an empty journal behind a Journal
/// Server, on one connection, while a second connection issues as many
/// presentation queries in a seeded order of the mix. Both are closed
/// loops. Gate: the journal applied exactly the observations sent.
fn session(writer: &RemoteJournal, reader: &RemoteJournal, s: &mut Session) -> Result<(), String> {
    let frames = &s.stream.frames[..SESSION_FRAMES.min(s.stream.frames.len())];
    let (network, cs) = (s.stream.network, s.stream.cs);
    let n = frames.len();
    let queries = query_order(n, s.rng);
    s.samples.attempted += 2 * n as u64;
    let (store_ms, query_ms) = std::thread::scope(|scope| {
        let w = scope.spawn(|| closed_loop(n, |i| writer.store_batch(&frames[i]).map(drop)));
        let r = closed_loop(n, |i| run_query(reader, queries[i], network, cs));
        (w.join().unwrap_or(Err("session writer panicked".into())), r)
    });
    let (store_ms, query_ms) = (store_ms?, query_ms?);
    let sent: u64 = frames.iter().map(|f| observations(f)).sum();
    let applied = stats(writer)?.observations_applied;
    if applied != sent {
        return Err(format!(
            "gate: session journal applied {applied} observations, {sent} were sent"
        ));
    }
    s.samples.store_ms.extend(store_ms);
    s.samples.add_queries(query_ms, &queries);
    Ok(())
}

/// Recorders of a traced iteration.
pub struct Recorders {
    pub driver: Arc<Recorder>,
    pub server: Option<Arc<Recorder>>,
}

/// What one iteration measured.
pub struct Iteration {
    pub setup_s: f64,
    pub survey_s: f64,
    pub counts: Counts,
    /// Per-layer figures (traced iterations only).
    pub layers: Option<Metrics>,
}

/// A campus deployment ready to survey: the driver, its ground truth,
/// and for `deployment_remote` the durable server it writes through to.
struct Deployment {
    driver: DiscoveryDriver,
    truth: CampusTruth,
    server: Option<(JournalServer<DurableJournal>, DurableJournal)>,
}

fn deploy(
    cfg: &CampusConfig,
    remote_dir: Option<&Path>,
    driver_tel: Telemetry,
    server_tel: Telemetry,
) -> Result<Deployment, String> {
    let Some(dir) = remote_dir else {
        let Fremont { driver, truth, .. } = Fremont::over_campus_with_telemetry(cfg, driver_tel);
        return Ok(Deployment {
            driver,
            truth,
            server: None,
        });
    };
    let io = |e: std::io::Error| format!("deployment set-up: {e}");
    let (durable, _) =
        DurableJournal::open_with_telemetry(WalConfig::new(dir), server_tel.clone()).map_err(io)?;
    let server =
        JournalServer::start_with_telemetry(durable.clone(), "127.0.0.1:0", None, server_tel)
            .map_err(io)?;
    let (sim, truth) = generate(cfg);
    let home = sim
        .node_by_name(&truth.explorer_host)
        .ok_or("campus has no explorer host")?;
    let mut dcfg = DriverConfig::full(cfg.network, Some(truth.dns_server));
    dcfg.telemetry = driver_tel;
    dcfg.remote_journal = Some(server.addr().to_string());
    let driver = DiscoveryDriver::open(sim, home, dcfg).map_err(io)?;
    Ok(Deployment {
        driver,
        truth,
        server: Some((server, durable)),
    })
}

/// Times one set-up alone (campus, journal, server, driver), then tears
/// it down.
pub fn setup_time(cfg: &CampusConfig, remote_dir: Option<&Path>) -> Result<f64, String> {
    let t = Instant::now();
    let dep = deploy(cfg, remote_dir, Telemetry::noop(), Telemetry::noop())?;
    let setup_s = secs(t);
    teardown(dep, remote_dir);
    Ok(setup_s)
}

/// Stops the deployment and removes its WAL directory.
fn teardown(dep: Deployment, remote_dir: Option<&Path>) {
    let Deployment { driver, server, .. } = dep;
    drop(driver);
    if let Some((server, _)) = server {
        server.shutdown();
    }
    if let Some(dir) = remote_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A run's presentation session: the stream whose frames it replays,
/// and where its samples go.
pub struct Session<'a> {
    pub stream: &'a Stream,
    pub rng: &'a mut SplitMix,
    pub samples: &'a mut Samples,
}

/// Runs the session against a fresh Journal Server: over the in-process
/// journal for `survey_inproc`, over a WAL-backed one in `wal_dir` for
/// `deployment_remote`.
pub fn run_session(mut s: Session, wal_dir: Option<&Path>) -> Result<(), String> {
    let io = |e: std::io::Error| format!("session set-up: {e}");
    match wal_dir {
        None => serve_session(SharedJournal::new(), &mut s),
        Some(dir) => serve_session(
            DurableJournal::open(WalConfig::new(dir)).map_err(io)?.0,
            &mut s,
        ),
    }
}

fn serve_session<J: JournalAccess + Clone + Send + Sync + 'static>(
    journal: J,
    s: &mut Session,
) -> Result<(), String> {
    let server = JournalServer::start(journal, "127.0.0.1:0", None)
        .map_err(|e| format!("session set-up: {e}"))?;
    let addr = server.addr().to_string();
    let out = RemoteJournal::connect(&addr)
        .and_then(|w| Ok((w, RemoteJournal::connect(&addr)?)))
        .map_err(|e| format!("session connect failed: {e}"))
        .and_then(|(w, r)| session(&w, &r, s));
    server.shutdown();
    out
}

/// One survey iteration: set up, survey, check against ground truth.
/// `remote_dir` selects `deployment_remote` and holds its WAL.
pub fn iteration(
    cfg: &CampusConfig,
    remote_dir: Option<&Path>,
    traced: bool,
) -> Result<Iteration, String> {
    let span = if remote_dir.is_some() {
        REMOTE_SPAN
    } else {
        INPROC_SPAN
    };
    let t = Instant::now();
    let (driver_tel, server_tel, recorders) = if traced {
        let (dt, dr) = Telemetry::recording_with_capacity(TRACE_CAPACITY);
        let (st, sr) = Telemetry::recording();
        (
            dt,
            st,
            Some(Recorders {
                driver: dr,
                server: remote_dir.map(|_| sr),
            }),
        )
    } else {
        (Telemetry::noop(), Telemetry::noop(), None)
    };
    let mut dep = deploy(cfg, remote_dir, driver_tel, server_tel)?;
    let setup_s = secs(t);

    let t = Instant::now();
    let times = if traced {
        let mut times = survey_layered(&mut dep.driver, span, pump_interval(cfg.network));
        times.flush_s = timed_flush(&dep.driver)?;
        Some(times)
    } else {
        dep.driver
            .run_for(span)
            .map_err(|e| format!("survey flush failed: {e}"))?;
        None
    };
    let survey_s = secs(t);

    let replica = dep.driver.journal.clone();
    check_discovery(&replica, &dep.truth, cfg.network)?;
    let applied = stats(&replica)?.observations_applied;
    let counts = counts(&dep.driver.sim, applied);
    if let Some((server, _)) = &dep.server {
        let client = RemoteJournal::connect(&server.addr().to_string())
            .map_err(|e| format!("gate connect failed: {e}"))?;
        check_replica(&client, &replica, cfg.network)?;
    }
    let layers = match (&times, &recorders) {
        (Some(times), Some(rec)) => {
            let journal = dep.server.as_ref().map_or(&replica, |(_, d)| d.shared());
            Some(layer_metrics(&dep.driver, journal, times, rec, remote_dir)?)
        }
        _ => None,
    };
    teardown(dep, remote_dir);
    Ok(Iteration {
        setup_s,
        survey_s,
        counts,
        layers,
    })
}

pub fn stats(j: &impl JournalAccess) -> Result<fremont_journal::JournalStats, String> {
    j.stats().map_err(|e| format!("stats failed: {e}"))
}

/// `deployment_remote` gate: the server's `Stats` and `GetSubnets`
/// answers match the driver's local replica.
fn check_replica(
    server: &RemoteJournal,
    replica: &SharedJournal,
    network: Subnet,
) -> Result<(), String> {
    if stats(server)? != stats(replica)? {
        return Err("gate: server Stats differ from the driver's replica".into());
    }
    let q = SubnetQuery {
        within: Some(network),
        ..Default::default()
    };
    let remote = server
        .subnets(&q)
        .map_err(|e| format!("GetSubnets failed: {e}"))?;
    let local = replica
        .subnets(&q)
        .map_err(|e| format!("subnets failed: {e}"))?;
    if remote != local {
        return Err("gate: server GetSubnets differs from the driver's replica".into());
    }
    Ok(())
}

/// Sum of a folded-profile cell (`unit;frame;...;frame amount`).
pub fn folded(profile: &str, stack: &str) -> u64 {
    profile
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(s, _)| *s == stack)
        .filter_map(|(_, n)| n.parse::<u64>().ok())
        .sum()
}

/// RPC kinds the server counts, as reported per layer.
pub const RPC_KINDS: [&str; 6] = [
    "store_batch",
    "stats",
    "get_subnets",
    "get_gateways",
    "get_interfaces",
    "flush",
];

/// Server-side per-layer figures from its recorder and WAL directory
/// (after [`journal_metrics`], whose batch count they divide by).
pub fn server_metrics(m: &mut Metrics, rec: Option<&Recorder>, wal_dir: Option<&Path>) {
    let counter = |name: &str, label: &str| rec.map_or(0, |r| r.counter(name, label)) as f64;
    for kind in RPC_KINDS {
        let label = format!("rpc=\"{kind}\"");
        m.put(
            format!("server.rpcs.{kind}"),
            counter("fremont_journal_rpc_total", &label),
            "count",
        );
    }
    let errors: u64 = rec.map_or(0, |r| {
        r.counters_with_prefix("fremont_journal_rpc_errors_total")
            .iter()
            .map(|(_, _, v)| v)
            .sum()
    });
    m.put("server.rpc_errors", errors as f64, "count");
    let fsyncs = counter("fremont_wal_fsyncs_total", "");
    // Every write batch the journal applied, pre-population included.
    let batches = m.get("journal.batches").unwrap_or(0.0);
    m.put(
        "wal.appends",
        counter("fremont_wal_appends_total", ""),
        "count",
    );
    m.put("wal.fsyncs", fsyncs, "count");
    m.put(
        "wal.fsyncs_per_batch",
        if batches > 0.0 { fsyncs / batches } else { 0.0 },
        "ratio",
    );
    m.put("wal.bytes", wal_dir.map_or(0, dir_bytes) as f64, "bytes");
}

/// Bytes of the regular files in a directory (0 if it is unreadable).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|md| md.is_file())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Simulator, explorer and driver figures of a traced survey.
pub fn sim_driver_metrics(
    m: &mut Metrics,
    driver: &DiscoveryDriver,
    times: &LayerTimes,
    rec: &Recorder,
) {
    let c = counts(&driver.sim, 0);
    m.put("netsim.run_s", times.run_s, "s");
    m.put("netsim.events", c.events as f64, "count");
    m.put("netsim.frames", c.frames as f64, "count");
    m.put(
        "netsim.broadcast_frames",
        c.broadcast_frames as f64,
        "count",
    );
    m.put(
        "netsim.ns_per_event",
        times.run_s * 1e9 / c.events.max(1) as f64,
        "ns",
    );
    m.put(
        "netsim.events_per_frame",
        c.events as f64 / c.frames.max(1) as f64,
        "ratio",
    );
    m.put(
        "netsim.queue_depth_hwm",
        driver.sim.stats.queue_depth_hwm as f64,
        "count",
    );
    let load = driver.load_report();
    let sum = |f: fn(&fremont_core::load::ModuleLoad) -> u64| -> f64 {
        load.rows.iter().map(|r| f(&r.load)).sum::<u64>() as f64
    };
    m.put("explorers.packets_sent", sum(|l| l.packets_sent), "count");
    m.put(
        "explorers.packets_received",
        sum(|l| l.packets_received),
        "count",
    );
    m.put("explorers.frames_tapped", sum(|l| l.frames_tapped), "count");
    let pumps_us: Vec<f64> = times.pumps_s.iter().map(|s| s * 1e6).collect();
    let profile = rec.folded_profile();
    m.put("driver.pump_s", times.pumps_s.iter().sum(), "s");
    m.put("driver.pumps", times.pumps_s.len() as f64, "count");
    m.put("driver.pump_p50_us", median(&pumps_us), "us");
    m.put("driver.pump_p99_us", percentile(&pumps_us, 0.99), "us");
    m.put(
        "driver.obs_drained",
        folded(&profile, "observations;driver.pump;driver.drain") as f64,
        "count",
    );
    m.put(
        "driver.obs_correlated",
        folded(&profile, "observations;driver.pump;driver.correlate") as f64,
        "count",
    );
    m.put("driver.flush_s", times.flush_s, "s");
}

/// Journal store counters.
pub fn journal_metrics(m: &mut Metrics, j: &SharedJournal) -> Result<(), String> {
    let s = stats(j)?;
    let sh = j
        .sharding_metrics()
        .ok_or("journal exposes no sharding metrics")?;
    m.put(
        "journal.observations_applied",
        s.observations_applied as f64,
        "count",
    );
    m.put("journal.batches", sh.batches as f64, "count");
    m.put("journal.fanout_queries", sh.fanout_queries as f64, "count");
    m.put(
        "journal.read_locks",
        sh.shards.iter().map(|x| x.read_locks).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "journal.write_locks",
        sh.shards.iter().map(|x| x.write_locks).sum::<u64>() as f64,
        "count",
    );
    Ok(())
}

fn layer_metrics(
    driver: &DiscoveryDriver,
    journal: &SharedJournal,
    times: &LayerTimes,
    rec: &Recorders,
    wal_dir: Option<&Path>,
) -> Result<Metrics, String> {
    if rec.driver.trace_dropped() > 0 {
        return Err("trace ring overflowed: the work profile would undercount".into());
    }
    let mut m = Metrics::default();
    sim_driver_metrics(&mut m, driver, times, &rec.driver);
    journal_metrics(&mut m, journal)?;
    server_metrics(&mut m, rec.server.as_deref(), wal_dir);
    Ok(m)
}
