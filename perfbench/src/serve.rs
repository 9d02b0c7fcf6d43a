//! The captured campus observation stream, and the `journal_serve`
//! workload: a WAL-backed Journal Server, pre-populated from the stream,
//! serving a writer and a presentation reader, each on its own
//! connection, open loop at fixed rates, then one closed-loop replay.
//! No simulator runs while it is measured.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fremont_core::driver::{DiscoveryDriver, DriverConfig};
use fremont_journal::client::RemoteJournal;
use fremont_journal::proto::ProtoError;
use fremont_journal::{JTime, JournalAccess, JournalServer, StoreBatchItem};
use fremont_net::Subnet;
use fremont_netsim::campus::{generate, CampusConfig};
use fremont_netsim::time::SimDuration;
use fremont_storage::wal::{list_segments, scan_segment, TailStatus};
use fremont_storage::{DurableJournal, PersistencePolicy, SyncPolicy, WalConfig, WalRecord};
use fremont_telemetry::{Recorder, Telemetry};

use crate::report::{secs, Metrics, SplitMix};
use crate::survey::{
    check_discovery, counts, observations, pump_interval, query_order, run_query,
    sim_driver_metrics, stats, survey_layered, timed_flush, Counts, Samples, TRACE_CAPACITY,
};

/// Set-up pre-populates the frames of the first simulated hour, the
/// discovery burst.
const POPULATE_UNTIL: JTime = JTime(3600);
/// Fewest frames the survey logs in a simulated hour after the first.
const FRAMES_PER_LATER_HOUR: usize = 50;
/// Frames of the closed-loop replay that ends the phase; its wall time
/// is `journal_serve`'s `survey_s`.
const REPLAY_FRAMES: usize = 60;
/// Writer rate, `StoreBatch` frames per second.
const WRITE_RATE: f64 = 12.0;
/// Reader rate, presentation queries per second.
const READ_RATE: f64 = 12.0;

/// A captured campus observation stream, rebuilt into `StoreBatch` frames.
pub struct Stream {
    pub frames: Vec<Vec<StoreBatchItem>>,
    pub counts: Counts,
    pub network: Subnet,
    pub cs: Subnet,
    /// Simulator/driver figures of a traced capture.
    pub layers: Option<Metrics>,
}

impl Stream {
    /// Each frame's items as `(timestamp, observations)`. Captures of one
    /// campus agree on it, but not always on the order of observations
    /// within an item: RipWatch's final report lists its RIP sources in
    /// `HashMap` order.
    pub fn shape(&self) -> Vec<Vec<(JTime, usize)>> {
        self.frames
            .iter()
            .map(|f| f.iter().map(|b| (b.now, b.observations.len())).collect())
            .collect()
    }
}

/// Frames the writer sends in a phase of `seconds`: open loop, then the
/// closed-loop replay.
fn writes(seconds: f64) -> usize {
    (WRITE_RATE * seconds).ceil() as usize
}

/// Simulated span of the survey whose WAL becomes `journal_serve`'s
/// stream: the pre-populated hour, then enough hours that no frame of a
/// phase of `seconds` is sent twice.
pub fn capture_span(seconds: f64) -> SimDuration {
    let hours = (writes(seconds) + REPLAY_FRAMES).div_ceil(FRAMES_PER_LATER_HOUR);
    SimDuration::from_hours(1 + hours as u64)
}

/// Runs an in-process survey with `PersistencePolicy::Wal` (one
/// segment, no fsync) and reads its log back as the stream.
pub fn capture(
    cfg: &CampusConfig,
    dir: &Path,
    span: SimDuration,
    traced: bool,
) -> Result<Stream, String> {
    let io = |e: std::io::Error| format!("capture: {e}");
    let (sim, truth) = generate(cfg);
    let home = sim
        .node_by_name(&truth.explorer_host)
        .ok_or("campus has no explorer host")?;
    let mut dcfg = DriverConfig::full(cfg.network, Some(truth.dns_server));
    let recorder = traced.then(|| {
        let (tel, rec) = Telemetry::recording_with_capacity(TRACE_CAPACITY);
        dcfg.telemetry = tel;
        rec
    });
    dcfg.persistence = PersistencePolicy::Wal(WalConfig {
        dir: dir.to_path_buf(),
        sync: SyncPolicy::Never,
        max_segment_bytes: u64::MAX,
    });
    let mut driver = DiscoveryDriver::open(sim, home, dcfg).map_err(io)?;
    let interval = pump_interval(cfg.network);
    let mut times = survey_layered(&mut driver, span, interval);
    check_discovery(&driver.journal, &truth, cfg.network)?;
    let applied = stats(&driver.journal)?.observations_applied;
    let counts = counts(&driver.sim, applied);

    let segments = list_segments(dir).map_err(io)?;
    let [segment] = segments.as_slice() else {
        return Err(format!(
            "capture: expected one WAL segment, found {}",
            segments.len()
        ));
    };
    let scan = scan_segment(&segment.path).map_err(io)?;
    if scan.tail != TailStatus::Clean || scan.records.len() as u64 != applied {
        return Err(format!(
            "capture: WAL holds {} of {applied} observations (tail {:?})",
            scan.records.len(),
            scan.tail
        ));
    }
    // Finish the survey as `run_for` would, now that the log is read.
    times.flush_s = timed_flush(&driver)?;
    let layers = recorder.map(|rec| {
        let mut m = Metrics::default();
        sim_driver_metrics(&mut m, &driver, &times, &rec);
        m
    });
    Ok(Stream {
        frames: frames(scan.records, interval.as_secs()),
        counts,
        network: cfg.network,
        cs: truth.cs_subnet,
        layers,
    })
}

/// Rebuilds the driver's `StoreBatch` frames from logged records:
/// consecutive records of one module within one pump interval form a
/// frame, with one item per journal timestamp.
fn frames(records: Vec<WalRecord>, interval_s: u64) -> Vec<Vec<StoreBatchItem>> {
    let mut out: Vec<Vec<StoreBatchItem>> = Vec::new();
    let mut key = None;
    for r in records {
        let k = (r.at.0.div_ceil(interval_s), r.obs.source);
        if key != Some(k) {
            key = Some(k);
            out.push(Vec::new());
        }
        let frame = out.last_mut().expect("a frame was just pushed");
        match frame.last_mut() {
            Some(item) if item.now == r.at => item.observations.push(r.obs),
            _ => frame.push(StoreBatchItem {
                now: r.at,
                observations: vec![r.obs],
            }),
        }
    }
    out
}

/// A populated server ready to measure.
pub struct Served {
    pub setup_s: f64,
    server: JournalServer<DurableJournal>,
    pub durable: DurableJournal,
    pub recorder: Option<Arc<Recorder>>,
    /// Stream frames stored by set-up; the writer sends the ones after.
    populated_frames: usize,
    pub populated: u64,
    pub journal_dir: PathBuf,
}

impl Served {
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Set-up: open a durable journal (fsync every append), store the
/// stream's first simulated hour, start the server.
pub fn set_up(stream: &Stream, dir: &Path, traced: bool) -> Result<Served, String> {
    let io = |e: std::io::Error| format!("serve set-up: {e}");
    let t = Instant::now();
    let (tel, recorder) = if traced {
        let (tel, rec) = Telemetry::recording();
        (tel, Some(rec))
    } else {
        (Telemetry::noop(), None)
    };
    let journal_dir = dir.join("journal");
    let (durable, _) =
        DurableJournal::open_with_telemetry(WalConfig::new(&journal_dir), tel.clone())
            .map_err(io)?;
    let populated_frames = stream
        .frames
        .iter()
        .take_while(|f| f[0].now <= POPULATE_UNTIL)
        .count();
    let mut populated = 0;
    for frame in &stream.frames[..populated_frames] {
        durable
            .store_batch(frame)
            .map_err(|e| format!("pre-population failed: {e}"))?;
        populated += observations(frame);
    }
    let server = JournalServer::start_with_telemetry(durable.clone(), "127.0.0.1:0", None, tel)
        .map_err(io)?;
    Ok(Served {
        setup_s: secs(t),
        server,
        durable,
        recorder,
        populated_frames,
        populated,
        journal_dir,
    })
}

/// What one open-loop phase measured.
pub struct Phase {
    pub samples: Samples,
    /// Wall time of the closed-loop replay after the open-loop writes.
    pub replay_s: f64,
    /// Latest any request was issued after its due time.
    pub late_ms: f64,
}

/// One connection's open-loop schedule: request `i` is due at
/// `start + phase + i / rate`.
struct Schedule {
    start: Instant,
    phase_s: f64,
    rate: f64,
}

/// What one connection saw: latencies from each due time, and health.
struct Conn {
    latency_ms: Vec<f64>,
    late_ms: f64,
    failed: u64,
}

/// Issues `n` requests on the schedule, each as soon as it is due (or
/// when the previous reply arrives, if that is later), and times each
/// from its due time.
fn drive(
    sched: &Schedule,
    n: usize,
    mut call: impl FnMut(usize) -> Result<(), ProtoError>,
) -> Conn {
    let mut conn = Conn {
        latency_ms: Vec::with_capacity(n),
        late_ms: 0.0,
        failed: 0,
    };
    for i in 0..n {
        let due = sched.start + Duration::from_secs_f64(sched.phase_s + i as f64 / sched.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        conn.late_ms = conn.late_ms.max(secs(due) * 1e3);
        if call(i).is_err() {
            conn.failed += 1;
        }
        conn.latency_ms.push(secs(due) * 1e3);
    }
    conn
}

/// Runs the writer and the reader for `seconds`, each frame sent once;
/// then times the writer replaying the next [`REPLAY_FRAMES`] frames
/// back to back. Checks that every RPC succeeded and that the journal
/// applied exactly what was stored.
pub fn open_loop(
    served: &Served,
    stream: &Stream,
    seconds: f64,
    rng: &mut SplitMix,
) -> Result<Phase, String> {
    let writes = writes(seconds);
    let reads = (READ_RATE * seconds).ceil() as usize;
    let from = served.populated_frames;
    let Some(frames) = stream.frames.get(from..from + writes + REPLAY_FRAMES) else {
        return Err(format!(
            "the captured stream has {} frames after the {from} pre-populated ones: \
             too few for {writes} open-loop and {REPLAY_FRAMES} replayed writes; \
             use fewer --seconds",
            stream.frames.len() - from
        ));
    };
    let (open, replay) = frames.split_at(writes);
    let addr = served.server.addr().to_string();
    let connect = || RemoteJournal::connect(&addr).map_err(|e| format!("connect failed: {e}"));
    let (writer, reader) = (connect()?, connect()?);
    let queries = query_order(reads, rng);
    let start = Instant::now() + Duration::from_millis(20);
    let w_sched = Schedule {
        start,
        phase_s: 0.0,
        rate: WRITE_RATE,
    };
    let r_sched = Schedule {
        start,
        phase_s: rng.unit() / READ_RATE,
        rate: READ_RATE,
    };
    let (network, cs) = (stream.network, stream.cs);

    let (w, r) = std::thread::scope(|s| {
        let w = s.spawn(|| drive(&w_sched, writes, |i| writer.store_batch(&open[i]).map(drop)));
        let r = s.spawn(|| {
            drive(&r_sched, reads, |i| {
                run_query(&reader, queries[i], network, cs)
            })
        });
        (w.join(), r.join())
    });
    let w = w.map_err(|_| "writer thread panicked")?;
    let r = r.map_err(|_| "reader thread panicked")?;
    let t = Instant::now();
    let replay_failed = replay
        .iter()
        .map(|frame| writer.store_batch(frame))
        .filter(Result::is_err)
        .count() as u64;
    let replay_s = secs(t);

    let mut samples = Samples {
        attempted: (writes + reads + replay.len()) as u64,
        failed: w.failed + r.failed + replay_failed,
        store_ms: w.latency_ms,
        ..Samples::default()
    };
    samples.add_queries(r.latency_ms, &queries);
    if samples.failed > 0 {
        return Err(format!(
            "gate: {} of {} RPCs failed",
            samples.failed, samples.attempted
        ));
    }
    let sent: u64 = frames.iter().map(|f| observations(f)).sum();
    let applied = stats(&writer)?.observations_applied;
    if applied != served.populated + sent {
        return Err(format!(
            "gate: server applied {applied} observations, expected {} populated + {sent} sent",
            served.populated
        ));
    }
    Ok(Phase {
        samples,
        replay_s,
        late_ms: w.late_ms.max(r.late_ms),
    })
}
