//! Event-loop edge cases: slow readers, severed connections, and the
//! exactly-once accounting around both.
//!
//! The mid-frame-disconnect and oversized-header cases live in
//! `server_tcp.rs` (they predate the event loop and must keep passing
//! under it); this file covers the conditions only a buffered event
//! loop can reach — a reply backlog crossing the high-water mark, and
//! connections parked in the event loop when `shutdown()` fires.

use std::io::Write;
use std::net::{Ipv4Addr, TcpStream};

use fremont_journal::observation::{Observation, Source};
use fremont_journal::proto::{
    read_frame, write_frame, Request, RequestEnvelope, Response, TraceContext,
};
use fremont_journal::query::InterfaceQuery;
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal, WRITE_HIGH_WATER};
use fremont_journal::time::JTime;

/// Polls a telemetry counter until it reaches `want`.
fn wait_for_counter(rec: &fremont_telemetry::Recorder, name: &str, want: u64) -> u64 {
    for _ in 0..400 {
        let got = rec.counter(name, "");
        if got >= want {
            return got;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    rec.counter(name, "")
}

fn envelope(req: Request) -> RequestEnvelope {
    RequestEnvelope {
        ctx: TraceContext::NONE,
        req,
    }
}

/// A client that queues far more reply volume than it reads pushes the
/// connection over the write high-water mark: the server parks its
/// reads, counts exactly one backpressure episode, and still delivers
/// every reply in order once the client drains.
#[test]
fn slow_reader_backpressure_counts_one_episode_and_loses_nothing() {
    let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
    let shared = SharedJournal::new();
    // Enough records that one full query reply is a few hundred KiB.
    let observations: Vec<Observation> = (0..2000u32)
        .map(|i| {
            Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(
                    10,
                    (i / 256) as u8 + 1,
                    (i / 16 % 16) as u8,
                    (i % 16) as u8 + 1,
                ),
            )
        })
        .collect();
    shared.store(JTime(1), &observations).unwrap();
    // Size one reply exactly, then queue six high-water marks' worth —
    // far beyond anything the kernel socket buffers can absorb.
    let mut one_reply = Vec::new();
    write_frame(
        &mut one_reply,
        &Response::Interfaces(shared.interfaces(&InterfaceQuery::all()).unwrap()),
    )
    .unwrap();
    let rounds = 6 * WRITE_HIGH_WATER / one_reply.len() + 1;
    let server =
        JournalServer::start_with_telemetry(shared, "127.0.0.1:0", None, telemetry).unwrap();

    // Raw socket so the test controls exactly when replies are read.
    // The whole burst goes out in one write so it is buffered on the
    // server before the first read: a burst arriving in pieces could
    // legitimately drain between pieces and open a second episode.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut burst = Vec::new();
    for _ in 0..rounds {
        write_frame(
            &mut burst,
            &envelope(Request::GetInterfaces(InterfaceQuery::all())),
        )
        .unwrap();
    }
    writer.write_all(&burst).unwrap();

    let episodes = wait_for_counter(&rec, "fremont_journal_eventloop_backpressure_total", 1);
    assert_eq!(episodes, 1, "one blocked reader is one episode");

    // Drain: every reply arrives, in order, none truncated.
    for i in 0..rounds {
        match read_frame::<_, Response>(&mut reader).unwrap() {
            Some(Response::Interfaces(v)) => {
                assert_eq!(v.len(), 2000, "reply {i} must carry the full journal")
            }
            other => panic!("reply {i}: expected Interfaces, got {other:?}"),
        }
    }
    // The episode ended when the backlog drained; it was counted once.
    assert_eq!(
        rec.counter("fremont_journal_eventloop_backpressure_total", ""),
        1
    );
    assert_eq!(rec.counter("fremont_journal_rpc_aborted_total", ""), 0);
    server.shutdown();
}

/// `shutdown()` severs connections parked in the event loop: each one
/// counts once into the severed counter, and the close is synchronous —
/// by the time `shutdown()` returns, every socket reads EOF.
#[test]
fn shutdown_severs_parked_connections_exactly_once() {
    let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
    let server =
        JournalServer::start_with_telemetry(SharedJournal::new(), "127.0.0.1:0", None, telemetry)
            .unwrap();

    const PARKED: usize = 5;
    let mut conns = Vec::new();
    for _ in 0..PARKED {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        // One served round trip proves the worker owns the connection
        // before it parks.
        write_frame(&mut writer, &envelope(Request::Stats)).unwrap();
        match read_frame::<_, Response>(&mut reader).unwrap() {
            Some(Response::Stats(_)) => {}
            other => panic!("expected Stats, got {other:?}"),
        }
        conns.push(reader);
    }

    server.shutdown();
    assert_eq!(
        rec.counter("fremont_journal_eventloop_severed_total", ""),
        PARKED as u64,
        "each parked connection is severed exactly once"
    );
    // Severing already happened — a blocking read must observe EOF
    // immediately, not hang waiting for a reply that cannot come.
    for mut reader in conns {
        match read_frame::<_, Response>(&mut reader) {
            Ok(None) | Err(_) => {}
            Ok(Some(r)) => panic!("severed connection produced a reply: {r:?}"),
        }
    }
    // Parked connections were idle, not mid-request: severing them is
    // not an RPC abort.
    assert_eq!(rec.counter("fremont_journal_rpc_aborted_total", ""), 0);
}
