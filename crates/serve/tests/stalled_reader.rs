//! A reader that stops reading mid-stream must not make the server
//! buffer the rest of the stream. Streamed bodies are pulled in bounded
//! batches only while the socket drains, so the stalled stream parks at
//! O(batch) memory and other clients keep being served. This is the only
//! test in its binary, so the process's VmRSS measures it alone.

use ee_serve::http::read_response;
use ee_serve::{start, AppState, DataConfig, ServerConfig};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Most the process may grow while the stream is stalled.
const RSS_BOUND: u64 = 32 << 20;

/// 8,192 chunks of 16 KiB: a 128 MiB stream, 4× the bound. Small enough
/// that a server buffering all of it stays far below 512 MiB.
const CHUNKS: u64 = 8_192;
const CHUNK_BYTES: u64 = 16 << 10;
const _: () = assert!(CHUNKS * CHUNK_BYTES >= 4 * RSS_BOUND);

/// Resident set size of this process, from `/proc/self/status`.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmRSS line");
    kb * 1024
}

#[test]
fn stalled_reader_holds_bounded_memory_while_others_are_served() {
    let config = ServerConfig {
        workers: 2,
        event_shards: 2,
        deadline: Duration::from_secs(30),
        debug_routes: true,
        ..ServerConfig::default()
    };
    let server = start(config, Arc::new(AppState::build(DataConfig::tiny()))).expect("start");

    // Baseline before the request: a server that buffers the whole
    // stream does so before its head reaches the reader.
    let rss0 = rss_bytes();
    let mut stalled = TcpStream::connect(server.addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stalled,
        "GET /debug/stream?chunks={CHUNKS}&bytes={CHUNK_BYTES}&ms=0 HTTP/1.1\r\nhost: t\r\n\r\n"
    )
    .unwrap();
    stalled.flush().unwrap();
    // Read past the head so the stream is live, then stop reading.
    let mut first = [0u8; 4096];
    stalled.read_exact(&mut first).expect("stream started");
    assert!(
        first.starts_with(b"HTTP/1.1 200"),
        "{}",
        String::from_utf8_lossy(&first[..64])
    );

    // A keep-alive client on another connection is answered throughout
    // the stall.
    let mut s = TcpStream::connect(server.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    for i in 0..25 {
        write!(
            s,
            "GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: keep-alive\r\n\r\n"
        )
        .unwrap();
        s.flush().unwrap();
        let resp = read_response(&mut r).expect("healthz response");
        assert_eq!(resp.status, 200, "healthz #{i} during the stall");
        std::thread::sleep(Duration::from_millis(20));
    }

    let growth = rss_bytes().saturating_sub(rss0);
    assert!(
        growth < RSS_BOUND,
        "a stalled {}-byte stream grew RSS by {growth} bytes: the server is \
         buffering instead of applying backpressure",
        CHUNKS * CHUNK_BYTES
    );
    drop(stalled);
    server.shutdown();
}
