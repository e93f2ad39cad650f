//! End-to-end tests of the live service: concurrent ingest over real
//! TCP sockets, query equivalence against the offline pipeline,
//! backpressure, long-poll tail, and graceful shutdown durability.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use st_serve::{Daemon, ServeConfig};

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("st-serve-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A synthetic strace stream in the Fig. 2a grammar: `read`s over a
/// couple of per-stream directories plus one `write`, with
/// stream-specific paths so the merged DFG is non-trivial.
fn stream_text(i: usize, lines: usize) -> String {
    let pid = 9000 + i;
    let mut out = String::new();
    for j in 0..lines {
        let ts = format!("09:00:{:02}.{:06}", 10 + j % 49, (j * 137) % 1_000_000);
        if j % 5 == 4 {
            out.push_str(&format!(
                "{pid}  {ts} write(1</data/out/log{i}>, \"...\", 50) = 50 <0.000111>\n"
            ));
        } else {
            out.push_str(&format!(
                "{pid}  {ts} read(3</data/s{}/f{}>, \"...\", 832) = 832 <0.000203>\n",
                i % 3,
                j % 4,
            ));
        }
    }
    out
}

/// One-shot HTTP exchange: writes `raw`, reads to EOF, splits the
/// response into (status, headers, body).
fn http(addr: SocketAddr, raw: &[u8]) -> (u16, String, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(raw).unwrap();
    s.flush().unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head/body split");
    let head = String::from_utf8_lossy(&resp[..split]).into_owned();
    let body = resp[split + 4..].to_vec();
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, Vec<u8>) {
    http(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
    )
}

/// Streams `text` as a chunked POST in small multi-line chunks, the
/// way a producer tailing strace output would.
fn ingest_chunked(addr: SocketAddr, name: &str, text: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "POST /ingest/{name} HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
    )
    .unwrap();
    for chunk in text.as_bytes().chunks(200) {
        write!(s, "{:x}\r\n", chunk.len()).unwrap();
        s.write_all(chunk).unwrap();
        s.write_all(b"\r\n").unwrap();
        s.flush().unwrap();
    }
    s.write_all(b"0\r\n\r\n").unwrap();
    s.flush().unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let split = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let status: u16 = String::from_utf8_lossy(&resp[..split])
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap();
    (status, resp[split + 4..].to_vec())
}

/// Minimal target encoding for filter expressions.
fn encode(s: &str) -> String {
    s.replace('%', "%25")
        .replace(' ', "%20")
        .replace('"', "%22")
}

/// The offline `stinspect query --emit events` body over `input`,
/// built with the exact CLI wiring (topdirs:2 map, pushdown, analysis
/// columns) and the shared renderers.
fn offline_query_body(input: &str, filter: Option<&str>, emit: &str) -> String {
    let mut inspector = st_source::Inspector::open(input)
        .unwrap()
        .map_boxed(Box::new(st_core::CallTopDirs::new(2)))
        .columns(
            st_store::ColumnSet::ALL
                .without(st_store::ColumnSet::REQUESTED | st_store::ColumnSet::OFFSET),
        );
    if let Some(expr) = filter {
        inspector = inspector.filter(st_query::parse_expr(expr).unwrap());
    }
    let session = inspector.session().unwrap();
    match emit {
        "events" => {
            let snap = session.log().snapshot();
            st_core::render::render_events_tsv(&session.view(), &snap)
        }
        "stats" => st_core::render::render_stats_text(&session.mapped(), &session.view()),
        "dfg" => st_core::render::render_dfg_dot(&session.mapped(), &session.view()),
        other => panic!("bad emit {other}"),
    }
}

#[test]
fn concurrent_ingest_matches_offline_pipeline() {
    let dir = tempdir("e2e");
    let store = dir.join("live.stlog2");
    let mut config = ServeConfig::new(&store);
    config.block_events = 16; // several blocks per case, so pushdown has granules
    let handle = Daemon::start(config).unwrap();
    let addr = handle.addr();

    // 8 producers ingest concurrently over their own connections.
    let n = 8;
    let texts: Vec<String> = (0..n).map(|i| stream_text(i, 60)).collect();
    let mut clients = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let text = text.clone();
        clients.push(std::thread::spawn(move || {
            let name = format!("c{i}_host{}_{}.st", i % 2, 9000 + i);
            ingest_chunked(addr, &name, &text)
        }));
    }
    for c in clients {
        let (status, body) = c.join().unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    }

    // The sealed store's event set is interleaving-independent: the
    // TSV rows (every column resolved) equal the union of offline
    // parses of the same inputs, regardless of arrival order.
    let (status, _, body) = get(addr, "/query?emit=events");
    assert_eq!(status, 200);
    let served = String::from_utf8(body).unwrap();
    let mut served_rows: Vec<&str> = served.lines().skip(1).collect();
    served_rows.sort_unstable();

    let interner = st_model::Interner::new();
    let mut offline_rows: Vec<String> = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let name = format!("c{i}_host{}_{}.st", i % 2, 9000 + i);
        let meta = st_model::CaseMeta::parse_trace_file_name(&name, &interner).unwrap();
        let parsed = st_strace::parse_str(text, &interner);
        assert!(parsed.warnings.is_empty());
        let snap = interner.snapshot();
        for e in &parsed.events {
            let call = match e.call {
                st_model::Syscall::Other(sym) => snap.resolve(sym).to_string(),
                named => named.static_name().unwrap_or("?").to_string(),
            };
            offline_rows.push(format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                snap.resolve(meta.cid),
                snap.resolve(meta.host),
                meta.rid,
                e.pid,
                call,
                e.start.format_time_of_day(),
                e.dur.format_duration(),
                snap.resolve(e.path),
                e.size.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                e.ok,
            ));
        }
    }
    offline_rows.sort_unstable();
    assert_eq!(served_rows.len(), offline_rows.len());
    assert_eq!(
        served_rows,
        offline_rows.iter().map(String::as_str).collect::<Vec<_>>()
    );

    // HTTP bodies are byte-identical to the offline CLI pipeline on
    // the same container + filter, for every emit mode. Two queries at
    // the same generation also exercise the warm refilter path.
    let store_spec = store.display().to_string();
    let filter = r#"call=read path~"/data/*""#;
    for emit in ["events", "stats", "dfg"] {
        let target = format!("/query?filter={}&emit={emit}", encode(filter));
        let (status, _, body) = get(addr, &target);
        assert_eq!(status, 200);
        let offline = offline_query_body(&store_spec, Some(filter), emit);
        assert_eq!(String::from_utf8(body).unwrap(), offline, "emit={emit}");
    }

    // The live DFG endpoint merges per-stream partials; every stream
    // has completed, so it is a well-formed graph mentioning both the
    // read and write activity families.
    let (status, _, dot) = get(addr, "/dfg");
    assert_eq!(status, 200);
    let dot = String::from_utf8(dot).unwrap();
    assert!(dot.starts_with("digraph"), "{dot}");
    assert!(dot.contains("read:/data"), "{dot}");
    assert!(dot.contains("write:/data"), "{dot}");

    let (status, _, _) = http(addr, b"POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_cap_connections_are_rejected_with_503() {
    let dir = tempdir("cap");
    let mut config = ServeConfig::new(dir.join("live.stlog2"));
    config.max_conns = 2;
    let handle = Daemon::start(config).unwrap();
    let addr = handle.addr();

    // Two silent connections occupy both slots...
    let hold1 = TcpStream::connect(addr).unwrap();
    let hold2 = TcpStream::connect(addr).unwrap();
    // ...give the accept loop a moment to take them...
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        let (status, _, _) = get(addr, "/status");
        if status == 503 || std::time::Instant::now() > deadline {
            break status;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(status, 503, "third connection must be turned away");

    drop(hold1);
    drop(hold2);
    // Slots free up again; the rejection was counted.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let body = loop {
        let (status, _, body) = get(addr, "/status");
        if status == 200 {
            break String::from_utf8(body).unwrap();
        }
        assert!(std::time::Instant::now() < deadline, "slots never freed");
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(
        body.contains("conns_rejected=") && !body.contains("conns_rejected=0"),
        "{body}"
    );
    // The obs counter agrees: the accept thread records it and
    // publishes it right after the 503, not only when idle.
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let json = String::from_utf8(body).unwrap();
    let rejected: u64 = json
        .split("\"serve.conns_rejected\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no serve.conns_rejected counter in {json}"));
    assert!(rejected >= 1, "{json}");

    handle.shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_leaves_fsck_clean_store() {
    let dir = tempdir("shutdown");
    let store = dir.join("live.stlog2");
    let handle = Daemon::start(ServeConfig::new(&store)).unwrap();
    let addr = handle.addr();

    for i in 0..3 {
        let (status, _) = ingest_chunked(
            addr,
            &format!("g{i}_hostA_{}.st", 7000 + i),
            &stream_text(i, 25),
        );
        assert_eq!(status, 200);
    }
    handle.shutdown();
    handle.join().unwrap();

    // The finished container is clean end to end and holds every case.
    let salvaged = st_store::open_salvage_seek(&store).unwrap();
    assert!(salvaged.report.is_clean(), "{:?}", salvaged.report);
    let reader = st_store::SegmentReader::open(&store).unwrap();
    assert_eq!(reader.read().unwrap().cases().len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_requests_are_not_paced_by_an_accept_poll() {
    let dir = tempdir("latency");
    let handle = Daemon::start(ServeConfig::new(dir.join("live.stlog2"))).unwrap();
    let addr = handle.addr();
    // Warm up: the first request pays one-off setup costs.
    assert_eq!(get(addr, "/status").0, 200);

    // Each request takes well under a millisecond once accepted; an
    // accept loop that sleeps when idle would add its poll interval
    // to every fresh connection (40 x 25 ms = 1 s).
    let start = std::time::Instant::now();
    for _ in 0..40 {
        let (status, _, _) = get(addr, "/status");
        assert_eq!(status, 200);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "40 sequential /status requests took {elapsed:?}"
    );

    handle.shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_wakes_a_daemon_bound_to_an_unspecified_address() {
    let dir = tempdir("any-addr");
    let store = dir.join("live.stlog2");
    let mut config = ServeConfig::new(&store);
    config.addr = "0.0.0.0:0".to_string();
    let handle = Daemon::start(config).unwrap();
    assert!(handle.addr().ip().is_unspecified());
    let addr = SocketAddr::from(([127, 0, 0, 1], handle.port()));

    let (status, _) = ingest_chunked(addr, "w_hostA_7200.st", &stream_text(0, 25));
    assert_eq!(status, 200);
    // The shutdown wake-up must reach the accept blocked on 0.0.0.0
    // (it connects through loopback; Linux would also route 0.0.0.0
    // there, other systems refuse it). A missed wake-up hangs join().
    handle.shutdown();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(handle.join()));
    done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("join() returned after shutdown()")
        .unwrap();

    let fsck = st_store::open_salvage_seek(&store).unwrap();
    assert!(fsck.report.is_clean(), "{:?}", fsck.report);
    assert_eq!(fsck.report.cases, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `streams_sealed=N` figure of a `/status` body.
fn status_streams_sealed(addr: SocketAddr) -> u64 {
    let (status, _, body) = get(addr, "/status");
    assert_eq!(status, 200);
    let body = String::from_utf8(body).unwrap();
    body.split_ascii_whitespace()
        .find_map(|kv| kv.strip_prefix("streams_sealed="))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no streams_sealed in {body:?}"))
}

#[test]
fn failed_checkpoint_is_not_counted_as_sealed() {
    let dir = tempdir("ckpt-fail");
    let store = dir.join("live.stlog2");
    let handle = Daemon::start(ServeConfig::new(&store)).unwrap();
    let addr = handle.addr();

    let (status, _) = ingest_chunked(addr, "ok_hostA_7100.st", &stream_text(0, 25));
    assert_eq!(status, 200);
    assert_eq!(status_streams_sealed(addr), 1);

    // Force every later checkpoint to fail: the builder's spill file
    // vanishes, so the splice step of the publish cannot open it.
    // (Removing write permission on the directory would not bind a
    // privileged test runner; a missing spill fails for everyone.)
    let spill = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().contains(".spill."))
        .expect("the builder keeps a spill beside the store");
    std::fs::remove_file(&spill).unwrap();
    let (status, body) = ingest_chunked(addr, "lost_hostA_7101.st", &stream_text(1, 25));
    assert_ne!(status, 200, "{}", String::from_utf8_lossy(&body));
    let sealed = status_streams_sealed(addr);
    assert_eq!(sealed, 1, "a failed seal must not be counted");

    handle.shutdown();
    assert!(
        handle.join().is_err(),
        "the final seal cannot succeed either"
    );

    // The last published checkpoint is intact, and `/status` counted
    // exactly the cases it holds.
    let fsck = st_store::open_salvage_seek(&store).unwrap();
    assert!(fsck.report.is_clean(), "{:?}", fsck.report);
    assert_eq!(fsck.report.cases as u64, sealed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tail_long_polls_and_metrics_report() {
    let dir = tempdir("tail");
    let handle = Daemon::start(ServeConfig::new(dir.join("live.stlog2"))).unwrap();
    let addr = handle.addr();

    // Empty feed: the poll waits for the timeout, then returns empty
    // with the cursor for the next call.
    let (status, head, body) = get(addr, "/tail?since=0&timeout_ms=50");
    assert_eq!(status, 200);
    assert!(body.is_empty());
    assert!(head.to_ascii_lowercase().contains("x-st-next: 0"), "{head}");

    let (status, _) = ingest_chunked(addr, "t_hostB_4242.st", &stream_text(0, 10));
    assert_eq!(status, 200);

    let (status, head, body) = get(addr, "/tail?since=0&timeout_ms=2000");
    assert_eq!(status, 200);
    let feed = String::from_utf8(body).unwrap();
    assert_eq!(feed.lines().count(), 10, "{feed}");
    assert!(
        feed.lines()
            .all(|l| l.starts_with("t\thostB\t4242\t9000\t")),
        "{feed}"
    );
    assert!(
        head.to_ascii_lowercase().contains("x-st-next: 10"),
        "{head}"
    );

    // Resuming past the end returns an empty page, not a replay.
    let (_, _, body) = get(addr, "/tail?since=10&timeout_ms=50");
    assert!(body.is_empty());

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let json = String::from_utf8(body).unwrap();
    assert!(json.contains("st-obs/1"), "{json}");
    assert!(json.contains("serve.events_ingested"), "{json}");
    assert!(json.contains("stinspectd"), "{json}");

    handle.shutdown();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
