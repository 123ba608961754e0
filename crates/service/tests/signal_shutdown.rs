//! SIGTERM-driven graceful shutdown, end to end over a loopback socket.
//!
//! This lives in its own test binary on purpose: `raise_signal` signals the
//! whole process, so it must not share a process with unrelated tests. The
//! tests below prove the contract `papctl serve` and `papd` rely on — a
//! delivered SIGTERM reuses the same drain path as a `Shutdown` frame, and
//! queries already in flight complete instead of being torn down — once in
//! process and once against the `papd` binary.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pap_collectives::CollectiveKind;
use pap_service::proto::Reply;
use pap_service::{install_signal_shutdown, Client, QueryRequest, Request, ServeConfig, Server, Tier};
use pap_sysio::{raise_signal, SIGTERM};

fn query(ranks: usize) -> Request {
    Request::Query(QueryRequest {
        machine: "simcluster".into(),
        collective: CollectiveKind::Reduce,
        bytes: 1024,
        ranks,
        arrivals: None,
    })
}

#[test]
fn sigterm_drains_in_flight_queries() {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        tune_at_startup: true,
        refine_threads: 0,
        ..ServeConfig::default()
    })
    .expect("server start");
    install_signal_shutdown(&server).expect("signal handler");
    let addr = server.local_addr();

    // Pipeline queries on several connections, replies deliberately unread:
    // these frames are in flight — written to the kernel, not yet answered —
    // when the signal lands.
    let mut clients: Vec<Client> = (0..4)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")))
        .collect();
    let mut pending = Vec::new();
    for (i, c) in clients.iter_mut().enumerate() {
        for _ in 0..3 {
            pending.push((i, c.send(query(16)).expect("send")));
        }
    }

    raise_signal(SIGTERM).expect("raise SIGTERM");

    // The drain path answers every one of them before closing.
    let mut iter = pending.into_iter();
    for (i, c) in clients.iter_mut().enumerate() {
        for _ in 0..3 {
            let (conn, id) = iter.next().expect("one pending per send");
            assert_eq!(conn, i);
            let env = c.recv().unwrap_or_else(|e| panic!("in-flight reply #{i} lost: {e}"));
            assert_eq!(env.id, id);
            match env.reply {
                Reply::Answer(a) => assert!(
                    matches!(a.tier, Tier::L1 | Tier::L2),
                    "tuned cell answers from cache while draining, not {:?}",
                    a.tier
                ),
                other => panic!("in-flight query #{i} got {other:?}"),
            }
        }
    }
    drop(clients);

    // The signal alone — no Shutdown frame — must bring the daemon down.
    server.join();

    // And once down, the port stops accepting.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(_) => break,
            Ok(_) if Instant::now() > deadline => panic!("daemon still accepting after SIGTERM"),
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Kills the child if the test fails before it exits.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

#[test]
fn papd_binary_drains_on_sigterm() {
    let child = Command::new(env!("CARGO_BIN_EXE_papd"))
        .args(["--addr", "127.0.0.1:0", "--refine-threads", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn papd");
    let mut papd = Reap(child);
    let mut line = String::new();
    BufReader::new(papd.0.stdout.take().expect("stdout")).read_line(&mut line).expect("read");
    let addr = line.trim().strip_prefix("papd listening on ").expect("address line").to_string();

    let mut clients: Vec<Client> = (0..4)
        .map(|i| Client::connect(&addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")))
        .collect();
    let mut pending = Vec::new();
    for c in clients.iter_mut() {
        pending.push((0..3).map(|_| c.send(query(16)).expect("send")).collect::<Vec<_>>());
    }
    let status = Command::new("kill")
        .args(["-TERM", &papd.0.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success());

    for (i, (c, ids)) in clients.iter_mut().zip(pending).enumerate() {
        for id in ids {
            let env = c.recv().unwrap_or_else(|e| panic!("in-flight reply #{i} lost: {e}"));
            assert_eq!(env.id, id);
            assert!(matches!(env.reply, Reply::Answer(_)), "connection #{i}: {:?}", env.reply);
        }
    }
    drop(clients);

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        match papd.0.try_wait().expect("wait papd") {
            Some(status) => break status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            None => panic!("papd still running 10 s after SIGTERM"),
        }
    };
    assert!(status.success(), "papd exited with {status}");
    let mut stderr = String::new();
    papd.0.stderr.take().expect("stderr").read_to_string(&mut stderr).expect("read stderr");
    assert!(stderr.contains("papd: shut down"), "no stats table on stderr: {stderr}");
}
