//! Descriptor exhaustion must not kill the server: under a 64-descriptor limit a
//! 100-connection burst runs `accept` into EMFILE, which the event loop answers
//! by pausing the listener for one tick (counted on `/metrics`) instead of
//! exiting.  Once the burst closes, the server must be alive and serving.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Kills the server when the test ends, passing or not.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `ptrng-serve` on an ephemeral port under `ulimit -n 64` and returns
/// it with the address it reports on stderr.
fn spawn_limited() -> (Server, SocketAddr) {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 64 && exec "$0" "$@""#)
        .arg(env!("CARGO_BIN_EXE_ptrng-serve"))
        .args(["--listen", "127.0.0.1:0", "--source", "model", "--drbg"])
        .args(["--shards", "1", "--seed", "1", "--no-startup"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ptrng-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read startup line");
    // Keep draining so later diagnostics never block the server on a full pipe.
    thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no listening address in {line:?}"));
    (Server(child), addr)
}

/// One `Connection: close` GET; returns the status code and the body.
fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, body)| body.to_string());
    Ok((status, body))
}

#[test]
fn fd_exhaustion_backs_off_instead_of_exiting() {
    let (mut server, addr) = spawn_limited();

    // A server that dies mid-burst refuses the rest; the liveness check below
    // reports that, so refused connects are not failures in themselves.
    let burst: Vec<TcpStream> = (0..100)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect();
    // Give the loop time to accept until the descriptor table is full.
    thread::sleep(Duration::from_millis(500));
    assert!(
        server.0.try_wait().expect("poll child").is_none(),
        "ptrng-serve exited under descriptor exhaustion"
    );
    drop(burst);

    let deadline = Instant::now() + Duration::from_secs(20);
    let healthz = loop {
        assert!(
            server.0.try_wait().expect("poll child").is_none(),
            "ptrng-serve exited under descriptor exhaustion"
        );
        match get(addr, "/healthz") {
            Ok((status, _)) if status != 0 => break status,
            _ if Instant::now() < deadline => thread::sleep(Duration::from_millis(100)),
            other => panic!("server never answered /healthz again: {other:?}"),
        }
    };
    assert_eq!(healthz, 200);

    let (status, metrics) = get(addr, "/metrics").expect("scrape /metrics");
    assert_eq!(status, 200);
    let backoffs: u64 = metrics
        .lines()
        .find_map(|line| line.strip_prefix("ptrng_http_accept_backoffs_total "))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("no accept-backoff counter in:\n{metrics}"));
    assert!(backoffs >= 1, "the burst never hit the descriptor limit");
    assert!(server.0.try_wait().expect("poll child").is_none());
}
