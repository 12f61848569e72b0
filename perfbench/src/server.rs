//! The system under test for the serving workloads: a real `holo-serve`
//! child process, started fresh for every run so each run begins from
//! the same (empty) nn-cache state.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The served model's name in every URL.
pub const MODEL: &str = "m";

/// A running `holo-serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Start `bin` serving `artifact` in streaming mode with its delta
    /// log at `log`, bound to an ephemeral port. Background drift
    /// refits are disabled (their row minimum is out of reach and their
    /// poll interval an hour), so every refit in a run is one the
    /// benchmark forced. Returns once the server is listening.
    pub fn start(bin: &Path, artifact: &Path, log: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--model")
            .arg(format!("{MODEL}={}", artifact.display()))
            .arg("--stream")
            .arg(format!("{MODEL}={}", log.display()))
            .args(["--min-refit-rows", "1000000000"])
            .args(["--refit-interval-ms", "3600000"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keep draining stderr after the listening line so the child
        // can never block on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                } else if tx.is_some() {
                    eprintln!("holo-serve: {line}");
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "holo-serve exited or never started listening".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|_| format!("holo-serve printed an unparsable address {addr:?}"))?;
        Ok(server)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set size of the child so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
