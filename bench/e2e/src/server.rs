//! The `fgserve` child process: spawned on an ephemeral port, found through
//! its `listening on` line, and killed by a drop guard on every exit path.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a started server may take to print its `listening on` line.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a server may take to exit after acknowledging `SHUTDOWN`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
const STDERR_TAIL_LINES: usize = 20;

/// A running `fgserve serve` child. Dropping it kills and reaps the child,
/// so a panic or an early return never leaves a server behind.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    readers: Vec<JoinHandle<()>>,
}

fn parse_listen_addr(line: &str) -> Option<SocketAddr> {
    line.split_once("listening on ")?
        .1
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

impl Server {
    /// Spawn `fgserve` with `args` and wait for its listening address. On
    /// failure the error carries the tail of the server's stderr.
    pub fn spawn(fgserve: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(fgserve)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fgserve.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");

        let stderr_tail = Arc::new(Mutex::new(VecDeque::new()));
        let tail = Arc::clone(&stderr_tail);
        let stderr_reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let mut tail = tail.lock().expect("stderr tail lock");
                if tail.len() == STDERR_TAIL_LINES {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });
        // Keeps draining stdout after the address is found so the child never
        // blocks on a full pipe; ends at EOF, i.e. when the child exits.
        let (addr_tx, addr_rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = parse_listen_addr(&line) {
                    let _ = addr_tx.send(addr);
                }
            }
        });

        let mut server = Server {
            child,
            // placeholder until the child reports its port
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_tail,
            readers: vec![stderr_reader, stdout_reader],
        };
        match addr_rx.recv_timeout(LISTEN_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            // Disconnected: stdout closed without the line, the child died.
            Err(_) => Err(server.failure("fgserve never printed its `listening on` line")),
        }
    }

    /// The address the child listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the child and describe the failure: `what`, the exit status if
    /// the child had already died, and the tail of its stderr. This is the
    /// message for a non-zero exit of the benchmark.
    pub fn failure(mut self, what: &str) -> String {
        let status = match self.child.try_wait() {
            Ok(Some(status)) => format!(" (fgserve exited: {status})"),
            _ => String::new(),
        };
        // Joining the readers makes the tail complete before it is quoted.
        self.stop();
        let tail = self.stderr_tail.lock().expect("stderr tail lock");
        let mut msg = format!("{what}{status}");
        for line in tail.iter() {
            msg.push_str("\n  fgserve stderr: ");
            msg.push_str(line);
        }
        msg
    }

    /// A field of `/proc/<pid>/status`, e.g. `VmHWM` (kB) or `Threads`.
    pub fn proc_status(&self, field: &str) -> Option<u64> {
        proc_status(self.child.id(), field)
    }

    /// Wait for the child to exit after it acknowledged `SHUTDOWN`; the drop
    /// guard kills it if it does not.
    pub fn wait_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(self.failure(&format!("fgserve exit status {status}")))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(self.failure("fgserve did not exit after SHUTDOWN")),
                Err(e) => return Err(format!("waiting for fgserve: {e}")),
            }
        }
    }

    fn stop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A numeric field of `/proc/<pid>/status`.
pub fn proc_status(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_address_in_the_listening_line() {
        let line = "fgserve: listening on 127.0.0.1:42555 models=[gcn] shards=off";
        assert_eq!(
            parse_listen_addr(line),
            Some("127.0.0.1:42555".parse().unwrap())
        );
        assert_eq!(parse_listen_addr("fgserve: bind failed"), None);
    }

    #[test]
    fn reads_own_proc_status() {
        let hwm = proc_status(std::process::id(), "VmHWM").expect("VmHWM of this process");
        assert!(hwm > 0);
        assert!(proc_status(std::process::id(), "Threads").unwrap() >= 1);
        assert_eq!(proc_status(std::process::id(), "NoSuchField"), None);
    }

    #[test]
    fn a_child_that_dies_reports_its_stderr() {
        // `sh -c` stands in for a server that fails before listening.
        let err = Server::spawn(
            Path::new("/bin/sh"),
            &["-c".to_string(), "echo boom >&2; exit 3".to_string()],
        )
        .err()
        .expect("spawn must fail");
        assert!(err.contains("never printed"), "{err}");
        assert!(err.contains("boom"), "{err}");
    }
}
