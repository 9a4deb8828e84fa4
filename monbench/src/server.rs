//! The `monsem serve` child process: spawned with a held-open stdin pipe,
//! stopped by writing `stop` to it.

use crate::host;
use std::io::{self, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

/// Fails unless `bin` exists and is at least as new as every source file
/// it is built from (the root package's `src/` and the library crates).
pub fn check_fresh(bin: &Path) -> Result<(), String> {
    let built = std::fs::metadata(bin)
        .and_then(|m| m.modified())
        .map_err(|e| format!("server binary {}: {e}", bin.display()))?;
    let mut roots = vec![PathBuf::from("src")];
    for c in [
        "syntax", "core", "monitor", "monitors", "pe", "tspec", "stream", "tape",
    ] {
        roots.push(Path::new("crates").join(c).join("src"));
    }
    let mut newest = (SystemTime::UNIX_EPOCH, PathBuf::new());
    for r in roots {
        newest_in(&r, &mut newest).map_err(|e| format!("scanning {}: {e}", r.display()))?;
    }
    if newest.0 > built {
        return Err(format!(
            "server binary {} is older than {}; rebuild it",
            bin.display(),
            newest.1.display()
        ));
    }
    Ok(())
}

fn newest_in(dir: &Path, newest: &mut (SystemTime, PathBuf)) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            newest_in(&entry.path(), newest)?;
        } else if meta.modified()? > newest.0 {
            *newest = (meta.modified()?, entry.path());
        }
    }
    Ok(())
}

/// A running `monsem serve --unix <sock> --io-backend reactor`.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    sock: PathBuf,
}

impl Server {
    /// Spawns the server on a fresh socket path (default settings apart
    /// from the reactor backend).
    pub fn spawn(bin: &Path, sock: PathBuf) -> io::Result<Server> {
        let _ = std::fs::remove_file(&sock);
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--unix")
            .arg(&sock)
            .args(["--io-backend", "reactor"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        Ok(Server { child, stdin, sock })
    }

    /// Connects, retrying until the server's socket accepts (10 s limit).
    pub fn connect(&mut self) -> io::Result<UnixStream> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.sock) {
                Ok(s) => return Ok(s),
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!("server exited early: {status}")));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// The child's utime + stime so far, in nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        host::proc_cpu_ns(self.child.id())
    }

    /// The child's peak resident set, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_mb(self.child.id())
    }

    /// Writes `stop` and waits for the child to drain and exit.
    pub fn stop(mut self) -> io::Result<()> {
        let mut stdin = self.stdin.take().expect("stdin is held until stop");
        stdin.write_all(b"stop\n")?;
        drop(stdin);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(io::Error::other("server did not stop within 20 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    /// A server not stopped cleanly (an error path) is killed and reaped.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}
