//! Driving the real `specc` binary: locating it, the long-lived
//! `specc --serve` session, and one-shot invocations.
//!
//! At most one `specc` runs at a time, so a benchmark run never has more
//! than two live processes: this one and its child.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `specc` sits beside the running executable: both are built into the
/// same target directory.
pub fn locate() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    let specc = dir.join("specc");
    if specc.exists() {
        Ok(specc)
    } else {
        Err(format!(
            "specc not found beside {} (build it into the same target directory)",
            exe.display()
        ))
    }
}

/// The service flags every serve workload uses: one request in flight,
/// one worker thread, and the cache (if any) in the run's work directory.
fn serve_args(cache_dir: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = [
        "--serve",
        "--spec",
        "heuristic",
        "--control",
        "static",
        "--jobs",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(dir) = cache_dir {
        args.push("--cache-dir".into());
        args.push(dir.display().to_string());
    }
    args
}

/// A running `specc --serve` session. Dropping it kills and reaps the
/// child, so no exit path leaves a process behind.
pub struct Service {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Service {
    pub fn spawn(specc: &Path, cache_dir: Option<&Path>) -> io::Result<Service> {
        let mut child = Command::new(specc)
            .args(serve_args(cache_dir))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Service {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and waits for its one-line response.
    /// Returns the response and the time from send to receipt.
    pub fn request(&mut self, line: &str) -> io::Result<(String, Duration)> {
        let t0 = Instant::now();
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        let mut resp = String::new();
        if self.stdout.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "specc --serve closed its output",
            ));
        }
        Ok((resp.trim_end().to_string(), t0.elapsed()))
    }

    /// The child's peak resident set (`VmHWM`) in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Ends the session with `quit` and waits for a clean exit.
    pub fn quit(mut self) -> io::Result<()> {
        self.stdin.write_all(b"quit\n")?;
        self.stdin.flush()?;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "specc --serve exited with {status}"
            )))
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // after `quit` the child is already reaped and both calls are no-ops
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one one-shot `specc` invocation did.
#[derive(Debug)]
pub struct OneShot {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    pub stderr: String,
    /// The child's peak resident set in kB.
    pub maxrss_kb: u64,
    pub wall: Duration,
}

/// Runs `specc ARGS` to completion (stdout discarded) and reports its exit
/// code, stderr, peak memory and wall time.
pub fn one_shot(specc: &Path, args: &[String]) -> io::Result<OneShot> {
    let t0 = Instant::now();
    let mut child = Command::new(specc)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stderr = String::new();
    let read = child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr);
    let waited = wait_rusage(&mut child);
    let wall = t0.elapsed();
    read?;
    let (code, maxrss_kb) = waited?;
    Ok(OneShot {
        code,
        stderr,
        maxrss_kb,
        wall,
    })
}

/// Reaps `child` with `wait4`, which also returns that one child's
/// resource usage — the only portable-to-Linux way to read the peak memory
/// of a process that has already exited.
fn wait_rusage(child: &mut Child) -> io::Result<(Option<i32>, u64)> {
    // struct rusage on Linux: two timevals, then 14 longs; ru_maxrss
    // (kB) is the first long
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut ru = Rusage([0; 18]);
    loop {
        // SAFETY: `status` and `ru` are live, writable, and laid out as
        // wait4(2) expects on Linux; `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, u64::try_from(ru.0[4]).unwrap_or(0)))
}

/// Writes the dirty pages of the filesystem holding `dir` back to disk
/// (`syncfs`), so the timed phase does not pay for the set-up's writes.
pub fn flush_disk(dir: &Path) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn syncfs(fd: i32) -> i32;
    }
    if let Ok(f) = std::fs::File::open(dir) {
        // SAFETY: `f` keeps the descriptor open for the duration of the call.
        unsafe { syncfs(f.as_raw_fd()) };
    }
}
