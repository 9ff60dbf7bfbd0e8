//! The client side: spawning `hypar-engine`, and closed-loop clients
//! over its stdin/stdout pipes and over TCP connections.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `hypar-engine` process.  Dropping it kills and reaps the
/// process, so no early return leaves one behind.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    stderr: Option<BufReader<ChildStderr>>,
    /// The loopback address of a `--listen` server.
    pub addr: Option<String>,
}

/// `cpu_set_t` from `<sched.h>`: room for 1,024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Sets the calling thread's CPUs.  Makes one system call and does not
/// allocate, so a forked child may call it before exec.
fn set_affinity(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a live cpu_set_t-sized buffer and the size
    // passed is exactly its size; the call only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// While alive, keeps the calling thread (the client) on one CPU, the
/// lowest it may use; servers spawned meanwhile get every CPU the client
/// had, so the service's threads and `parallel::map` fan-out are as
/// deployed.  A client free to run on any CPU ping-pongs with the server
/// across CPUs thousands of times a second on cold-plan, and every
/// wake-up of an idle virtual CPU waits on the host: on a 2-vCPU VM,
/// steal per cold-plan run fell from up to 5.5 % of CPU time to under
/// 1 % with the client pinned.
pub struct ClientPin {
    all: CpuSet,
}

impl ClientPin {
    /// Pins the calling thread to the lowest CPU of its current set.
    pub fn new() -> io::Result<ClientPin> {
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is a live, exclusively borrowed cpu_set_t-sized
        // buffer and the size passed is exactly its size.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut all) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let word = all
            .iter()
            .position(|&w| w != 0)
            .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
        let mut one: CpuSet = [0; 16];
        one[word] = all[word] & all[word].wrapping_neg();
        set_affinity(&one)?;
        Ok(ClientPin { all })
    }

    /// Makes `command`'s process run on every CPU the client had.
    fn free(&self, command: &mut Command) {
        let all = self.all;
        // SAFETY: the hook runs in the forked child before exec and only
        // calls `set_affinity`, which is async-signal-safe.
        unsafe {
            command.pre_exec(move || set_affinity(&all));
        }
    }
}

impl Drop for ClientPin {
    fn drop(&mut self) {
        // Back on every CPU for the in-process traced pass; should this
        // fail, that pass only runs on one CPU.
        let _ = set_affinity(&self.all);
    }
}

impl Server {
    /// Spawns a server on stdin/stdout, recording to `record` if given.
    pub fn spawn_stdio(
        engine: &Path,
        record: Option<&Path>,
        pin: &ClientPin,
    ) -> io::Result<Server> {
        let mut command = Command::new(engine);
        if let Some(path) = record {
            command.arg("--record").arg(path);
        }
        pin.free(&mut command);
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(Server {
            child,
            stdin,
            stdout,
            stderr: None,
            addr: None,
        })
    }

    /// Spawns a `--listen` server on an ephemeral loopback port and waits
    /// for it to announce the port on stderr.
    pub fn spawn_tcp(engine: &Path, pin: &ClientPin) -> io::Result<Server> {
        let mut command = Command::new(engine);
        pin.free(&mut command);
        let mut child = command
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take();
        let mut server = Server {
            child,
            stdin: None,
            stdout: None,
            stderr: None,
            addr: None,
        };
        let mut stderr = BufReader::new(stderr.ok_or_else(|| io::Error::other("no stderr pipe"))?);
        let mut line = String::new();
        stderr.read_line(&mut line)?;
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| io::Error::other(format!("unexpected banner `{}`", line.trim())))?;
        server.addr = Some(addr.to_owned());
        // Kept open: a closed pipe would turn the server's later
        // diagnostics into write errors.
        server.stderr = Some(stderr);
        Ok(server)
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One closed-loop request over the pipes: writes `line` (which ends
    /// in `\n`) and appends the reply line, newline included, to `reply`.
    pub fn roundtrip(&mut self, line: &str, reply: &mut String) -> io::Result<()> {
        let (Some(stdin), Some(stdout)) = (self.stdin.as_mut(), self.stdout.as_mut()) else {
            return Err(io::Error::other("not a stdio server"));
        };
        stdin.write_all(line.as_bytes())?;
        if stdout.read_line(reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed its stdout",
            ));
        }
        Ok(())
    }

    /// The process's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Ends the server: closes stdin (a stdio server exits at EOF) and
    /// kills a TCP server, then reaps it.
    pub fn stop(mut self) -> io::Result<()> {
        self.stdin.take();
        if self.addr.is_some() {
            self.child.kill()?;
        }
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already reaped by `stop`, or an error path: make sure the
        // process is gone either way.  Errors here mean it already is.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until one of `fds` is ready; fills in `revents`.
fn wait_ready(fds: &mut [PollFd]) -> io::Result<()> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records and `nfds` is its exact length, so
        // poll(2) reads and writes only inside it.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) };
        if ready >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One client connection with its own read buffer, pending output and
/// queue of requests awaiting replies.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    pending: VecDeque<(usize, Instant)>,
}

impl Conn {
    /// Connects to `addr` without Nagle's algorithm on the client side,
    /// in non-blocking mode for the poll loop.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::with_capacity(1 << 16),
            out: Vec::with_capacity(1 << 16),
            out_pos: 0,
            pending: VecDeque::new(),
        })
    }

    /// Queues `line` (request `index`) and writes as much as the socket
    /// takes now; the send time is taken just before the write.
    fn send(&mut self, index: usize, line: &str) -> io::Result<()> {
        self.pending.push_back((index, Instant::now()));
        self.out.extend_from_slice(line.as_bytes());
        self.flush_some()
    }

    fn flush_some(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed")),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }
}

/// A completed request: its line index, latency, and reply (without the
/// newline).
pub struct Reply<'a> {
    pub index: usize,
    pub latency: Duration,
    pub bytes: &'a [u8],
}

/// Drives requests over `conns` until none is pending.  `feed(conn)`
/// names the next line index to send on a connection (or `None`), and
/// is asked whenever that connection has fewer than `window` requests
/// in flight; `sink` receives every reply as it completes.
pub fn pump(
    conns: &mut [Conn],
    lines: &[String],
    window: usize,
    feed: &mut dyn FnMut(usize) -> Option<usize>,
    sink: &mut dyn FnMut(Reply<'_>),
) -> io::Result<()> {
    let refill = |c: usize, conn: &mut Conn, feed: &mut dyn FnMut(usize) -> Option<usize>| {
        while conn.pending.len() < window {
            match feed(c) {
                Some(index) => conn.send(index, &lines[index])?,
                None => break,
            }
        }
        io::Result::Ok(())
    };
    for (c, conn) in conns.iter_mut().enumerate() {
        refill(c, conn, feed)?;
    }
    let mut chunk = vec![0u8; 1 << 16];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let mut slots: Vec<usize> = Vec::with_capacity(conns.len());
    loop {
        fds.clear();
        slots.clear();
        for (c, conn) in conns.iter().enumerate() {
            if conn.pending.is_empty() {
                continue;
            }
            let mut events = POLLIN;
            if conn.out_pos < conn.out.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            slots.push(c);
        }
        if fds.is_empty() {
            return Ok(());
        }
        wait_ready(&mut fds)?;
        for (fd, &c) in fds.iter().zip(&slots) {
            if fd.revents == 0 {
                continue;
            }
            let conn = &mut conns[c];
            if fd.revents & POLLOUT != 0 {
                conn.flush_some()?;
            }
            if fd.revents & !POLLOUT == 0 {
                continue;
            }
            let n = match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            };
            let done = Instant::now();
            let scan_from = conn.inbuf.len();
            conn.inbuf.extend_from_slice(&chunk[..n]);
            if !conn.inbuf[scan_from..].contains(&b'\n') {
                continue;
            }
            let mut start = 0;
            while let Some(pos) = conn.inbuf[start..].iter().position(|&b| b == b'\n') {
                let (index, sent) = conn
                    .pending
                    .pop_front()
                    .ok_or_else(|| io::Error::other("reply without a request"))?;
                sink(Reply {
                    index,
                    latency: done - sent,
                    bytes: &conn.inbuf[start..start + pos],
                });
                start += pos + 1;
            }
            conn.inbuf.drain(..start);
            refill(c, conn, feed)?;
        }
    }
}
