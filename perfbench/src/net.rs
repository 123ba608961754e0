//! Load generation against a real `papd` over loopback: process control,
//! an open-loop sender/receiver on one thread, and a closed-loop caller.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::AsRawFd;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct TimeSpec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const PR_SET_TIMERSLACK: c_int = 29;
const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_ulong = 9;
/// How long before a scheduled send the open loop stops sleeping and
/// polls the socket instead.
const SPIN: Duration = Duration::from_micros(100);

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const TimeSpec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Wait until `fd` is readable (or writable, when `want_write`) or
/// `timeout` passes. `ppoll` takes a nanosecond timeout, unlike `poll`,
/// `epoll_wait` or socket read timeouts, which round up to milliseconds.
fn wait_fd(fd: c_int, want_write: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = TimeSpec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out locals for the
    // duration of the call; nfds = 1 matches the single entry; a null
    // sigmask is allowed and leaves the signal mask unchanged.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Ask the kernel to wake this thread's timed waits within 1 µs of their
/// deadline instead of the default 50 µs slack.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes a scheduling attribute of the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000 as c_ulong);
    }
}

/// CPU the serving papd runs on. Left to the scheduler, papd's connection
/// thread and the load generator sometimes share a CPU and sometimes do
/// not, which halves or doubles the rate papd sustains from one run to
/// the next. Pinned, papd sees one CPU and runs its sweeps sequentially,
/// as on a one-CPU host. The generator's timed phases run on the other
/// CPU (`pin_client_thread`).
pub const PAPD_CPU: usize = 1;

/// Whether the host has the two CPUs the pinning below needs.
fn can_pin() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > PAPD_CPU)
}

/// Restrict process or thread `pid` (0: the calling thread) to the CPUs
/// in `mask`.
fn set_affinity(pid: c_int, mask: c_ulong) -> std::io::Result<()> {
    // SAFETY: `mask` is a live one-word CPU set and its size is passed
    // with it; the call only changes the scheduling affinity of `pid`.
    let rc = unsafe { sched_setaffinity(pid, std::mem::size_of::<c_ulong>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The calling thread's CPU set, or `None` if it does not fit one word.
fn affinity() -> Option<c_ulong> {
    let mut mask: c_ulong = 0;
    // SAFETY: `mask` is a live one-word CPU set and its size is passed
    // with it; the call only reads the calling thread's affinity.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<c_ulong>(), &mut mask) };
    (rc == 0).then_some(mask)
}

/// Restores the calling thread's CPU set when dropped.
pub struct ClientPin(Option<c_ulong>);

impl Drop for ClientPin {
    fn drop(&mut self) {
        if let Some(mask) = self.0 {
            let _ = set_affinity(0, mask);
        }
    }
}

/// Pin the calling thread to the CPU papd does not use until the returned
/// guard is dropped.
pub fn pin_client_thread() -> ClientPin {
    let prev = can_pin().then(affinity).flatten();
    if prev.is_some() {
        let _ = set_affinity(0, 1 << (1 - PAPD_CPU));
    }
    ClientPin(prev)
}

/// A `papd` child process.
pub struct Papd {
    child: Child,
    pub addr: String,
}

impl Papd {
    /// Spawn `papd` on an ephemeral loopback port, pinned to `PAPD_CPU`
    /// when `pinned`, and wait until it prints its address.
    pub fn spawn(bin: &str, args: &[&str], pinned: bool) -> Result<Papd, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let pinned = pinned && can_pin();
        // SAFETY: the hook runs in the forked child before exec and makes
        // only system calls, which are async-signal-safe. papd dies with
        // this process even if it is killed before it can shut papd down,
        // and every papd thread inherits the affinity.
        unsafe {
            cmd.pre_exec(move || {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                if pinned {
                    set_affinity(0, 1 << PAPD_CPU)?;
                }
                Ok(())
            });
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {bin}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("papd listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Papd { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("papd did not report its address (got {line:?})"))
            }
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Shut down in-band and wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = Caller::connect(&self.addr).and_then(|mut c| {
            c.call(&pap_service::encode_frame(&pap_service::RequestEnvelope {
                v: pap_service::PROTO_VERSION,
                id: u64::MAX,
                req: pap_service::Request::Shutdown,
            }))
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && sent.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("papd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("papd did not exit after Shutdown".into());
                }
            }
        }
    }
}

impl Drop for Papd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A blocking request/reply connection (closed loop).
pub struct Caller {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Caller {
    pub fn connect(addr: &str) -> Result<Caller, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Caller { writer, reader })
    }

    /// Send one encoded frame (newline-terminated) and read its reply line.
    pub fn call(&mut self, frame: &str) -> Result<String, String> {
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// What one open-loop phase observed.
#[derive(Default)]
pub struct Phase {
    /// Per answered query: receive time minus scheduled send time, µs.
    pub lat_us: Vec<f64>,
    /// Per sent query: actual send time minus scheduled send time, µs.
    pub late_us: Vec<f64>,
    /// Reply lines, in request order.
    pub replies: Vec<String>,
    /// Frames sent.
    pub sent: usize,
    /// First scheduled send to last reply, seconds.
    pub elapsed_s: f64,
    /// Transport failure, if the phase ended on one.
    pub error: Option<String>,
}

/// Send `frames` on `stream` at `rate` per second on a fixed schedule,
/// reading replies on the same thread, until every reply arrived, `stop`
/// is raised (no further sends; outstanding replies are awaited), or the
/// last scheduled send is `grace` in the past.
///
/// Latency is timed from each frame's scheduled send time, so a stall
/// charges its wait to every request queued behind it. With `busy_poll`
/// the thread never sleeps: on a virtual machine an idle CPU can take
/// milliseconds to wake, so a generator that owns a CPU keeps it busy.
pub fn open_loop(
    stream: &mut TcpStream,
    frames: &[String],
    rate: f64,
    grace: Duration,
    stop: Option<&AtomicBool>,
    busy_poll: bool,
) -> Phase {
    let n = frames.len();
    let interval = 1.0 / rate;
    let t0 = Instant::now() + Duration::from_millis(1);
    let sched = |i: usize| t0 + Duration::from_secs_f64(i as f64 * interval);
    let mut phase = Phase {
        lat_us: Vec::with_capacity(n),
        late_us: Vec::with_capacity(n),
        replies: Vec::with_capacity(n),
        sent: 0,
        elapsed_s: 0.0,
        error: None,
    };
    if let Err(e) = stream.set_nonblocking(true) {
        phase.error = Some(format!("set_nonblocking: {e}"));
        return phase;
    }
    let fd = stream.as_raw_fd();
    let mut out: Vec<u8> = Vec::new();
    let mut out_off = 0;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut deadline = sched(n.saturating_sub(1)) + grace;
    let mut limit = n;
    let mut last_recv = t0;

    while phase.replies.len() < limit {
        let now = Instant::now();
        if now > deadline {
            phase.error = Some(format!(
                "{} of {} replies missing at the deadline",
                limit - phase.replies.len(),
                limit
            ));
            break;
        }
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) && limit == n {
            limit = phase.sent;
            deadline = now + grace;
            continue;
        }
        while phase.sent < limit && sched(phase.sent) <= now {
            out.extend_from_slice(frames[phase.sent].as_bytes());
            phase
                .late_us
                .push((now - sched(phase.sent)).as_secs_f64() * 1e6);
            phase.sent += 1;
        }
        if out_off < out.len() {
            match stream.write(&out[out_off..]) {
                Ok(k) => out_off += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => {
                    phase.error = Some(format!("send: {e}"));
                    break;
                }
            }
            if out_off == out.len() {
                out.clear();
                out_off = 0;
            }
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    phase.error = Some("connection closed".into());
                    break;
                }
                Ok(k) => {
                    let t = Instant::now();
                    let scan_from = inbuf.len();
                    inbuf.extend_from_slice(&chunk[..k]);
                    let mut start = 0;
                    let mut pos = scan_from;
                    while let Some(nl) = inbuf[pos..].iter().position(|&b| b == b'\n') {
                        let end = pos + nl + 1;
                        let i = phase.replies.len();
                        phase
                            .lat_us
                            .push(t.saturating_duration_since(sched(i)).as_secs_f64() * 1e6);
                        phase
                            .replies
                            .push(String::from_utf8_lossy(&inbuf[start..end]).into_owned());
                        start = end;
                        pos = end;
                    }
                    inbuf.drain(..start);
                    last_recv = t;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    phase.error = Some(format!("receive: {e}"));
                    break;
                }
            }
        }
        if phase.error.is_some() || phase.replies.len() >= limit {
            break;
        }
        // Sleep until shortly before the next send, then spin on the
        // socket: a timed wake-up alone lands tens of µs late.
        let now = Instant::now();
        let wake = if phase.sent < limit {
            sched(phase.sent)
        } else {
            deadline
        };
        if !busy_poll && wake > now + SPIN {
            wait_fd(fd, out_off < out.len(), wake - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
    phase.elapsed_s = last_recv.saturating_duration_since(t0).as_secs_f64();
    let _ = stream.set_nonblocking(false);
    phase
}
