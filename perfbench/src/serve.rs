//! The serve path, end to end: the real `tenblock serve` binary as a child
//! process, driven over TCP by closed-loop clients that each wait for a
//! reply before sending the next waited `mttkrp` request.

use crate::stats::{mean, median, peak_rss_bytes, repeat_setup, tail, timed};
use crate::workload::{Workload, SERVE_RANK};
use crate::{Report, Scale};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tenblock_core::obs::Rec;
use tenblock_serve::Json;

/// Client connections of the closed loop.
pub const CONNECTIONS: usize = 2;

/// Requests the measured loop completes at least, at full scale.
const MIN_REQUESTS: usize = 3000;

/// A `tenblock serve` child process at its default settings (2 workers,
/// queue 16), listening on an OS-assigned local port. Dropping it kills
/// the process and waits for it.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin serve` and waits for its "listening on" line.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(l)) => {
                    if let Some(a) = l.split("listening on ").nth(1) {
                        break Ok(a.trim().to_string());
                    }
                }
                _ => break Err("server exited before listening".to_string()),
            }
        };
        // Keep draining stderr so a chatty server never blocks on a full pipe.
        let drain = std::thread::spawn(move || lines.for_each(drop));
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        proc.addr = addr?;
        Ok(proc)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

/// One line-delimited JSON connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: s, reader })
    }

    /// Sends one request line and returns the raw reply line. A closed
    /// connection or timeout (a dropped reply) is an error.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed before the reply".into()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    /// [`Conn::call`] plus JSON parsing of the reply.
    pub fn call_json(&mut self, line: &str) -> Result<Json, String> {
        let reply = self.call(line)?;
        Json::parse(&reply).map_err(|e| format!("unparsable reply {reply:?}: {e}"))
    }
}

/// A waited `mttkrp` request line: MB+RankB, one repetition.
pub fn mttkrp_request(tensor: &str, mode: usize, rank: usize) -> String {
    format!(
        "{{\"cmd\":\"mttkrp\",\"tensor\":\"{tensor}\",\"mode\":{mode},\"kernel\":\"mbrankb\",\"rank\":{rank},\"reps\":1,\"wait\":true}}"
    )
}

/// Checks an `mttkrp` reply: `ok`, protocol `"v":1`, state `done`, and a
/// result that echoes the request's tensor, mode and rank.
pub fn check_reply(reply: &Json, tensor: &str, mode: usize, rank: usize) -> Result<(), String> {
    let fail = |why: &str| Err(format!("{why}: {}", reply.to_string_compact()));
    if reply.get_bool("ok") != Some(true) {
        return fail("not ok");
    }
    if reply.get_num("v") != Some(1.0) {
        return fail("protocol version is not 1");
    }
    if reply.get_str("state") != Some("done") {
        return fail("job not done");
    }
    let Some(result) = reply.get("result") else {
        return fail("no result");
    };
    let echoed = result.get_str("tensor") == Some(tensor)
        && result.get_usize("mode") == Some(mode)
        && result.get_usize("rank") == Some(rank);
    if !echoed {
        return fail("reply does not echo its request");
    }
    Ok(())
}

/// Checks the server's job counters against the client's: every sent job
/// done, none failed, none rejected.
pub fn check_counters(metrics: &Json, sent: u64) -> Result<(), String> {
    let jobs = metrics.get("metrics").and_then(|m| m.get("jobs"));
    let count = |k: &str| jobs.and_then(|j| j.get_u64(k));
    if count("done") == Some(sent) && count("failed") == Some(0) && count("rejected") == Some(0) {
        Ok(())
    } else {
        Err(format!(
            "server counters {} disagree with {sent} jobs sent",
            jobs.map(|j| j.to_string_compact()).unwrap_or_default()
        ))
    }
}

/// Loads every input of `w` into the server under its handle.
pub fn load_inputs(conn: &mut Conn, w: &Workload, dir: &Path) -> Result<(), String> {
    for spec in &w.inputs {
        let path =
            std::fs::canonicalize(Workload::input_path(dir, spec)).map_err(|e| e.to_string())?;
        let line = Json::obj([
            ("cmd", Json::str("load")),
            ("name", Json::str(spec.name)),
            ("path", Json::str(path.to_string_lossy())),
        ])
        .to_string_compact();
        let reply = conn.call_json(&line)?;
        if reply.get_bool("ok") != Some(true) {
            return Err(format!("load {}: {}", spec.name, reply.to_string_compact()));
        }
    }
    Ok(())
}

/// Starts a server and loads the workload's tensors: the serve set-up.
pub fn start(bin: &Path, w: &Workload, dir: &Path) -> Result<ServerProc, String> {
    let server = ServerProc::spawn(bin)?;
    let mut conn = Conn::connect(&server.addr)?;
    load_inputs(&mut conn, w, dir)?;
    Ok(server)
}

/// One completed request of a closed loop.
#[derive(Debug, Clone)]
pub struct Sample {
    pub rtt_s: f64,
    pub request: String,
    pub reply: String,
    /// Why the reply failed its check, if it did.
    pub error: Option<String>,
}

/// When a closed-loop client stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    /// This many requests per connection.
    Count(usize),
}

/// Runs `conns` closed-loop clients, each rotating over tensor × mode
/// from its own starting offset. Returns every request, in no particular
/// order across connections.
pub fn closed_loop(addr: &str, w: &Workload, conns: usize, until: Until, rec: &Rec) -> Vec<Sample> {
    let combos: Vec<(&str, usize)> = w
        .inputs
        .iter()
        .flat_map(|s| (0..3).map(move |m| (s.name, m)))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let combos = &combos;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = match Conn::connect(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            let error = Some(e);
                            out.push(Sample {
                                rtt_s: 0.0,
                                request: String::new(),
                                reply: String::new(),
                                error,
                            });
                            return out;
                        }
                    };
                    for i in 0.. {
                        let more = match until {
                            Until::Deadline(t) => Instant::now() < t,
                            Until::Count(n) => i < n,
                        };
                        if !more {
                            break;
                        }
                        let (tensor, mode) =
                            combos[(c * combos.len() / conns.max(1) + i) % combos.len()];
                        let request = mttkrp_request(tensor, mode, SERVE_RANK);
                        let (reply, rtt_s) = {
                            let _s = rec.span("bench/serve/request");
                            timed(|| conn.call(&request))
                        };
                        let (reply, error) = match reply {
                            Ok(reply) => {
                                let checked = Json::parse(&reply)
                                    .map_err(|e| e.to_string())
                                    .and_then(|j| check_reply(&j, tensor, mode, SERVE_RANK));
                                (reply, checked.err())
                            }
                            Err(e) => (String::new(), Some(e)),
                        };
                        let dropped = reply.is_empty();
                        out.push(Sample {
                            rtt_s,
                            request,
                            reply,
                            error,
                        });
                        if dropped {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Counts every sample's check in `report`; returns the round-trip times
/// of the successful ones.
pub fn tally(samples: &[Sample], report: &mut Report) -> Vec<f64> {
    let mut rtts = Vec::new();
    for s in samples {
        report.check(s.error.is_none(), || s.error.clone().unwrap_or_default());
        if s.error.is_none() {
            rtts.push(s.rtt_s);
        }
    }
    rtts
}

/// Fetches the server's `metrics` and checks its job counters against
/// `sent`.
pub fn metrics_checked(addr: &str, sent: u64, report: &mut Report) -> Result<Json, String> {
    let metrics = Conn::connect(addr)?.call_json("{\"cmd\":\"metrics\"}")?;
    let checked = check_counters(&metrics, sent);
    report.check(checked.is_ok(), || checked.unwrap_err());
    Ok(metrics)
}

/// `serve-mttkrp`: set-up is starting the server and loading both
/// tensors, repeated before and after the measurement; in between, a
/// warm-up pass over every tensor × mode on each connection and the
/// closed loop for `seconds`.
pub fn run_serve(
    w: &Workload,
    dir: &Path,
    bin: &Path,
    seconds: f64,
    scale: Scale,
    report: &mut Report,
) -> Result<(), String> {
    let setup = || start(bin, w, dir);
    let mut setups = Vec::new();
    let server = repeat_setup(scale, &mut setups, setup)?;

    let warm = closed_loop(
        &server.addr,
        w,
        CONNECTIONS,
        Until::Count(3 * w.inputs.len()),
        &Rec::noop(),
    );
    tally(&warm, report);
    let t0 = Instant::now();
    let mut samples = closed_loop(
        &server.addr,
        w,
        CONNECTIONS,
        Until::Deadline(t0 + Duration::from_secs_f64(seconds)),
        &Rec::noop(),
    );
    // Top up to enough requests that thirty lie beyond the reported p99
    // and the loop spans about half a minute: a shared machine alternates
    // between fast and slow phases of tens of seconds, and a shorter run
    // samples too few of them.
    let min = match scale {
        Scale::Full => MIN_REQUESTS,
        Scale::Smoke => 10,
    };
    while samples.len() < min {
        let more = closed_loop(
            &server.addr,
            w,
            CONNECTIONS,
            Until::Count((min - samples.len()).div_ceil(CONNECTIONS)),
            &Rec::noop(),
        );
        if more.iter().any(|s| s.error.is_some()) || more.is_empty() {
            samples.extend(more);
            break;
        }
        samples.extend(more);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let rtts = tally(&samples, report);
    metrics_checked(&server.addr, (warm.len() + samples.len()) as u64, report)?;

    // The mean, not the median: when the run mixes fast and slow phases
    // of the machine, the median jumps between the two phases' medians as
    // the slow share crosses one half, while the mean moves in proportion.
    report.set("op_ms", mean(&rtts) * 1e3);
    report.set("op_tail_ms", tail(&rtts) * 1e3);
    report.set("ops_per_s", rtts.len() as f64 / elapsed);
    let rss = peak_rss_bytes(server.pid()).ok_or("server peak RSS unavailable")?;
    report.set("peak_rss_mb", rss as f64 / 1e6);
    drop(server);
    repeat_setup(scale, &mut setups, setup)?;
    report.set("setup_s", median(&setups));
    Ok(())
}

/// The `tenblock` binary next to this executable (both are built into
/// the same target directory).
pub fn default_server_bin() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.with_file_name("tenblock")
}
