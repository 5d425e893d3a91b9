//! The `serve-hit` and `serve-miss` workloads: a spawned `mmtag serve`
//! daemon driven over Unix-socket connections through `serve::Client`.
//!
//! Every response is hashed and checked against an in-process
//! 0-executor `Engine` replaying the same request log after the timed
//! window, and the daemon's `status` counters are read at the window's
//! edges only (a `status` call rescans the disk cache) and compared with
//! what the log must produce.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use mmtag_bench::scenarios::registry;
use mmtag_rf::obs;
use mmtag_sim::cache::RunCache;
use mmtag_sim::json::{parse_json, Json};
use mmtag_sim::scenario::{RunRecord, Runner};
use mmtag_sim::serve::{Client, Engine, EngineConfig};

use crate::calib::Clock;
use crate::host;
use crate::reqlog::{self, Counts, HitLog, MissKind, MissLog};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Config, Outcome};

/// Set-ups per run; `setup_s` is their median.
const HIT_SETUPS: usize = 5;
const MISS_SETUPS: usize = 41;
/// Arrival rate of the fixed-rate phase of serve-hit, requests/s over all
/// connections. On a 2-vCPU virtual machine a sender that sleeps longer
/// between requests than at this rate pays the wake-up of an idle vCPU,
/// which then dominates the latency it reports.
const HIT_RATE: f64 = 20_000.0;
/// Share of `--seconds` spent at the fixed rate; the closed-loop capacity
/// phase gets the rest.
const FIXED_SHARE: f64 = 0.6;
/// Sender lateness, µs at p99, above which a serve-hit run is invalid: a
/// sender that late has fallen 50 requests per connection behind the fixed
/// rate. On the 2-vCPU development VM valid runs read 30–500 µs; the
/// margin keeps brief host stalls from failing a run.
const LATENESS_LIMIT_US: f64 = 5000.0;
/// Cold specs the traced run also runs in-process, for the kernel and
/// RunCache probes.
const PROBES: usize = 8;

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// A spawned `mmtag serve`; killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and returns once its socket accepts.
    pub fn spawn(mmtag: &Path, sock: &Path, cache: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(sock);
        let child = Command::new(mmtag)
            .arg("serve")
            .arg("--socket")
            .arg(sock)
            .env("MMTAG_CACHE_DIR", cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mmtag.display()))?;
        let mut daemon = Daemon {
            child,
            sock: sock.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Client::connect_unix(sock).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited at start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon socket did not accept within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(daemon)
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_unix(&self.sock).map_err(|e| format!("connect: {e}"))
    }

    /// The resolution counters of `status`.
    pub fn counts(&self) -> Result<Counts, String> {
        let line = self
            .connect()?
            .roundtrip("{\"id\":0,\"op\":\"status\"}")
            .map_err(|e| format!("status: {e}"))?;
        let j = parse_json(&line).map_err(|e| format!("status reply: {e}"))?;
        let get = |k: &str| {
            j.get(k)
                .and_then(Json::as_num)
                .map(|v| v as u64)
                .ok_or_else(|| format!("status reply lacks {k}: {line}"))
        };
        Ok(Counts {
            sim_runs: get("sim_runs")?,
            disk_hits: get("disk_hits")?,
            memory_hits: get("memory_hits")?,
            dedup_joined: get("dedup_joined")?,
            rejected: get("rejected")?,
        })
    }

    pub fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self
            .connect()
            .and_then(|mut c| {
                c.roundtrip("{\"id\":0,\"op\":\"shutdown\"}")
                    .map_err(|e| e.to_string())
            })
            .map_err(|e| format!("shutdown: {e}"))?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => return Err("daemon did not exit within 30 s of shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn delta(before: Counts, after: Counts) -> Counts {
    Counts {
        sim_runs: after.sim_runs.saturating_sub(before.sim_runs),
        disk_hits: after.disk_hits.saturating_sub(before.disk_hits),
        memory_hits: after.memory_hits.saturating_sub(before.memory_hits),
        dedup_joined: after.dedup_joined.saturating_sub(before.dedup_joined),
        rejected: after.rejected.saturating_sub(before.rejected),
    }
}

/// Checks that the counters moved exactly as the log says they must. A
/// daemon that had seen the log before resolves it from memory instead,
/// and its run is refused.
pub fn classify(expected: Counts, before: Counts, after: Counts) -> Result<Counts, String> {
    let got = delta(before, after);
    if got == expected {
        Ok(got)
    } else {
        Err(format!(
            "status deltas {got:?} differ from what the request log expects, {expected:?}"
        ))
    }
}

/// FNV-1a of a response, the form in which every reply is kept for the
/// replay check.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The reply of an in-process engine, in the shape `Client` returns it.
fn engine_reply(engine: &Engine, line: &str, out: &mut String) {
    out.clear();
    engine.handle_line(line, out);
    while out.ends_with('\n') {
        out.pop();
    }
}

fn reference_engine(threads: usize) -> Engine {
    Engine::new(
        Arc::new(registry()),
        None,
        EngineConfig {
            executors: 0,
            job_threads: threads,
            ..EngineConfig::default()
        },
    )
}

fn ok_reply(reply: &str, id: u64) -> bool {
    reply.starts_with(&format!("{{\"id\":{id},\"ok\":true"))
}

fn id_of(line: &str) -> u64 {
    line.strip_prefix("{\"id\":")
        .and_then(|r| r.split(',').next())
        .and_then(|v| v.parse().ok())
        .expect("generated lines start with their id")
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A fresh, empty directory.
fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("mkdir {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

// ---------------------------------------------------------------------------
// serve-hit
// ---------------------------------------------------------------------------

/// One timed hit request.
struct HitRec {
    index: u64,
    hash: u64,
    ok: bool,
    is_run: bool,
    /// From the due time to the reply.
    latency: Duration,
    /// From the due time to the send.
    lateness: Duration,
    /// From the send to the reply.
    roundtrip: Duration,
}

/// Asks the kernel to wake this thread within a microsecond of a sleep's
/// end instead of the default 50 µs timer slack, so the open-loop sender
/// keeps its schedule without spinning. Spinning would take the core from
/// the daemon.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

/// Sleeps until `due`.
fn pace_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Where the load-generator threads meet between segments of a timed
/// window. The last thread to arrive ends the segment: it notes its wall
/// time and decides whether another segment starts and when.
struct Gate {
    barrier: Barrier,
    state: Mutex<GateState>,
}

struct GateState {
    /// Segments to run at most.
    max: usize,
    /// No segment starts after this.
    deadline: Option<Instant>,
    /// How long after the meeting the next segment starts.
    lead: Duration,
    open: Option<Instant>,
    next: Option<Instant>,
    /// Wall seconds of every segment run so far.
    walls: Vec<f64>,
}

impl Gate {
    fn new(conns: usize, max: usize, deadline: Option<Instant>, lead: Duration) -> Gate {
        Gate {
            barrier: Barrier::new(conns),
            state: Mutex::new(GateState {
                max,
                deadline,
                lead,
                open: None,
                next: None,
                walls: Vec::new(),
            }),
        }
    }

    /// Every connection calls this before each segment and once after its
    /// last. Returns the start of the next segment, or `None` when the
    /// window is over.
    fn between(&self) -> Option<Instant> {
        if self.barrier.wait().is_leader() {
            let mut st = self.state.lock().expect("gate lock");
            let now = Instant::now();
            if let Some(open) = st.open.take() {
                st.walls.push((now - open).as_secs_f64());
            }
            let more = st.walls.len() < st.max && st.deadline.is_none_or(|d| now < d);
            st.next = more.then(|| now + st.lead);
            st.open = st.next;
        }
        self.barrier.wait();
        self.state.lock().expect("gate lock").next
    }

    /// Wall seconds of every segment.
    fn walls(self) -> Vec<f64> {
        self.state.into_inner().expect("gate lock").walls
    }
}

/// Open loop in one-second segments: request `j` of a segment is due `j /
/// rate` seconds after the segment starts; each connection sends its share
/// in order, one request in flight at a time, and every latency counts
/// from the due time. Each segment starts on a fresh schedule once every
/// connection is done with the last.
fn open_loop(
    daemon: &Daemon,
    log: &HitLog,
    conns: usize,
    segments: usize,
    tracer: &mut Tracer,
) -> Result<Vec<HitRec>, String> {
    let mut clients = (0..conns)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let per_segment = HIT_RATE as u64;
    let gate = Gate::new(conns, segments, None, Duration::from_millis(1));
    let per_conn: Vec<(Vec<HitRec>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut tr = tracer.fork();
                let gate = &gate;
                s.spawn(move || {
                    tight_timer_slack();
                    let mut recs = Vec::new();
                    let mut reply = String::new();
                    let mut first = 0;
                    while let Some(start) = gate.between() {
                        for j in (c as u64..per_segment).step_by(conns) {
                            let index = first + j;
                            let (line, is_run) = log.line(index);
                            let due = start + Duration::from_secs_f64(j as f64 / HIT_RATE);
                            pace_until(due);
                            let span = tr.enter_at("loadgen.request", index, due);
                            let sent = Instant::now();
                            reply.clear();
                            let ok = client.roundtrip_into(line, &mut reply).is_ok();
                            let done = Instant::now();
                            tr.record("client.roundtrip", index, sent, done);
                            tr.exit_at(span, done);
                            recs.push(HitRec {
                                index,
                                hash: fnv(reply.as_bytes()),
                                ok: ok && ok_reply(&reply, id_of(line)),
                                is_run,
                                latency: done - due,
                                lateness: sent - due,
                                roundtrip: done - sent,
                            });
                        }
                        first += per_segment;
                    }
                    (recs, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut recs = Vec::new();
    for (r, tr) in per_conn {
        recs.extend(r);
        tracer.merge(tr);
    }
    Ok(recs)
}

/// A reply kept for the replay check.
struct Reply {
    index: u64,
    hash: u64,
    ok: bool,
}

/// Closed loop over the working set until `deadline`: every connection
/// sends its next request when the reply to the previous one is in.
/// Connection `c` sends requests `first + c`, `first + c + conns`, … The
/// completion rate is the highest arrival rate the daemon can sustain with
/// no backlog.
fn closed_hit_loop(
    daemon: &Daemon,
    log: &HitLog,
    conns: usize,
    first: u64,
    deadline: Instant,
) -> Result<Vec<Reply>, String> {
    let mut clients = (0..conns)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let per_conn: Vec<Vec<Reply>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut replies = Vec::new();
                    let mut reply = String::new();
                    let mut index = first + c as u64;
                    while Instant::now() < deadline {
                        let (line, _) = log.line(index);
                        reply.clear();
                        let ok = client.roundtrip_into(line, &mut reply).is_ok();
                        replies.push(Reply {
                            index,
                            hash: fnv(reply.as_bytes()),
                            ok: ok && ok_reply(&reply, id_of(line)),
                        });
                        index += conns as u64;
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    Ok(per_conn.into_iter().flatten().collect())
}

pub fn serve_hit(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let conns = cfg.connections;
    let log = HitLog::new(cfg.seed);
    let set = log.set_len();
    let mut out = Outcome::default();
    let mut clock = Clock::start();

    // Set-up, several times: spawn on a fresh cache, wait for the socket,
    // warm the memory store with every working-set spec.
    let mut setup = Samples::default();
    let mut warm_hashes: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut daemon = None;
    for k in 0..HIT_SETUPS {
        let dir = fresh_dir(&cfg.work.join(format!("hit-{k}")))?;
        let span = tracer.enter("daemon.setup", k as u64);
        clock.lap();
        let t0 = Instant::now();
        let d = Daemon::spawn(&cfg.mmtag, &dir.join("d.sock"), &dir.join("cache"))?;
        let mut clients = (0..conns)
            .map(|_| d.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let hashes: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let log = &log;
                    s.spawn(move || {
                        let mut reply = String::new();
                        (c as u64..set)
                            .step_by(conns)
                            .map(|w| {
                                let line = log.warm_line(w);
                                reply.clear();
                                let ok = client.roundtrip_into(&line, &mut reply).is_ok()
                                    && ok_reply(&reply, id_of(&line));
                                (w, if ok { fnv(reply.as_bytes()) } else { 0 })
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("warm-up thread panicked"))
                .collect()
        });
        let took = t0.elapsed().as_secs_f64();
        setup.push(took / clock.lap());
        tracer.exit(span);
        let warm = Counts {
            sim_runs: set,
            ..Counts::default()
        };
        if let Err(e) = classify(warm, Counts::default(), d.counts()?) {
            out.invalid.push(format!("warm-up: {e}"));
        }
        out.attempted += hashes.len() as u64;
        warm_hashes.push(hashes);
        if k + 1 < HIT_SETUPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");

    // Timed: the fixed rate in one-second segments, then the closed loop.
    // Neither is calibrated: the serve request path is system calls and
    // thread wake-ups, whose cost did not follow the calibration bursts'
    // (calibrated, runs spread twice as far as raw ones).
    let before = daemon.counts()?;
    let fixed_segments = (cfg.seconds * FIXED_SHARE).ceil().max(1.0) as usize;
    let span = tracer.enter("hit.fixed_rate", 0);
    let fixed = open_loop(&daemon, &log, conns, fixed_segments, tracer)?;
    tracer.exit(span);

    // Capacity: requests per second, sending back to back on the one core
    // daemon and load generator share.
    let span = tracer.enter("hit.closed_loop", 0);
    let first = fixed_segments as u64 * HIT_RATE as u64;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds * (1.0 - FIXED_SHARE));
    let closed = closed_hit_loop(&daemon, &log, conns, first, deadline)?;
    let capacity = closed.len() as f64 / t0.elapsed().as_secs_f64();
    tracer.exit(span);
    let after = daemon.counts()?;
    let rss = daemon.peak_rss_mb();
    daemon.shutdown()?;

    let timed = fixed.len() as u64 + closed.len() as u64;
    out.attempted += timed;
    let expected = Counts {
        memory_hits: timed,
        ..Counts::default()
    };
    out.counts = Some(delta(before, after));
    if let Err(e) = classify(expected, before, after) {
        out.invalid.push(e);
    }

    // Replay the log in-process and compare every reply.
    let engine = reference_engine(cfg.threads);
    let mut reply = String::new();
    let mut warm_ref = vec![0u64; set as usize];
    for (w, slot) in warm_ref.iter_mut().enumerate() {
        engine_reply(&engine, &log.warm_line(w as u64), &mut reply);
        *slot = fnv(reply.as_bytes());
    }
    for hashes in &warm_hashes {
        out.failed += hashes
            .iter()
            .filter(|&&(w, h)| warm_ref[w as usize] != h)
            .count() as u64;
    }
    let span = tracer.enter("check.replay", 0);
    let mut handle = Samples::default();
    for r in &fixed {
        let (line, _) = log.line(r.index);
        let t = Instant::now();
        engine_reply(&engine, line, &mut reply);
        handle.push(us(t.elapsed()));
        if !r.ok || fnv(reply.as_bytes()) != r.hash {
            out.failed += 1;
        }
    }
    for r in &closed {
        engine_reply(&engine, log.line(r.index).0, &mut reply);
        if !r.ok || fnv(reply.as_bytes()) != r.hash {
            out.failed += 1;
        }
    }
    tracer.exit(span);

    // Latencies per one-second segment. The medians and the tail are
    // medians over segments, so that a burst of host noise moves one or two
    // segments, not the run.
    let per_segment = HIT_RATE as u64;
    let mut lat = vec![Samples::default(); fixed_segments];
    let mut runs = vec![Samples::default(); fixed_segments];
    let mut late = Samples::default();
    let mut rtt = Samples::default();
    for r in &fixed {
        let seg = (r.index / per_segment) as usize;
        lat[seg].push(ms(r.latency));
        late.push(us(r.lateness));
        rtt.push(us(r.roundtrip));
        if r.is_run {
            runs[seg].push(ms(r.latency));
        }
    }
    let lateness_p99 = late.quantile(0.99).unwrap_or(0.0);
    eprintln!(
        "serve-hit: sender lateness p50 {:.1} µs, p99 {lateness_p99:.1} µs; roundtrip p50 {:.1} µs",
        late.median().unwrap_or(0.0),
        rtt.median().unwrap_or(0.0),
    );
    if lateness_p99 > LATENESS_LIMIT_US {
        out.invalid.push(format!(
            "the open-loop sender ran {lateness_p99:.0} µs late at p99, more than \
             {LATENESS_LIMIT_US} µs: its latencies do not measure the daemon"
        ));
    }
    out.metric("setup_s", &mut setup, 0.5);
    out.metric("p50_ms", &mut quantile_per_segment(&mut lat, 0.5), 0.5);
    out.metric("tail_ms", &mut quantile_per_segment(&mut lat, 0.9), 0.5);
    out.metric(
        "second_p50_ms",
        &mut quantile_per_segment(&mut runs, 0.5),
        0.5,
    );
    out.value("rate_per_s", capacity, closed.len());
    out.value("peak_rss_mb", rss, 1);

    let handle_us = handle.median().unwrap_or(0.0);
    out.layer("serve.handle_hit_us", handle_us);
    out.layer(
        "serve.transport_us",
        rtt.median().unwrap_or(0.0) - handle_us,
    );
    out.layer("loadgen.lateness_p99_us", lateness_p99);
    Ok(out)
}

/// Quantile `q` of every non-empty segment.
fn quantile_per_segment(segments: &mut [Samples], q: f64) -> Samples {
    let mut out = Samples::default();
    for v in segments.iter_mut().filter_map(|s| s.quantile(q)) {
        out.push(v);
    }
    out
}

// ---------------------------------------------------------------------------
// serve-miss
// ---------------------------------------------------------------------------

struct MissRec {
    kind: MissKind,
    epoch: usize,
    /// The host's slowdown around this request (see `calib`).
    slowdown: f64,
    hash: u64,
    ok: bool,
    latency: Duration,
    points: u64,
}

/// Writes every pre-filled spec's entry straight through `RunCache::store`
/// (input generation: not part of set-up).
fn prefill(cache: &RunCache, log: &MissLog, threads: usize) -> Result<(), String> {
    let reg = registry();
    let base = reg.get(reqlog::SCENARIO).expect("scenario is registered");
    let spec = base.spec().clone().minimized(
        reqlog::PREFILL_POINTS as usize,
        reqlog::PREFILL_TRIALS as usize,
    );
    let chunk = log.prefill.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = log
            .prefill
            .chunks(chunk)
            .map(|seeds| {
                let (spec, base) = (&spec, &base);
                s.spawn(move || -> Result<(), String> {
                    let runner = Runner::with_threads(1);
                    for &seed in seeds {
                        let sc = base.with_spec(spec.clone().with_seed(seed));
                        let rec = runner.run(&*sc);
                        cache
                            .store(sc.spec(), &rec.tables)
                            .map_err(|e| format!("prefill store: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("prefill thread panicked"))
    })?;
    obs::drain();
    Ok(())
}

/// Closed loop: each connection sends its next request when the previous
/// reply is in. Epochs start together on every connection, so the shared
/// request of an epoch is in flight on all of them at once; the run stops
/// at the first epoch boundary after the deadline. After each reply the
/// connection's thread runs a calibration burst, timed in its own CPU
/// time, so every request has a burst right before and right after it.
/// Returns every connection's records and every epoch's wall seconds.
fn closed_loop(
    daemon: &Daemon,
    log: &MissLog,
    deadline: Instant,
    tracer: &mut Tracer,
) -> Result<(Vec<Vec<MissRec>>, Vec<f64>), String> {
    let conns = log.requests.len();
    let epochs = log.requests[0].len();
    let mut clients = (0..conns)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let gate = Gate::new(conns, epochs, Some(deadline), Duration::ZERO);
    let per_conn: Vec<(Vec<MissRec>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&log.requests)
            .map(|(client, reqs)| {
                let gate = &gate;
                let mut tr = tracer.fork();
                s.spawn(move || {
                    let mut recs = Vec::new();
                    let mut reply = String::new();
                    let mut clock = Clock::start();
                    let mut epoch = 0;
                    while gate.between().is_some() {
                        for req in &reqs[epoch] {
                            let id = id_of(&req.line);
                            let span = tr.enter("loadgen.request", id);
                            reply.clear();
                            let t = Instant::now();
                            let (ok, points) = if req.kind == MissKind::Sweep {
                                match client.sweep_into(&req.line, &mut reply) {
                                    Ok(n) => (
                                        n as u64 == reqlog::SWEEP_POINTS
                                            && !reply.contains("\"ok\":false"),
                                        n as u64,
                                    ),
                                    Err(_) => (false, 0),
                                }
                            } else {
                                let ok = client.roundtrip_into(&req.line, &mut reply).is_ok();
                                (ok && ok_reply(&reply, id), 1)
                            };
                            let latency = t.elapsed();
                            tr.exit(span);
                            recs.push(MissRec {
                                kind: req.kind,
                                epoch,
                                slowdown: clock.lap(),
                                hash: fnv(reply.as_bytes()),
                                ok,
                                latency,
                                points,
                            });
                        }
                        epoch += 1;
                    }
                    (recs, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut recs = Vec::with_capacity(conns);
    for (r, tr) in per_conn {
        recs.push(r);
        tracer.merge(tr);
    }
    Ok((recs, gate.walls()))
}

pub fn serve_miss(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let conns = cfg.connections;
    // More epochs than any run gets through; the log stops early only
    // where the pre-filled specs would run out.
    let log = MissLog::new(cfg.seed, conns, (cfg.seconds * 100.0).ceil() as usize);
    let mut out = Outcome::default();

    let dir = fresh_dir(&cfg.work.join("miss"))?;
    let cache_dir = dir.join("cache");
    let cache = RunCache::at(&cache_dir);
    let span = tracer.enter("input.prefill", 0);
    prefill(&cache, &log, cfg.threads)?;
    tracer.exit(span);

    // Set-up, several times: spawn on the pre-filled cache until the
    // socket accepts.
    let mut clock = Clock::start();
    let mut setup = Samples::default();
    let mut daemon = None;
    for k in 0..MISS_SETUPS {
        let span = tracer.enter("daemon.setup", k as u64);
        clock.lap();
        let t0 = Instant::now();
        let d = Daemon::spawn(&cfg.mmtag, &dir.join("d.sock"), &cache_dir)?;
        let took = t0.elapsed().as_secs_f64();
        setup.push(took / clock.lap());
        tracer.exit(span);
        if k + 1 < MISS_SETUPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");

    let before = daemon.counts()?;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let span = tracer.enter("miss.closed_loop", 0);
    let (recs, walls) = closed_loop(&daemon, &log, deadline, tracer)?;
    tracer.exit(span);
    let after = daemon.counts()?;
    let rss = daemon.peak_rss_mb();
    daemon.shutdown()?;
    let epochs = walls.len();
    if epochs == 0 {
        return Err("serve-miss completed no epoch".into());
    }
    let x = log.expected(epochs);
    let got = delta(before, after);
    out.counts = Some(got);
    if let Err(e) = classify(x, before, after) {
        out.invalid.push(e);
    }
    // Simulations the daemon ran per simulation the log asks for: above 1
    // when it simulated a spec twice, below when it served one it should
    // have simulated.
    out.layer(
        "serve.sim_per_cold_point",
        got.sim_runs as f64 / x.sim_runs.max(1) as f64,
    );

    // Replay the log in-process and compare every reply.
    let engine = reference_engine(cfg.threads);
    let mut reply = String::new();
    let mut inline = Samples::default();
    for (reqs, recs) in log.requests.iter().zip(&recs) {
        for (req, rec) in reqs[..epochs].iter().flatten().zip(recs) {
            let span = tracer.enter("engine.handle_line", id_of(&req.line));
            let t = Instant::now();
            engine_reply(&engine, &req.line, &mut reply);
            let took = t.elapsed();
            tracer.exit(span);
            if req.kind == MissKind::Cold {
                inline.push(ms(took));
            }
            if !rec.ok || fnv(reply.as_bytes()) != rec.hash {
                out.failed += 1;
            }
        }
    }

    // Latencies, each calibrated by the host's speed around its request;
    // each epoch's wall, by the host's speed over its requests, weighted by
    // their latencies.
    let mut miss = Samples::default();
    let mut sweep = Samples::default();
    let mut points = 0;
    let mut weighted = vec![(0.0, 0.0); epochs];
    for r in recs.iter().flatten() {
        out.attempted += 1;
        points += r.points;
        let latency = ms(r.latency) / r.slowdown;
        let (slow_ms, raw_ms) = &mut weighted[r.epoch];
        *slow_ms += ms(r.latency) * r.slowdown;
        *raw_ms += ms(r.latency);
        match r.kind {
            MissKind::Cold => miss.push(latency),
            MissKind::Sweep => sweep.push(latency),
            MissKind::Pair | MissKind::Disk => {}
        }
    }
    let wall: f64 = walls
        .iter()
        .zip(&weighted)
        .map(|(w, (slow_ms, raw_ms))| w * raw_ms / slow_ms)
        .sum();
    out.metric("setup_s", &mut setup, 0.5);
    out.metric("p50_ms", &mut miss, 0.5);
    out.metric("tail_ms", &mut miss, 0.9);
    out.metric("second_p50_ms", &mut sweep, 0.5);
    out.value("rate_per_s", points as f64 / wall, points as usize);
    out.value("peak_rss_mb", rss, 1);

    let inline_ms = inline.median().unwrap_or(0.0);
    out.layer("serve.inline_miss_ms", inline_ms);
    out.layer(
        "serve.admission_wait_ms",
        miss.median().unwrap_or(0.0) - inline_ms,
    );

    if tracer.is_on() {
        probe_layers(cfg, &log, &cache, &mut out, tracer)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// The traced run's in-process probes at the workload's own inputs: the
/// first cold specs through `Runner` at `Level::Trace` (BER kernel and
/// Runner stage shares), then `RunCache` store/stats/load on the daemon's
/// cache, at its size after the run.
fn probe_layers(
    cfg: &Config,
    log: &MissLog,
    cache: &RunCache,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let reg = registry();
    let base = reg.get(reqlog::SCENARIO).expect("scenario is registered");
    let spec = base
        .spec()
        .clone()
        .minimized(reqlog::POINTS as usize, reqlog::TRIALS as usize);
    let cold: Vec<u64> = log
        .requests
        .iter()
        .flat_map(|c| c.iter().flatten())
        .filter(|r| r.kind == MissKind::Cold)
        .map(|r| r.seed)
        .take(PROBES)
        .collect();
    let runner = Runner::with_threads(cfg.threads);
    let mut records: Vec<(Box<dyn mmtag_sim::scenario::Scenario>, RunRecord, f64)> = Vec::new();
    obs::set_level(obs::Level::Trace);
    for (i, &seed) in cold.iter().enumerate() {
        let sc = base.with_spec(spec.clone().with_seed(seed));
        let span = tracer.enter("runner.run", i as u64);
        let t = Instant::now();
        let rec = runner.run(&*sc);
        let wall_us = us(t.elapsed());
        tracer.exit(span);
        obs::drain();
        records.push((sc, rec, wall_us));
    }
    obs::set_level(obs::Level::Off);
    let kernels = crate::campaign::KernelTotals::from_records(records.iter().map(|r| (&r.1, r.2)));
    kernels.report(out);

    let mut store = Samples::default();
    let mut load = Samples::default();
    let mut stats = Samples::default();
    for (i, (sc, rec, _)) in records.iter().enumerate() {
        let span = tracer.enter("cache.store", i as u64);
        let t = Instant::now();
        cache
            .store(sc.spec(), &rec.tables)
            .map_err(|e| format!("probe store: {e}"))?;
        store.push(ms(t.elapsed()));
        tracer.exit(span);
        let span = tracer.enter("cache.stats", i as u64);
        let t = Instant::now();
        std::hint::black_box(cache.stats());
        stats.push(ms(t.elapsed()));
        tracer.exit(span);
        let span = tracer.enter("cache.load", i as u64);
        let t = Instant::now();
        let hit = cache.load(sc.spec());
        load.push(us(t.elapsed()));
        tracer.exit(span);
        if hit.as_deref().map(crate::tables_text) != Some(crate::tables_text(&rec.tables)) {
            out.failed += 1;
        }
        out.attempted += 1;
    }
    out.layer("cache.store_ms", store.median().unwrap_or(0.0));
    out.layer("cache.stats_ms", stats.median().unwrap_or(0.0));
    out.layer("cache.load_us", load.median().unwrap_or(0.0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_sim::serve::StatsSnapshot;

    fn counts_of(s: StatsSnapshot) -> Counts {
        Counts {
            sim_runs: s.sim_runs,
            disk_hits: s.disk_hits,
            memory_hits: s.memory_hits,
            dedup_joined: s.dedup_joined,
            rejected: s.rejected,
        }
    }

    #[test]
    fn classification_rejects_a_reused_daemon() {
        // Two cold requests on a fresh engine simulate twice. Sent again to
        // the same engine, they resolve from memory: the deltas no longer
        // match the log and the run is refused.
        let log = MissLog::new(5, 1, 4);
        let cold: Vec<&str> = log.requests[0]
            .iter()
            .flatten()
            .filter(|r| r.kind == MissKind::Cold)
            .map(|r| r.line.as_str())
            .take(2)
            .collect();
        assert_eq!(cold.len(), 2);
        let expected = Counts {
            sim_runs: 2,
            ..Counts::default()
        };
        let engine = reference_engine(1);
        let mut out = String::new();
        let mut replay = || {
            let before = counts_of(engine.stats());
            for line in &cold {
                engine_reply(&engine, line, &mut out);
                assert!(ok_reply(&out, id_of(line)), "{out}");
            }
            classify(expected, before, counts_of(engine.stats()))
        };
        assert_eq!(replay(), Ok(expected));
        let reused = replay().unwrap_err();
        assert!(reused.contains("memory_hits: 2"), "{reused}");
    }
}
