//! The `campaign` workload: every registered scenario at its published
//! size through `Runner`, the way `scenario run` regenerates every figure.
//!
//! Each pass reseeds every scenario from the workload seed and writes into
//! a `RunCache` in a fresh directory (cold), then runs the same specs again
//! from that cache (replay). Cold tables must equal a 1-thread reference
//! computed before the timed window; replayed tables must equal the cold
//! ones byte for byte.

use std::time::Instant;

use mmtag_bench::scenarios::registry;
use mmtag_rf::obs;
use mmtag_sim::cache::RunCache;
use mmtag_sim::scenario::{RunRecord, Runner, Scenario};

use crate::calib;
use crate::host;
use crate::reqlog;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{tables_text, Config, Outcome};

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
const SETUPS: usize = 41;
/// Replay passes after each cold pass. One takes about 1.5 ms.
const REPLAYS: usize = 10;
/// Cold passes a run makes even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;

/// Kernel span times and work counters summed over traced runs.
#[derive(Default)]
pub struct KernelTotals {
    ber_us: f64,
    ber_bits: u64,
    outage_us: f64,
    outage_trials: u64,
    city_us: f64,
    city_events: u64,
    trials_us: f64,
    run_us: f64,
}

impl KernelTotals {
    /// Sums the program's own spans and counters from the manifests of
    /// runs made at `Level::Trace`, with each run's wall time, µs.
    pub fn from_records<'a>(records: impl Iterator<Item = (&'a RunRecord, f64)>) -> KernelTotals {
        let mut k = KernelTotals::default();
        for (rec, wall_us) in records {
            let m = &rec.manifest.metrics;
            let span = |name: &str| {
                m.spans
                    .iter()
                    .find(|s| s.name == name)
                    .map_or(0.0, |s| s.total_us)
            };
            k.ber_us += span("phy.ber.chunk");
            k.ber_bits += m.counter("phy.ber.bits");
            k.outage_us += span("channel.outage.chunk");
            k.outage_trials += m.counter("channel.outage.trials");
            k.city_us += span("mac.city.run");
            k.city_events += m.counter("mac.city.events");
            k.trials_us += span("runner.trials");
            k.run_us += wall_us;
        }
        k
    }

    pub fn report(&self, out: &mut Outcome) {
        let per = |us: f64, n: u64| if n == 0 { 0.0 } else { us * 1e3 / n as f64 };
        out.layer("kernel.phy.ber_ns_per_bit", per(self.ber_us, self.ber_bits));
        out.layer(
            "kernel.channel.outage_ns_per_trial",
            per(self.outage_us, self.outage_trials),
        );
        out.layer(
            "kernel.mac.city_ns_per_event",
            per(self.city_us, self.city_events),
        );
        if self.run_us > 0.0 {
            out.layer("runner.trials_share", self.trials_us / self.run_us);
        }
    }
}

/// Counts one op per record: failed when its tables differ from
/// `expected`, and the run invalid when `counter` (the cache path the run
/// must have taken) is not 1.
fn check_pass<'a>(
    out: &mut Outcome,
    names: &[String],
    records: impl Iterator<Item = &'a RunRecord>,
    expected: &[String],
    counter: &str,
) {
    for ((rec, want), name) in records.zip(expected).zip(names) {
        out.attempted += 1;
        if tables_text(&rec.tables) != *want {
            out.failed += 1;
        }
        if rec.manifest.metrics.counter(counter) != 1 {
            out.invalid.push(format!("{name}: {counter} was not 1"));
        }
    }
}

/// Argument that makes the benchmark binary time one campaign set-up in
/// its own fresh process, print the seconds and exit.
pub const SETUP_PROBE: &str = "--campaign-setup-probe";

/// One campaign set-up in this process: registry build and the spawn of a
/// `threads`-thread pool. Calibrated seconds.
pub fn setup_probe(threads: usize) -> f64 {
    let mut clock = calib::Clock::start();
    let t0 = Instant::now();
    std::hint::black_box(registry());
    mmtag_rf::pool::ensure_workers(threads.saturating_sub(1));
    let took = t0.elapsed().as_secs_f64();
    took / clock.lap()
}

/// Runs `setup_probe` in a fresh child process of this binary, on this
/// process's core, and returns the seconds it reports.
fn setup_in_child(threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg(SETUP_PROBE)
        .arg(threads.to_string())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .ok()
        .filter(|s| out.status.success() && s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("set-up probe printed '{}'", text.trim()))
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let threads = cfg.threads;

    // Set-up: registry build and pool spawn. The pool is spawned once per
    // process, so each set-up is timed in a fresh child process of this
    // benchmark (see `setup_probe`); its start-up is not part of the time.
    let mut setup = Samples::default();
    for k in 0..SETUPS {
        let span = tracer.enter("campaign.setup", k as u64);
        setup.push(setup_in_child(threads)?);
        tracer.exit(span);
    }
    let reg = registry();
    mmtag_rf::pool::ensure_workers(threads.saturating_sub(1));
    let seeds = reqlog::campaign_seeds(cfg.seed, reg.len());
    let scenarios: Vec<Box<dyn Scenario>> = reg
        .iter()
        .zip(&seeds)
        .map(|(s, &seed)| s.with_spec(s.spec().clone().with_seed(seed)))
        .collect();
    let names: Vec<String> = reg.names().iter().map(|n| n.to_string()).collect();

    // The 1-thread reference, outside the timed window.
    let span = tracer.enter("campaign.reference", 0);
    let serial = Runner::with_threads(1);
    let reference: Vec<String> = scenarios
        .iter()
        .map(|s| {
            let csv = tables_text(&serial.run(&**s).tables);
            obs::drain();
            csv
        })
        .collect();
    tracer.exit(span);

    if tracer.is_on() {
        obs::set_level(obs::Level::Trace);
    }
    let mut cold = Samples::default();
    let mut replay = Samples::default();
    let mut run_ms: Vec<Samples> = vec![Samples::default(); scenarios.len()];
    let mut cold_records: Vec<(RunRecord, f64)> = Vec::new();
    let mut last_pass: Vec<RunRecord> = Vec::new();
    let (mut cold_wall, mut cold_cpu) = (0.0, 0.0);
    // Calibrated cold wall time: each run's wall over the host's slowdown
    // around it.
    let mut cold_wall_cal = 0.0;
    let mut raw_cold = Samples::default();
    let mut run_id = 0u64;
    let mut clock = calib::Clock::start();
    let window = Instant::now();
    let mut pass = 0usize;
    while pass < MIN_PASSES || window.elapsed().as_secs_f64() < cfg.seconds {
        let dir = cfg.work.join(format!("campaign-pass-{pass}"));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Runner::with_threads(threads).with_cache(RunCache::at(&dir));

        // Each pass times the runs only; outputs are checked after it.
        let pass_span = tracer.enter("campaign.cold_pass", pass as u64);
        let cpu0 = host::process_cpu_s();
        let (mut wall, mut wall_cal) = (0.0, 0.0);
        let mut cold_recs = Vec::with_capacity(scenarios.len());
        clock.lap();
        for (i, s) in scenarios.iter().enumerate() {
            let span = tracer.enter("runner.run", run_id);
            let t = Instant::now();
            let rec = runner.run(&**s);
            let took = t.elapsed().as_secs_f64();
            tracer.exit(span);
            let slow = clock.lap();
            run_id += 1;
            wall += took;
            wall_cal += took / slow;
            run_ms[i].push(took * 1e3 / slow);
            cold_recs.push((rec, took * 1e6));
        }
        cold_cpu += host::process_cpu_s() - cpu0;
        cold_wall += wall;
        cold_wall_cal += wall_cal;
        raw_cold.push(wall * 1e3);
        cold.push(wall_cal * 1e3);
        tracer.exit(pass_span);
        obs::drain();
        let cold_csv: Vec<String> = cold_recs
            .iter()
            .map(|(r, _)| tables_text(&r.tables))
            .collect();
        check_pass(
            &mut out,
            &names,
            cold_recs.iter().map(|(r, _)| r),
            &reference,
            "runner.cache.miss",
        );

        for r in 0..REPLAYS {
            let pass_span = tracer.enter("campaign.replay_pass", (pass * REPLAYS + r) as u64);
            clock.lap();
            let t0 = Instant::now();
            let mut recs = Vec::with_capacity(scenarios.len());
            for s in &scenarios {
                let span = tracer.enter("runner.run", run_id);
                recs.push(runner.run(&**s));
                tracer.exit(span);
                run_id += 1;
            }
            let took = t0.elapsed().as_secs_f64();
            replay.push(took * 1e3 / clock.lap());
            tracer.exit(pass_span);
            check_pass(&mut out, &names, recs.iter(), &cold_csv, "runner.cache.hit");
        }

        if tracer.is_on() {
            cold_records.extend(cold_recs.iter().cloned());
        }
        last_pass = cold_recs.into_iter().map(|(r, _)| r).collect();
        obs::drain();
        let _ = std::fs::remove_dir_all(&dir);
        pass += 1;
    }
    obs::set_level(obs::Level::Off);

    out.metric("setup_s", &mut setup, 0.5);
    out.metric("p50_ms", &mut cold, 0.5);
    out.metric("tail_ms", &mut cold, 0.9);
    out.metric("second_p50_ms", &mut replay, 0.5);
    let cold_runs = cold.len() * scenarios.len();
    out.value("rate_per_s", cold_runs as f64 / cold_wall_cal, cold_runs);
    eprintln!(
        "campaign: raw cold pass p50 {:.1} ms, calibrated {:.1} ms",
        raw_cold.median().unwrap_or(0.0),
        cold.median().unwrap_or(0.0),
    );
    out.value("peak_rss_mb", host::peak_rss_mb("self").unwrap_or(0.0), 1);

    for (name, samples) in names.iter().zip(&mut run_ms) {
        out.layer(
            format!("campaign.run_ms.{name}"),
            samples.median().unwrap_or(0.0),
        );
    }
    // The run has one core (see `host::pin_to_one_core`).
    out.layer("engine.cpu_util", cold_cpu / cold_wall);
    if tracer.is_on() {
        KernelTotals::from_records(cold_records.iter().map(|(r, w)| (r, *w))).report(&mut out);
        probe_cache(cfg, &scenarios, &last_pass, &mut out, tracer)?;
    }
    Ok(out)
}

/// RunCache and RunRecord costs on the campaign's own specs, at the
/// campaign's cache size (one pass: one entry per scenario).
fn probe_cache(
    cfg: &Config,
    scenarios: &[Box<dyn Scenario>],
    records: &[RunRecord],
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let dir = cfg.work.join("campaign-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::at(&dir);
    let (mut store, mut stats, mut load, mut csv) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    for (i, (s, rec)) in scenarios.iter().zip(records).enumerate() {
        let id = i as u64;
        let span = tracer.enter("cache.store", id);
        let t = Instant::now();
        cache
            .store(s.spec(), &rec.tables)
            .map_err(|e| format!("probe store: {e}"))?;
        store.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.exit(span);
        let span = tracer.enter("cache.stats", id);
        let t = Instant::now();
        std::hint::black_box(cache.stats());
        stats.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.exit(span);
    }
    for (i, (s, rec)) in scenarios.iter().zip(records).enumerate() {
        let id = i as u64;
        let span = tracer.enter("cache.load", id);
        let t = Instant::now();
        let hit = cache.load(s.spec());
        load.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.exit(span);
        out.attempted += 1;
        if hit.as_deref().map(tables_text) != Some(tables_text(&rec.tables)) {
            out.failed += 1;
        }
        let span = tracer.enter("record.to_csv", id);
        let t = Instant::now();
        std::hint::black_box(rec.to_csv());
        csv.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.exit(span);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.layer("cache.store_ms", store.median().unwrap_or(0.0));
    out.layer("cache.stats_ms", stats.median().unwrap_or(0.0));
    out.layer("cache.load_us", load.median().unwrap_or(0.0));
    out.layer("record.to_csv_us", csv.median().unwrap_or(0.0));
    Ok(())
}
