//! mmtag's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <campaign|serve-hit|serve-miss> --seed <n> --seconds <s>
//!           --trace <0|1> --mmtag <path to the mmtag binary> [--work-dir <dir>]
//!           [--connections <n>]
//! ```
//!
//! `perfbench/run.py` builds both binaries from source and runs this one.
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! runs the workload untraced and then traced, prints every per-layer
//! metric and `trace.overhead`, and writes the span file. The last line of
//! standard output is always one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md` for what each metric
//! means on each workload.

mod calib;
mod campaign;
mod host;
mod reqlog;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mmtag_sim::experiment::Table;

use reqlog::Counts;
use stats::Samples;
use trace::Tracer;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("second_p50_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// The per-layer metrics every traced run reports besides one
/// `campaign.run_ms.<scenario>` per registry entry. A layer the workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 21] = [
    ("kernel.phy.ber_ns_per_bit", "ns/bit"),
    ("kernel.channel.outage_ns_per_trial", "ns/trial"),
    ("kernel.mac.city_ns_per_event", "ns/event"),
    ("engine.cpu_util", "share"),
    ("runner.trials_share", "share"),
    ("cache.store_ms", "ms"),
    ("cache.stats_ms", "ms"),
    ("cache.load_us", "us"),
    ("record.to_csv_us", "us"),
    ("serve.handle_hit_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.inline_miss_ms", "ms"),
    ("serve.admission_wait_ms", "ms"),
    ("serve.memory_hits", "count"),
    ("serve.disk_hits", "count"),
    ("serve.sim_runs", "count"),
    ("serve.dedup_joined", "count"),
    ("serve.rejected", "count"),
    ("serve.sim_per_cold_point", "ratio"),
    ("loadgen.lateness_p99_us", "us"),
    ("trace.overhead", "share"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    ServeHit,
    ServeMiss,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "campaign" => Some(Workload::Campaign),
            "serve-hit" => Some(Workload::ServeHit),
            "serve-miss" => Some(Workload::ServeMiss),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::ServeHit => "serve-hit",
            Workload::ServeMiss => "serve-miss",
        }
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub mmtag: PathBuf,
    /// Scratch directory of this run; removed when it ends.
    pub work: PathBuf,
    /// Where the span file goes.
    pub out: PathBuf,
    /// Load-generator threads and connections (serve workloads).
    pub connections: usize,
    /// Thread budget of in-process Runners and engines.
    pub threads: usize,
}

pub struct Metric {
    name: &'static str,
    value: f64,
    samples: usize,
}

/// What one pass of a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed, were refused or returned wrong output.
    pub failed: u64,
    /// Reasons the run as a whole is not valid (wrong resolution path).
    pub invalid: Vec<String>,
    pub metrics: Vec<Metric>,
    pub layers: BTreeMap<String, f64>,
    /// The daemon's resolution counter deltas over the timed window.
    pub counts: Option<Counts>,
}

impl Outcome {
    /// Records quantile `q` of `samples` as an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, samples: &mut Samples, q: f64) {
        match samples.quantile(q) {
            Some(v) => self.value(name, v, samples.len()),
            None => self.invalid.push(format!("{name}: no samples")),
        }
    }

    /// Records an end-to-end metric measured from `samples` samples.
    pub fn value(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Tables as CSV, each after a `# <title>` line: the bytes the output
/// checks compare.
pub fn tables_text(tables: &[Table]) -> String {
    let mut out = String::new();
    for t in tables {
        let _ = writeln!(out, "# {}", t.title());
        out.push_str(&t.to_csv());
    }
    out
}

const USAGE: &str = "usage: perfbench --workload <campaign|serve-hit|serve-miss> --seed <n> \
--seconds <s> --trace <0|1> --mmtag <path> [--work-dir <dir>] [--connections <n>]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        opts.insert(key, value);
    }
    let need = |k: &str| opts.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = need("workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let seed = need("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match need("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let nproc = host::nproc();
    let connections = match opts.get("connections") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|e| format!("--connections: {e}"))?,
        None => nproc,
    };
    if connections == 0 || connections > nproc {
        return Err(format!(
            "--connections {connections}: the load generator drives 1 to nproc = {nproc} \
             threads and connections"
        ));
    }
    let root = PathBuf::from(
        opts.get("work-dir")
            .copied()
            .unwrap_or(".bench_build/perfbench"),
    );
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        mmtag: PathBuf::from(need("mmtag")?),
        work: root.join(format!(
            "{}-s{seed}-p{}",
            workload.name(),
            std::process::id()
        )),
        out: root,
        connections,
        threads: nproc,
    })
}

fn run_workload(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("mkdir {}: {e}", cfg.work.display()))?;
    let out = match cfg.workload {
        Workload::Campaign => campaign::run(cfg, tracer),
        Workload::ServeHit => serve::serve_hit(cfg, tracer),
        Workload::ServeMiss => serve::serve_miss(cfg, tracer),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    mmtag_sim::json::escape_into(&mut out, s);
    out.push('"');
    out
}

/// The host and run stamp printed with every result.
fn stamp(cfg: &Config) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"cpu_model\":{},\"rustc\":{},\"git\":{},\"connections\":{},\"threads\":{},\
         \"cores_used\":1}}",
        json_str(cfg.workload.name()),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(&host::rustc_version()),
        json_str(&host::git_revision()),
        cfg.connections,
        cfg.threads,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = &args[..] {
        if flag == campaign::SETUP_PROBE {
            let threads = threads.parse().unwrap_or(1);
            println!("{}", campaign::setup_probe(threads));
            return ExitCode::SUCCESS;
        }
    }
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cfg: &Config) -> Result<(), String> {
    let stamp = stamp(cfg);
    host::pin_to_one_core()?;
    let origin = Instant::now();
    let mut outcomes = Vec::new();
    let mut tracer = Tracer::new(false, origin);
    outcomes.push(run_workload(cfg, &mut tracer)?);
    if cfg.trace {
        tracer = Tracer::new(true, origin);
        outcomes.push(run_workload(cfg, &mut tracer)?);
    }

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    for reason in outcomes.iter().flat_map(|o| &o.invalid) {
        eprintln!("perfbench: invalid run: {reason}");
    }
    let correct = failed == 0 && outcomes.iter().all(|o| o.invalid.is_empty());

    let mut rows: Vec<(String, f64, &str, usize)> = Vec::new();
    if cfg.trace {
        let (untraced, traced) = (&outcomes[0], &outcomes[1]);
        let mut layers = traced.layers.clone();
        if let Some(c) = traced.counts {
            layers.insert("serve.memory_hits".into(), c.memory_hits as f64);
            layers.insert("serve.disk_hits".into(), c.disk_hits as f64);
            layers.insert("serve.sim_runs".into(), c.sim_runs as f64);
            layers.insert("serve.dedup_joined".into(), c.dedup_joined as f64);
            layers.insert("serve.rejected".into(), c.rejected as f64);
        }
        if let (Some(a), Some(b)) = (untraced.get("p50_ms"), traced.get("p50_ms")) {
            layers.insert("trace.overhead".into(), b / a - 1.0);
        }
        for (name, unit) in per_layer_metrics() {
            let value = layers.remove(&name).unwrap_or(0.0);
            rows.push((name, value, unit, 1));
        }
        if let Some(extra) = layers.keys().next() {
            return Err(format!("per-layer metric '{extra}' is not declared"));
        }
        let path = cfg.out.join(format!("spans-{}.json", cfg.workload.name()));
        std::fs::write(&path, trace::to_json(&stamp, tracer.spans()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("span file: {}", path.display());
    } else {
        let o = &outcomes[0];
        for (name, unit) in END_TO_END {
            if name == "ok_share" {
                let ok = (attempted - failed) as f64 / attempted.max(1) as f64;
                rows.push((name.to_string(), ok, unit, attempted as usize));
                continue;
            }
            let m = o
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("workload measured no {name}"))?;
            rows.push((name.to_string(), m.value, unit, m.samples));
        }
    }

    println!("stamp {stamp}");
    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, value, unit, n)) in rows.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value})"));
        }
        println!("{name:36} {value:>16.6} {unit:8} n={n}");
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Every per-layer metric name with its unit, in report order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let reg = mmtag_bench::scenarios::registry();
    reg.names()
        .iter()
        .map(|n| (format!("campaign.run_ms.{n}"), "ms"))
        .chain(PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmtag_sim::json::{parse_json, Json};

    /// BENCHMARK.json at the repository root declares exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = parse_json(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layers);
        let workloads: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["campaign", "serve-hit", "serve-miss"]);
        for w in workloads {
            assert!(Workload::parse(w).is_some());
        }
    }

    #[test]
    fn load_generator_never_exceeds_nproc() {
        let args = |extra: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = [
                "--workload",
                "serve-hit",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--mmtag",
                "mmtag",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        assert_eq!(parse_args(&args(&[])).unwrap().connections, host::nproc());
        let too_many = (host::nproc() + 1).to_string();
        assert!(parse_args(&args(&["--connections", &too_many])).is_err());
        assert!(parse_args(&args(&["--connections", "0"])).is_err());
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
    }
}
