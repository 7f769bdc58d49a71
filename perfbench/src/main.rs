//! # mrpa-perfbench — the repository's end-to-end benchmark
//!
//! Drives the MRPA-QL server (`mrpa_server::serve` with
//! `ServerConfig::default()`) over TCP with one of three workloads and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the per-layer
//! breakdown. Every answer is checked; a wrong answer, refusal or timeout
//! makes the run incorrect and the exit code 1.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp_1m --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads, metrics and the findings on the seed are described in
//! `perfbench/BASELINE.md`; `BENCHMARK.json` at the repository root lists
//! them for automated runs.

mod layers;
mod load;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mrpa_engine::StoreStats;
use mrpa_server::json::Value;

use layers::{Layers, OP_KINDS};
use load::{ReaderLog, WriterLog};
use stats::{tail_percentile, valid_name, valid_unit, Outcomes, Series};
use workload::{Kind, SetupTimes, Spec, STRATEGIES};

/// A run that has not finished by now is abandoned with exit code 3.
const WATCHDOG: Duration = Duration::from_secs(170);

/// The end-to-end metrics, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("fresh_read_p50_ms", "ms"),
    ("fresh_read_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as `(name, unit)`; the traced run's own
/// end-to-end numbers follow as `traced.<name>`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &str)> = [
        ("load.write_lag_tail_ms", "ms"),
        ("server.wire_ms", "ms"),
        ("server.response_bytes", "bytes"),
        ("server.json_parse_ms", "ms"),
        ("query.compile_ms", "ms"),
        ("plan.plan_ms", "ms"),
        ("plan.optimize_ms", "ms"),
        ("plan.explain_ms", "ms"),
        ("exec.cursor_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    m.extend(STRATEGIES.map(|s| (format!("exec.drain_ms.{s}"), "ms")));
    for (n, u) in [
        ("exec.expansions", "count"),
        ("exec.interned_nodes", "count"),
        ("exec.rows", "count"),
        ("exec.expansions_per_row", "ratio"),
    ] {
        m.push((n.to_owned(), u));
    }
    m.extend(OP_KINDS.map(|k| (format!("exec.op_self_ms.{k}"), "ms")));
    for (n, u) in [
        ("exec.untraced_share", "ratio"),
        ("store.snapshot_us", "us"),
        ("store.write_unpinned_ms", "ms"),
        ("store.write_pinned_ms", "ms"),
        ("store.csr_build_ms", "ms"),
        ("store.csr_in_build_ms", "ms"),
        ("store.reversed_build_ms", "ms"),
        ("store.deep_clones_per_write", "count"),
        ("store.csr_builds_per_write", "count"),
        ("store.csr_bytes", "bytes"),
        ("wal.bytes_per_write", "bytes"),
        ("wal.records_per_write", "count"),
        ("wal.recovery_s", "s"),
        ("wal.restart_s", "s"),
        ("wal.replayed_records", "count"),
        ("setup.generate_s", "s"),
        ("setup.load_s", "s"),
        ("setup.first_query_ms", "ms"),
    ] {
        m.push((n.to_owned(), u));
    }
    m.extend(END_TO_END.map(|(n, u)| (format!("traced.{n}"), u)));
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--reopen") {
        std::process::exit(load::reopen_main(&argv[2..]));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {:?} (one of {names:?})", args.workload);
        std::process::exit(2);
    };
    let all = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .chain(per_layer());
    if let Some((name, unit)) = all
        .into_iter()
        .find(|(n, u)| !valid_name(n) || !valid_unit(u))
    {
        eprintln!("illegal metric name or unit: {name} [{unit}]");
        std::process::exit(2);
    }
    let tmp = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    {
        // detached on purpose: it either ends the process or dies with it
        let tmp = tmp.clone();
        std::thread::spawn(move || {
            std::thread::sleep(WATCHDOG);
            eprintln!("benchmark did not finish within {WATCHDOG:?}");
            remove_tmp(&tmp);
            std::process::exit(3);
        });
    }
    let outcome = run(&spec, &args, &tmp);
    remove_tmp(&tmp);
    match outcome {
        Ok(out) => {
            out.print();
            std::process::exit(if out.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

fn remove_tmp(tmp: &Path) {
    let _ = std::fs::remove_dir_all(tmp);
    if let Some(parent) = tmp.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
}

/// Everything one run measured.
struct RunOutput {
    correct: bool,
    outcomes: Outcomes,
    metrics: Vec<(String, &'static str, f64)>,
    report: Value,
}

impl RunOutput {
    fn print(&self) {
        println!("{:<34} {:>16}  unit", "metric", "value");
        for (name, unit, value) in &self.metrics {
            println!("{name:<34} {value:>16.4}  {unit}");
        }
        println!(
            "{:<34} {:>16.6}  ratio",
            "error_rate",
            self.outcomes.error_rate()
        );
        println!(
            "{}",
            Value::Object([("report".to_owned(), self.report.clone())].into()).render()
        );
        let metrics: Value = Value::Object(
            self.metrics
                .iter()
                .map(|(name, unit, value)| {
                    let m = [
                        ("value".to_owned(), Value::Number(*value)),
                        ("unit".to_owned(), Value::from(*unit)),
                    ];
                    (name.clone(), Value::Object(m.into()))
                })
                .collect(),
        );
        let result = Value::Object(
            [
                ("correct".to_owned(), Value::Bool(self.correct)),
                ("attempted".to_owned(), Value::from(self.outcomes.attempted)),
                ("failed".to_owned(), Value::from(self.outcomes.failed)),
                ("metrics".to_owned(), metrics),
            ]
            .into(),
        );
        println!("{}", result.render());
    }
}

/// The end-to-end numbers of one run.
struct EndToEnd {
    values: Vec<(&'static str, f64)>,
    /// How late the open-loop writer ran at the write tail percentile.
    write_lag_tail_ms: f64,
    tails: Value,
    samples: Value,
}

fn run(spec: &Spec, args: &Args, tmp: &Path) -> Result<RunOutput, String> {
    std::fs::create_dir_all(tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut served = None;
    for rep in 0..spec.reps {
        if let Some(prev) = served.take() {
            retire(prev);
        }
        let (s, times) = workload::set_up(spec, args.seed, &tmp.join(format!("store{rep}")))?;
        setups.push(times);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let graph = served.server.graph().clone();
    let addr = served.server.local_addr();
    let reads = &served.reads;

    let mut outcomes = Outcomes::default();
    let mut errors: Vec<String> = Vec::new();
    let refs = load::freeze_references(&graph, reads)?;
    if spec.kind == Kind::Analytics {
        // each statement runs under every strategy, consecutively
        for (i, group) in refs.chunks(STRATEGIES.len()).enumerate() {
            let agree = group.iter().all(|r| r == &group[0]);
            outcomes.record(agree);
            if !agree {
                let statement = &reads[i * STRATEGIES.len()].statement;
                errors.push(format!("strategies disagree on {statement:?}"));
            }
        }
    }

    let before = graph.stats();
    let wal_before = wal_bytes(&served.dir);
    let steal_before = cpu_ticks();
    let seconds = Duration::from_secs(args.seconds);
    let warmup = Duration::from_secs_f64(spec.warmup_s);
    let (reader, writer) = match spec.kind {
        Kind::Oltp { .. } => {
            // every write finds a snapshot pinned, as it would under many
            // concurrent readers, so that each pays the copy-on-write clone
            let start = Instant::now();
            let warm_until = start + warmup;
            std::thread::scope(|s| {
                let r = s.spawn(|| {
                    load::run_reader(addr, reads, &refs, warm_until, seconds, false, None)
                });
                let until = warm_until + seconds;
                let w =
                    load::run_writer(addr, spec.write_hz, start, warm_until, until, Some(&graph));
                (r.join().expect("reader thread"), w)
            })
        }
        Kind::Analytics => {
            // writes go between reads: a write during a read would find the
            // reader's snapshot pinned and pay the copy-on-write clone, so
            // the writer pins one itself
            let start = Instant::now();
            let mut writer = load::Writer::connect(addr, start, Some(&graph));
            let mut between = |measuring: bool| {
                writer.write(Instant::now(), measuring);
                // rebuild the topology caches the write dropped, so that
                // the store does no work while the reader runs
                let warm = graph.snapshot();
                warm.prewarm_reversed();
                warm.prewarm_csr(true, true);
            };
            let r = load::run_reader(
                addr,
                reads,
                &refs,
                start + warmup,
                seconds,
                true,
                Some(&mut between),
            );
            (r, writer.finish())
        }
    };
    let after = graph.stats();
    let steal = steal_share(steal_before, cpu_ticks());
    let wal_after = wal_bytes(&served.dir);
    outcomes.merge(reader.outcomes);
    outcomes.merge(writer.outcomes);
    errors.extend(reader.errors.iter().chain(&writer.errors).cloned());

    let mut layers = Layers::default();
    let mut acked = writer.acked.clone();
    if args.trace {
        let traced: &[workload::Read] = match spec.kind {
            Kind::Oltp { .. } => &reads[..5],
            Kind::Analytics => reads,
        };
        layers::probe_statements(&graph, addr, traced, &mut layers)?;
        acked.extend(layers::probe_store(&graph, &mut layers)?);
    }

    // durability: shut down, then restart on the directory and find every
    // acknowledged write
    let expected_edges = served.base_edges + acked.len();
    drop(graph);
    let dir = served.dir.clone();
    served.server.shutdown();
    let acked_file = tmp.join("acked.txt");
    let listing: String = acked.iter().map(|(t, h)| format!("{t} {h}\n")).collect();
    std::fs::write(&acked_file, listing).map_err(|e| format!("writing acked list: {e}"))?;
    let mut restarts = Series::default();
    let mut opens = Series::default();
    let mut replayed = 0;
    // one restart checks durability; the traced run times `reps` of them
    let restart_reps = if args.trace { spec.reps } else { 1 };
    for _ in 0..restart_reps {
        let restart = load::restart_in_child(&dir, expected_edges, &acked_file);
        outcomes.record(restart.is_ok());
        match restart {
            Ok(r) => {
                restarts.push(r.total_s);
                opens.push(r.open_s);
                replayed = r.replayed;
            }
            Err(e) => errors.push(e),
        }
    }

    let e2e = end_to_end(spec, args, &setups, &reader, &writer)?;
    let metrics: Vec<(String, &'static str, f64)> = if args.trace {
        let writes = writer.acked.len().max(1) as f64;
        let mut wire = Series::default();
        for r in &reader.samples {
            wire.push((r.rtt_ms - r.server_ms).max(0.0));
        }
        let per_row = layers.value("exec.expansions").unwrap_or(0.0)
            / layers.value("exec.rows").unwrap_or(0.0).max(1.0);
        for (name, value) in [
            ("load.write_lag_tail_ms", e2e.write_lag_tail_ms),
            ("server.wire_ms", wire.p50().unwrap_or(0.0)),
            ("exec.expansions_per_row", per_row),
            (
                "store.deep_clones_per_write",
                delta(&before, &after, |s| s.deep_clones) / writes,
            ),
            (
                "store.csr_builds_per_write",
                delta(&before, &after, |s| s.csr_builds) / writes,
            ),
            ("store.csr_bytes", after.csr_bytes as f64),
            (
                "wal.bytes_per_write",
                wal_after.saturating_sub(wal_before) as f64 / writes,
            ),
            (
                "wal.records_per_write",
                delta(&before, &after, |s| s.wal_records) / writes,
            ),
            ("wal.recovery_s", opens.p50().unwrap_or(0.0)),
            ("wal.restart_s", restarts.p50().unwrap_or(0.0)),
            ("wal.replayed_records", replayed as f64),
        ] {
            layers.add(name, value);
        }
        for t in &setups {
            layers.add("setup.generate_s", t.generate_s);
            layers.add("setup.load_s", t.load_s);
            layers.add("setup.first_query_ms", t.first_query_ms);
        }
        for (name, value) in &e2e.values {
            layers.add(format!("traced.{name}"), *value);
        }
        per_layer()
            .into_iter()
            .map(|(name, unit)| match layers.value(&name) {
                Some(v) => Ok((name, unit, v)),
                None => Err(format!("per-layer metric {name} was not measured")),
            })
            .collect::<Result<_, _>>()?
    } else {
        END_TO_END
            .iter()
            .zip(&e2e.values)
            .map(|(&(name, unit), &(_, v))| (name.to_owned(), unit, v))
            .collect()
    };
    if let Some((bad, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {bad} is not a number ({v})"));
    }

    let report = Value::Object(
        [
            ("workload", Value::from(spec.name)),
            ("seed", Value::from(args.seed)),
            ("seconds", Value::from(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            ("fingerprint", fingerprint()),
            ("tail_percentiles", e2e.tails),
            ("samples", e2e.samples),
            (
                "write_rate",
                Value::Object(
                    [
                        ("planned_per_s", Value::Number(spec.write_hz)),
                        (
                            "achieved_per_s",
                            Value::Number(writer.writes.len() as f64 / args.seconds as f64),
                        ),
                    ]
                    .map(|(k, v)| (k.to_owned(), v))
                    .into(),
                ),
            ),
            ("steal_share", steal.map_or(Value::Null, Value::Number)),
            ("error_rate", Value::Number(outcomes.error_rate())),
            ("reads", per_read(reads, &reader)),
            (
                "errors",
                Value::Array(errors.iter().map(|e| Value::from(e.as_str())).collect()),
            ),
        ]
        .map(|(k, v)| (k.to_owned(), v))
        .into(),
    );
    Ok(RunOutput {
        correct: outcomes.failed == 0,
        outcomes,
        metrics,
        report,
    })
}

/// Median latency and sample count of the first reads of the rotation, by
/// statement and strategy.
fn per_read(reads: &[workload::Read], reader: &ReaderLog) -> Value {
    const SHOWN: usize = 20;
    let rows = reads.iter().take(SHOWN).enumerate().map(|(i, read)| {
        let s = reader.latencies_of(i);
        let fields = [
            ("request", Value::from(read.line.as_str())),
            ("p50_ms", s.p50().map_or(Value::Null, Value::Number)),
            ("samples", Value::from(s.len())),
        ];
        Value::Object(fields.map(|(k, v)| (k.to_owned(), v)).into())
    });
    Value::Array(rows.collect())
}

fn end_to_end(
    spec: &Spec,
    args: &Args,
    setups: &[SetupTimes],
    reader: &ReaderLog,
    writer: &WriterLog,
) -> Result<EndToEnd, String> {
    let read_tail = tail_percentile(spec.planned_reads(args.seconds));
    let write_tail = tail_percentile(spec.planned_writes(args.seconds));
    let reads = reader.latencies();
    let writes = writer.latencies();
    let lags = writer.lags();
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no {what} completed"));
    let values = vec![
        ("setup_s", median(setups.iter().map(SetupTimes::total_s))),
        ("read_p50_ms", need(reads.p50(), "read")?),
        ("read_tail_ms", need(reads.at(read_tail), "read")?),
        (
            "reads_per_s",
            reads.len() as f64 / reader.elapsed_s.max(1e-9),
        ),
        ("write_p50_ms", need(writes.p50(), "write")?),
        ("write_tail_ms", need(writes.at(write_tail), "write")?),
        (
            "fresh_read_p50_ms",
            need(writer.fresh.p50(), "read-your-write")?,
        ),
        (
            "fresh_read_tail_ms",
            need(writer.fresh.at(write_tail), "read-your-write")?,
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    debug_assert!(values
        .iter()
        .zip(END_TO_END)
        .all(|((a, _), (b, _))| *a == b));
    let tails = Value::Object(
        [
            ("read", read_tail),
            ("write", write_tail),
            ("fresh_read", write_tail),
            ("write_lag", write_tail),
        ]
        .map(|(k, p)| (k.to_owned(), Value::Number(p)))
        .into(),
    );
    let samples = Value::Object(
        [
            ("setups", setups.len()),
            ("reads", reads.len()),
            ("writes", writes.len()),
            ("fresh_reads", writer.fresh.len()),
            ("write_lags", lags.len()),
        ]
        .map(|(k, n)| (k.to_owned(), Value::from(n)))
        .into(),
    );
    Ok(EndToEnd {
        values,
        write_lag_tail_ms: need(lags.at(write_tail), "write")?,
        tails,
        samples,
    })
}

fn delta(before: &StoreStats, after: &StoreStats, f: impl Fn(&StoreStats) -> u64) -> f64 {
    f(after).saturating_sub(f(before)) as f64
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut s = Series::default();
    values.for_each(|v| s.push(v));
    s.p50().unwrap_or(0.0)
}

/// Shuts a superseded set-up down and deletes its store.
fn retire(served: workload::Served) {
    let dir = served.dir.clone();
    served.server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(mrpa_engine::wal::WAL_FILE)).map_or(0, |m| m.len())
}

/// `(steal, total)` CPU ticks of the machine so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time the hypervisor took from this machine during the load:
/// context for a run whose numbers stand out, not a metric.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the numbers were measured: core count, CPU model, compiler, and
/// the code measured (git commit when run from a clone, and a digest of the
/// sources either way).
fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Value::Object(
        [
            ("nproc", Value::from(nproc)),
            ("cpu", Value::from(cpu)),
            ("rustc", Value::from(env!("PERFBENCH_RUSTC"))),
            ("git_commit", Value::from(git_commit().as_str())),
            ("source_digest", Value::from(source_digest().as_str())),
        ]
        .map(|(k, v)| (k.to_owned(), v))
        .into(),
    )
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| {
                std::fs::read_to_string(".git/packed-refs")
                    .unwrap_or_default()
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .unwrap_or_default()
                    .to_owned()
            }),
        None => head.to_owned(),
    };
    if commit.is_empty() {
        "none".to_owned()
    } else {
        commit
    }
}

/// FNV-1a over the paths and contents of every file under `crates/` and
/// `perfbench/src/`, in path order: identifies the code measured when the
/// checkout is not a git clone.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = f.to_string_lossy().into_owned().into_bytes();
        for b in bytes.iter().chain(&std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_legal_and_unique() {
        let mut names = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(per_layer());
        for (name, unit) in all {
            assert!(valid_name(&name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(names.insert(name.clone()), "{name} listed twice");
        }
        assert!(names.len() <= 16 + 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = mrpa_server::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        // oltp_20k stays runnable but is not benchmarked (BASELINE.md)
        let workloads: Vec<_> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["oltp_1m", "analytics_dense"]);
        assert!(workloads.iter().all(|w| workload::spec(w).is_some()));
    }
}
