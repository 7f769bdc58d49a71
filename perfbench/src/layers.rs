//! The traced run's per-layer breakdown. After the load, the benchmark
//! calls each layer's public functions directly on the served store, with
//! the workload's own statements, and times each call from outside the
//! program; counters come from `ExecStats`, `QueryTrace` and `StoreStats`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use mrpa_engine::{plan, ExecutionStrategy, PropertyGraph};
use mrpa_server::json;

use crate::stats::Series;
use crate::workload::{Read, STRATEGIES};

/// Plan-op kinds `exec.op_self_ms.<kind>` is reported for: the leading word
/// of a trace node's description. Anything else is `other`.
pub const OP_KINDS: [&str; 10] = [
    "start",
    "join",
    "automaton",
    "weighted",
    "repeat",
    "restrict",
    "has",
    "dedup",
    "limit",
    "other",
];

/// Direct writes sampled per traced run, for each of the store metrics.
const STORE_SAMPLES: usize = 3;

/// Repetitions of calls too short to time once.
const SHORT_CALL_REPS: usize = 15;

/// Named per-layer samples.
#[derive(Debug, Default)]
pub struct Layers {
    series: BTreeMap<String, Series>,
}

impl Layers {
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.series.entry(name.into()).or_default().push(value);
    }

    /// The reported value of a metric: the median of repeated samples of
    /// one operation (store writes and builds, set-ups), otherwise the mean
    /// per probed statement, so that statement-level layers add up to the
    /// cost of the average statement of the mix.
    pub fn value(&self, name: &str) -> Option<f64> {
        let series = self.series.get(name)?;
        let repeated = name.starts_with("store.write_")
            || name.ends_with("_build_ms")
            || name.starts_with("setup.");
        if repeated {
            series.p50()
        } else {
            series.mean()
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

fn strategy(name: &str) -> ExecutionStrategy {
    match name {
        "streaming" => ExecutionStrategy::Streaming,
        "parallel" => ExecutionStrategy::Parallel,
        _ => ExecutionStrategy::Materialized,
    }
}

fn op_kind(op: &str) -> &'static str {
    let word = op.split(['[', '(']).next().unwrap_or("");
    OP_KINDS
        .iter()
        .copied()
        .find(|k| *k == word)
        .unwrap_or("other")
}

/// Times the query, plan and exec layers on each distinct statement of
/// `reads`, and the server layer by sending it once more over a raw socket.
pub fn probe_statements(
    graph: &PropertyGraph,
    addr: SocketAddr,
    reads: &[Read],
    out: &mut Layers,
) -> Result<(), String> {
    // the load's last write left a generation without topology caches;
    // build them first so exec times exclude the rebuild, which
    // `probe_store` times on its own
    let warm = graph.snapshot();
    warm.prewarm_reversed();
    warm.prewarm_csr(true, true);
    drop(warm);
    let mut seen = std::collections::HashSet::new();
    let mut raw = RawClient::connect(addr)?;
    for read in reads {
        if !seen.insert(read.statement.clone()) {
            continue;
        }
        let text = read.statement.as_str();
        let engine = |e: mrpa_engine::EngineError| format!("{text:?}: {e}");

        let mut compile = Series::default();
        let mut lowered = None;
        for _ in 0..SHORT_CALL_REPS {
            let (l, ms) = timed(|| mrpa_query::compile(text));
            compile.push(ms);
            lowered = Some(l.map_err(|e| format!("{text:?}: {}", e.message))?);
        }
        out.add("query.compile_ms", compile.p50().unwrap_or(0.0));
        let traversal = lowered.expect("compiled at least once").traversal(graph);

        let mut snapshot_us = Series::default();
        for _ in 0..SHORT_CALL_REPS {
            let (snap, ms) = timed(|| graph.snapshot());
            snapshot_us.push(ms * 1e3);
            drop(snap);
        }
        out.add("store.snapshot_us", snapshot_us.p50().unwrap_or(0.0));

        let snap = graph.snapshot();
        let (naive, ms) = timed(|| plan::plan(&snap, traversal.start_spec(), traversal.steps()));
        let naive = naive.map_err(engine)?;
        out.add("plan.plan_ms", ms);
        let (_, ms) = timed(|| plan::optimize(&snap, &naive));
        out.add("plan.optimize_ms", ms);
        drop(snap);
        let (report, ms) = timed(|| traversal.explain());
        report.map_err(engine)?;
        out.add("plan.explain_ms", ms);

        for name in STRATEGIES {
            let t = traversal.clone().strategy(strategy(name));
            let (cursor, ms) = timed(|| t.cursor());
            let mut cursor = cursor.map_err(engine)?;
            out.add("exec.cursor_ms", ms);
            let mut rows = Vec::new();
            let started = Instant::now();
            while cursor.next_chunk(&mut rows).map_err(engine)? {}
            out.add(
                format!("exec.drain_ms.{name}"),
                started.elapsed().as_secs_f64() * 1e3,
            );
            if name == STRATEGIES[0] {
                let stats = cursor.stats();
                out.add("exec.expansions", stats.expansions as f64);
                out.add("exec.interned_nodes", stats.interned_nodes as f64);
                out.add("exec.rows", rows.len() as f64);
            }
        }

        let profiled = traversal.profile().map_err(engine)?;
        let mut self_ms: BTreeMap<&str, f64> = OP_KINDS.iter().map(|k| (*k, 0.0)).collect();
        let mut traced_ns = 0u64;
        for node in profiled.trace.nodes_source_first() {
            *self_ms
                .get_mut(op_kind(&node.op))
                .expect("every kind listed") += node.self_time_ns as f64 / 1e6;
            traced_ns += node.self_time_ns;
        }
        for (kind, ms) in self_ms {
            out.add(format!("exec.op_self_ms.{kind}"), ms);
        }
        let wall_ns = profiled.trace.total_time_ns.max(1);
        out.add(
            "exec.untraced_share",
            1.0 - traced_ns as f64 / wall_ns as f64,
        );

        let line = raw.request(&read.line)?;
        out.add("server.response_bytes", line.len() as f64 + 1.0);
        let mut parse = Series::default();
        for _ in 0..3 {
            let (value, ms) = timed(|| json::parse(&line));
            value.map_err(|e| format!("unparsable response to {text:?}: {e}"))?;
            parse.push(ms);
        }
        out.add("server.json_parse_ms", parse.p50().unwrap_or(0.0));
    }
    Ok(())
}

/// Times single writes with no snapshot alive and with one alive, and the
/// lazy topology builds of a fresh generation, each on its own generation.
/// Writes go to `wd*` vertices under the `aux` label and are returned so the
/// durability check covers them too.
pub fn probe_store(
    graph: &PropertyGraph,
    out: &mut Layers,
) -> Result<Vec<(String, String)>, String> {
    let mut acked = Vec::new();
    let mut write = |tag: &str, i: usize| -> Result<f64, String> {
        let (tail, head) = (format!("wd{tag}{i}"), format!("wd{tag}{i}h"));
        let (res, ms) = timed(|| graph.try_add_edge(&tail, crate::load::WRITE_LABEL, &head));
        res.map_err(|e| format!("direct write: {e}"))?;
        acked.push((tail, head));
        Ok(ms)
    };
    for i in 0..STORE_SAMPLES {
        out.add("store.write_unpinned_ms", write("u", i)?);
        let pin = graph.snapshot();
        out.add("store.write_pinned_ms", write("p", i)?);
        drop(pin);

        type Build = fn(&mrpa_engine::GraphSnapshot);
        let builds: [(&str, Build); 3] = [
            ("store.csr_build_ms", |s| s.prewarm_csr(true, false)),
            ("store.csr_in_build_ms", |s| s.prewarm_csr(false, true)),
            ("store.reversed_build_ms", |s| s.prewarm_reversed()),
        ];
        for (b, (name, build)) in builds.into_iter().enumerate() {
            write(&format!("g{b}"), i)?;
            let snap = graph.snapshot();
            let (_, ms) = timed(|| build(&snap));
            out.add(name, ms);
        }
    }
    Ok(acked)
}

/// A client that reads response lines in one linear pass, so the server
/// layer's bytes can be measured apart from `mrpa_server::Client`.
struct RawClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(RawClient {
            writer: stream,
            reader,
        })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| e.to_string();
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        let mut bytes = Vec::new();
        self.reader.read_until(b'\n', &mut bytes).map_err(io)?;
        if bytes.pop() != Some(b'\n') {
            return Err("server closed the connection".into());
        }
        String::from_utf8(bytes).map_err(|e| e.to_string())
    }
}
