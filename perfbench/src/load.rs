//! The sessions that generate load through the server, and the checks on
//! every answer they get back.

use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use mrpa_core::Edge;
use mrpa_engine::PropertyGraph;
use mrpa_server::json::Value;
use mrpa_server::{serve, Client, ServerConfig};

use crate::stats::{Outcomes, Scheduled, Series};
use crate::workload::Read;

/// Label of every benchmark write; with the `w*` vertex names it keeps the
/// writes disjoint from everything the readers' references cover.
pub const WRITE_LABEL: &str = "aux";

/// The answer part of a successful query response — everything that must
/// not change while the load runs — or `None` for a failed request.
pub fn payload(response: &Value) -> Option<String> {
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    let parts: Vec<String> = ["rows", "count", "exists", "row"]
        .iter()
        .filter_map(|k| response.get(k).map(Value::render))
        .collect();
    Some(parts.join("|"))
}

/// Freezes the reference answer of every read before the load starts,
/// through a second server on the same store. That server has the
/// slow-query log off, so freezing does not pay the log's re-plan; its
/// answers come from the same code path the load exercises. One connection
/// sends the reads in turn, so that no two answers are computed at once and
/// freezing does not raise the process's peak memory.
pub fn freeze_references(graph: &PropertyGraph, reads: &[Read]) -> Result<Vec<String>, String> {
    let config = ServerConfig {
        slowlog_threshold: None,
        ..ServerConfig::default()
    };
    let server = serve(graph.clone(), config, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let refs = reads
        .iter()
        .map(|read| {
            let reply = client.request(&read.line).map_err(|e| e.to_string())?;
            payload(&reply)
                .ok_or_else(|| format!("reference {:?} failed: {}", read.statement, reply.render()))
        })
        .collect();
    drop(client);
    server.shutdown();
    refs
}

/// One answered read.
#[derive(Debug, Clone, Copy)]
pub struct ReadSample {
    /// Position of the read in the rotation.
    pub read: usize,
    /// Send until the response is decoded, in milliseconds.
    pub rtt_ms: f64,
    /// The server's own `elapsed_us`, in milliseconds.
    pub server_ms: f64,
}

#[derive(Debug, Default)]
pub struct ReaderLog {
    pub samples: Vec<ReadSample>,
    pub outcomes: Outcomes,
    pub elapsed_s: f64,
    pub errors: Vec<String>,
}

impl ReaderLog {
    pub fn latencies(&self) -> Series {
        let mut s = Series::default();
        for r in &self.samples {
            s.push(r.rtt_ms);
        }
        s
    }

    /// Latencies of the read at position `read` of the rotation alone.
    pub fn latencies_of(&self, read: usize) -> Series {
        let mut s = Series::default();
        for r in self.samples.iter().filter(|r| r.read == read) {
            s.push(r.rtt_ms);
        }
        s
    }
}

/// A closed-loop reader with no think time: sends `reads` in rotation, each
/// as soon as the previous answer is decoded. Until `warm_until` it warms
/// up: its answers are checked but not timed. Then it measures for
/// `measure`. With `whole_rotations` both the warm-up's end and the deadline
/// are taken only between rotations, so every run measures the same mix of
/// statements. `between`, if given, runs after every answer, before the next
/// read is sent, and is told whether the reader is measuring; its time does
/// not count in the reader's `elapsed_s`.
pub fn run_reader(
    addr: SocketAddr,
    reads: &[Read],
    refs: &[String],
    warm_until: Instant,
    measure: Duration,
    whole_rotations: bool,
    mut between: Option<&mut dyn FnMut(bool)>,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    // (measuring since, deadline), once the warm-up is over
    let mut window: Option<(Instant, Instant)> = None;
    let mut aside = Duration::ZERO;
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.outcomes.record(false);
            log.errors.push(format!("reader connect: {e}"));
            return log;
        }
    };
    'load: loop {
        for (i, read) in reads.iter().enumerate() {
            if i == 0 || !whole_rotations {
                let now = Instant::now();
                match window {
                    None if now >= warm_until => window = Some((now, now + measure)),
                    Some((_, deadline)) if now >= deadline => break 'load,
                    _ => {}
                }
            }
            let measuring = window.is_some();
            let sent = Instant::now();
            let reply = client.request(&read.line);
            let rtt_ms = sent.elapsed().as_secs_f64() * 1e3;
            let ok = match &reply {
                Ok(r) => payload(r).as_deref() == Some(refs[i].as_str()),
                Err(_) => false,
            };
            log.outcomes.record(ok);
            match reply {
                Ok(r) if ok && measuring => log.samples.push(ReadSample {
                    read: i,
                    rtt_ms,
                    server_ms: r.get("elapsed_us").and_then(Value::as_f64).unwrap_or(0.0) / 1e3,
                }),
                Ok(_) if ok => {}
                Ok(r) => note(&mut log.errors, || {
                    format!(
                        "wrong answer to {:?}: {}",
                        read.statement,
                        clip(&r.render())
                    )
                }),
                Err(e) => {
                    note(&mut log.errors, || {
                        format!("read {:?}: {e}", read.statement)
                    });
                    match Client::connect(addr) {
                        Ok(c) => client = c,
                        Err(_) => break 'load,
                    }
                }
            }
            if let Some(f) = between.as_mut() {
                let t = Instant::now();
                f(measuring);
                if measuring {
                    aside += t.elapsed();
                }
            }
        }
    }
    log.elapsed_s = window.map_or(0.0, |(since, _)| {
        since.elapsed().saturating_sub(aside).as_secs_f64()
    });
    log
}

#[derive(Debug, Default)]
pub struct WriterLog {
    /// Timings of the measured writes.
    pub writes: Vec<Scheduled>,
    /// Read-your-write latencies of the measured writes.
    pub fresh: Series,
    /// `(tail, head)` of every acknowledged `aux` edge, warm-up included.
    pub acked: Vec<(String, String)>,
    pub outcomes: Outcomes,
    pub errors: Vec<String>,
}

impl WriterLog {
    pub fn latencies(&self) -> Series {
        let mut s = Series::default();
        for w in &self.writes {
            s.push(w.latency_ms());
        }
        s
    }

    pub fn lags(&self) -> Series {
        let mut s = Series::default();
        for w in &self.writes {
            s.push(w.lag_ms());
        }
        s
    }
}

/// An open-loop writer: sends one write at `hz` per second from `start`
/// until `until`, whether or not earlier writes have finished (see
/// [`Writer`]). Writes due before `warm_until` are checked but not timed.
pub fn run_writer(
    addr: SocketAddr,
    hz: f64,
    start: Instant,
    warm_until: Instant,
    until: Instant,
    pin: Option<&PropertyGraph>,
) -> WriterLog {
    let mut writer = Writer::connect(addr, start, pin);
    for i in 0.. {
        let due = start + Duration::from_secs_f64(i as f64 / hz);
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        writer.write(due, due >= warm_until);
    }
    writer.finish()
}

/// A writer session: claims the writer slot, then sends `add_edge
/// w{i} -aux-> w{i+1}` for `i = 0, 1, …`, one per [`Writer::write`]. After
/// each acknowledgement it reads its own write back with `FROM w{i} OUT
/// aux`, which must return exactly the new edge. With `pin`, a snapshot of
/// that store is held across each write, as a concurrent long read would
/// hold one.
pub struct Writer<'a> {
    client: Option<Client>,
    start: Instant,
    pin: Option<&'a PropertyGraph>,
    next: usize,
    log: WriterLog,
}

impl<'a> Writer<'a> {
    pub fn connect(addr: SocketAddr, start: Instant, pin: Option<&'a PropertyGraph>) -> Self {
        let mut log = WriterLog::default();
        let client = match Client::connect(addr) {
            Ok(mut c) => {
                let claimed = c
                    .request(r#"{"op":"claim_writer"}"#)
                    .is_ok_and(|r| r.get("ok").and_then(Value::as_bool) == Some(true));
                log.outcomes.record(claimed);
                if !claimed {
                    log.errors.push("could not claim the writer slot".into());
                }
                claimed.then_some(c)
            }
            Err(e) => {
                log.outcomes.record(false);
                log.errors.push(format!("writer connect: {e}"));
                None
            }
        };
        Writer {
            client,
            start,
            pin,
            next: 0,
            log,
        }
    }

    /// Sends the next write, which was `due` at that time, and reads it
    /// back; with `timed`, records both latencies.
    pub fn write(&mut self, due: Instant, timed: bool) {
        let Some(client) = self.client.as_mut() else {
            return;
        };
        let log = &mut self.log;
        let i = self.next;
        self.next += 1;
        let ms = |t: Instant| t.saturating_duration_since(self.start).as_secs_f64() * 1e3;
        let _pinned = self.pin.map(PropertyGraph::snapshot);
        let (tail, head) = (format!("w{i}"), format!("w{}", i + 1));
        let request = Value::Object(
            [
                ("op", Value::from("add_edge")),
                ("tail", Value::from(tail.as_str())),
                ("label", Value::from(WRITE_LABEL)),
                ("head", Value::from(head.as_str())),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        )
        .render();
        let sent = Instant::now();
        let reply = client.request(&request);
        let done = Instant::now();
        let expected = Value::Array(vec![
            Value::from(tail.as_str()),
            Value::from(WRITE_LABEL),
            Value::from(head.as_str()),
        ]);
        let acked = reply.as_ref().is_ok_and(|r| {
            r.get("ok").and_then(Value::as_bool) == Some(true) && r.get("edge") == Some(&expected)
        });
        log.outcomes.record(acked);
        if !acked {
            note(&mut log.errors, || format!("write {i} failed: {reply:?}"));
            return;
        }
        if timed {
            log.writes.push(Scheduled {
                due_ms: ms(due),
                sent_ms: ms(sent),
                done_ms: ms(done),
            });
        }
        log.acked.push((tail.clone(), head.clone()));

        let probe = crate::workload::Read::new(format!("FROM {tail} OUT {WRITE_LABEL}"), None);
        let sent = Instant::now();
        let reply = client.request(&probe.line);
        let fresh_ms = sent.elapsed().as_secs_f64() * 1e3;
        let fresh = reply.as_ref().is_ok_and(|r| {
            payload(r).is_some()
                && r.get("rows").and_then(Value::as_array).is_some_and(|rows| {
                    rows.len() == 1 && rows[0].get("head").and_then(Value::as_str) == Some(&head)
                })
        });
        log.outcomes.record(fresh);
        if !fresh {
            note(&mut log.errors, || {
                format!("read-your-write {i}: {reply:?}")
            });
        } else if timed {
            log.fresh.push(fresh_ms);
        }
    }

    pub fn finish(self) -> WriterLog {
        self.log
    }
}

/// Timings of one restart.
#[derive(Debug, Clone, Copy)]
pub struct Restart {
    /// `PropertyGraph::open`: recovery and WAL replay.
    pub open_s: f64,
    /// Open plus verification.
    pub total_s: f64,
    /// WAL records the open replayed.
    pub replayed: u64,
}

/// Restarts the store in `dir` in a fresh process, as an operator's restart
/// would: runs this executable with `--reopen`, which reopens the directory
/// with [`reopen_and_verify`] and prints its timings. The child's heap starts
/// empty, so the timing does not depend on what the load left behind in
/// this process.
pub fn restart_in_child(
    dir: &Path,
    expected_edges: usize,
    acked_file: &Path,
) -> Result<Restart, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .arg("--reopen")
        .arg(dir)
        .arg(expected_edges.to_string())
        .arg(acked_file)
        .output()
        .map_err(|e| format!("restart: {e}"))?;
    if !out.status.success() {
        return Err(String::from_utf8_lossy(&out.stderr).trim().to_owned());
    }
    let line = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields[..] {
        [open_s, total_s, replayed] => Ok(Restart {
            open_s: open_s
                .parse()
                .map_err(|_| format!("restart printed {line:?}"))?,
            total_s: total_s
                .parse()
                .map_err(|_| format!("restart printed {line:?}"))?,
            replayed: replayed
                .parse()
                .map_err(|_| format!("restart printed {line:?}"))?,
        }),
        _ => Err(format!("restart printed {line:?}")),
    }
}

/// The `--reopen <dir> <expected edges> <acked file>` mode behind
/// [`restart_in_child`]: prints `open_s total_s replayed_records` and
/// returns the process exit code.
pub fn reopen_main(args: &[String]) -> i32 {
    let run = || -> Result<Restart, String> {
        let [dir, edges, acked_file] = args else {
            return Err("usage: --reopen <dir> <expected edges> <acked file>".into());
        };
        let expected: usize = edges
            .parse()
            .map_err(|_| format!("bad edge count {edges:?}"))?;
        let acked: Vec<(String, String)> = std::fs::read_to_string(acked_file)
            .map_err(|e| format!("reading {acked_file}: {e}"))?
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(t, h)| (t.to_owned(), h.to_owned()))
            .collect();
        let started = Instant::now();
        let (store, open_s) = reopen_and_verify(Path::new(dir), expected, &acked)?;
        let total_s = started.elapsed().as_secs_f64();
        let replayed = store.stats().replayed_records;
        Ok(Restart {
            open_s,
            total_s,
            replayed,
        })
    };
    match run() {
        Ok(r) => {
            println!("{} {} {}", r.open_s, r.total_s, r.replayed);
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Reopens the store in `dir` after shutdown and checks that it holds
/// exactly `expected_edges` edges, every acknowledged write among them.
/// Returns the reopened store and the time `PropertyGraph::open` took.
fn reopen_and_verify(
    dir: &Path,
    expected_edges: usize,
    acked: &[(String, String)],
) -> Result<(PropertyGraph, f64), String> {
    let started = Instant::now();
    let store = PropertyGraph::open(dir).map_err(|e| format!("reopen: {e}"))?;
    let open_s = started.elapsed().as_secs_f64();
    if store.edge_count() != expected_edges {
        return Err(format!(
            "reopened store has {} edges, expected {expected_edges}",
            store.edge_count()
        ));
    }
    let snap = store.snapshot();
    let label = snap.label(WRITE_LABEL).ok();
    for (tail, head) in acked {
        let present = match (label, snap.vertex(tail), snap.vertex(head)) {
            (Some(l), Ok(t), Ok(h)) => snap.graph().contains_edge(&Edge::new(t, l, h)),
            _ => false,
        };
        if !present {
            return Err(format!(
                "acknowledged write {tail} -{WRITE_LABEL}-> {head} was lost"
            ));
        }
    }
    drop(snap);
    Ok((store, open_s))
}

/// Keeps the first few error messages of a session.
fn note(errors: &mut Vec<String>, message: impl FnOnce() -> String) {
    if errors.len() < 5 {
        errors.push(message());
    }
}

fn clip(s: &str) -> String {
    s.chars().take(300).collect()
}
