//! The three workloads: what each serves, how it is set up, and the
//! statements its sessions send. All inputs derive from the run's seed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mrpa_core::MultiGraph;
use mrpa_datagen::random::rng;
use mrpa_datagen::{
    ingest_multigraph, preferential_attachment, social_graph, BaConfig, SocialConfig,
};
use mrpa_engine::{PropertyGraph, StoreError};
use mrpa_server::json::Value;
use mrpa_server::{serve, Client, RunningServer, ServerConfig};
use rand::seq::SliceRandom;
use rand::Rng as _;

/// The BA graph behind both `oltp_*` workloads: 4 out-edges per vertex over
/// 4 labels.
const BA_EDGES_PER_VERTEX: usize = 4;
const BA_LABELS: usize = 4;

/// The analytics session's strategies, in rotation order.
pub const STRATEGIES: [&str; 3] = ["materialized", "streaming", "parallel"];

/// Per-request deadline sent with every query: far above any statement's
/// latency, so that a hung query fails as a counted timeout.
pub const QUERY_TIMEOUT_MS: f64 = 60_000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Durable BA graph; one closed-loop reader and, at the same time, one
    /// open-loop writer. The reader sends every statement from each of
    /// `starts` start vertices: half uniform, half from the top 1% by
    /// in-degree.
    Oltp { vertices: usize, starts: usize },
    /// Durable copy of the dense social graph: one closed-loop session over
    /// the analytic statements. No write runs while a read does: after each
    /// answer the writer sends one write, with a snapshot pinned as a long
    /// analytic read would pin one, and reads it back; the topology caches
    /// the write dropped are rebuilt before the next read.
    Analytics,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Set-ups per run, and reopens in its durability check; `setup_s` and
    /// `restart_s` are their medians.
    pub reps: usize,
    /// Seconds of load before timing starts, so that the first queries and
    /// writes on a freshly loaded store are not timed; their answers are
    /// still checked.
    pub warmup_s: f64,
    /// Reads per second the read tail percentile is fixed for.
    pub planned_reads_hz: f64,
    /// Writes per second: the open-loop writer's schedule on `oltp_*`; on
    /// `analytics_dense`, one write per planned read.
    pub write_hz: f64,
}

impl Spec {
    /// Reads a run of `seconds` plans; the read tail percentile is fixed for
    /// this count.
    pub fn planned_reads(&self, seconds: u64) -> usize {
        (self.planned_reads_hz * seconds as f64) as usize
    }

    /// Writes a run of `seconds` plans; the write tail percentile is fixed
    /// for this count.
    pub fn planned_writes(&self, seconds: u64) -> usize {
        (self.write_hz * seconds as f64) as usize
    }
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "oltp_20k",
        kind: Kind::Oltp {
            vertices: 5_000,
            starts: 32,
        },
        reps: 9,
        warmup_s: 2.0,
        planned_reads_hz: 100.0,
        write_hz: 4.0,
    },
    Spec {
        name: "oltp_1m",
        kind: Kind::Oltp {
            vertices: 250_000,
            starts: 4,
        },
        reps: 3,
        warmup_s: 6.0,
        planned_reads_hz: 1.0,
        write_hz: 1.5,
    },
    Spec {
        name: "analytics_dense",
        kind: Kind::Analytics,
        reps: 9,
        warmup_s: 4.0,
        planned_reads_hz: 2.0,
        write_hz: 2.0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// One request the reader sends: the statement and the rendered request
/// line, which names the strategy unless the server's default is meant.
#[derive(Debug, Clone)]
pub struct Read {
    pub statement: String,
    pub line: String,
}

impl Read {
    pub fn new(statement: String, strategy: Option<&'static str>) -> Self {
        let mut fields = vec![
            ("op".to_owned(), Value::from("query")),
            ("query".to_owned(), Value::from(statement.as_str())),
            ("timeout_ms".to_owned(), Value::Number(QUERY_TIMEOUT_MS)),
        ];
        if let Some(s) = strategy {
            fields.push(("strategy".to_owned(), Value::from(s)));
        }
        let line = Value::Object(fields.into_iter().collect()).render();
        Read { statement, line }
    }
}

/// A served workload after set-up.
pub struct Served {
    pub server: RunningServer,
    pub dir: PathBuf,
    /// Edges in the store before any write of the run.
    pub base_edges: usize,
    /// The reader's rotation.
    pub reads: Vec<Read>,
}

/// Time split of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub load_s: f64,
    pub first_query_ms: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.load_s + self.first_query_ms / 1e3
    }
}

/// Generates the workload's graph, loads it into a fresh durable store in
/// `dir`, serves it with the default configuration, and answers the first
/// query.
pub fn set_up(spec: &Spec, seed: u64, dir: &Path) -> Result<(Served, SetupTimes), String> {
    let started = Instant::now();
    let generated = generate(spec, seed);
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let store = PropertyGraph::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    match &generated {
        Generated::Ba(g) => ingest_multigraph(&store, g).map(drop),
        Generated::Social(g) => copy_property_graph(g, &store),
    }
    .map_err(|e| format!("load: {e}"))?;
    let load_s = started.elapsed().as_secs_f64();

    let reads = reads_for(spec, seed, &generated);
    let base_edges = store.edge_count();
    drop(generated);

    let started = Instant::now();
    let server =
        serve(store, ServerConfig::default(), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let reply = client.request(&reads[0].line).map_err(|e| e.to_string())?;
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("first query failed: {}", reply.render()));
    }
    let first_query_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((
        Served {
            server,
            dir: dir.to_owned(),
            base_edges,
            reads,
        },
        SetupTimes {
            generate_s,
            load_s,
            first_query_ms,
        },
    ))
}

enum Generated {
    Ba(Box<MultiGraph>),
    Social(PropertyGraph),
}

fn generate(spec: &Spec, seed: u64) -> Generated {
    match spec.kind {
        Kind::Oltp { vertices, .. } => Generated::Ba(Box::new(preferential_attachment(BaConfig {
            vertices,
            edges_per_vertex: BA_EDGES_PER_VERTEX,
            labels: BA_LABELS,
            seed,
        }))),
        Kind::Analytics => Generated::Social(social_graph(SocialConfig {
            people: 2_000,
            software: 200,
            knows_per_person: 8,
            created_per_person: 2,
            uses_per_person: 2,
            seed,
        })),
    }
}

/// Copies vertices, edges and properties of `src` into `dst`, in `src`'s id
/// order, through the store's logged mutators.
fn copy_property_graph(src: &PropertyGraph, dst: &PropertyGraph) -> Result<(), StoreError> {
    let snap = src.snapshot();
    let name = |v| snap.render_vertex(v);
    for v in snap.graph().vertices() {
        let id = dst.try_add_vertex(&name(v))?;
        for (key, value) in snap.vertex_properties(v) {
            dst.try_set_vertex_property(id, &key, value)?;
        }
    }
    for e in snap.graph().edge_slice() {
        let label = snap.interner().label_name(e.label).unwrap_or("?");
        let copied = dst.try_add_edge(&name(e.tail), label, &name(e.head))?;
        for (key, value) in snap.edge_properties(e) {
            dst.try_set_edge_property(copied, &key, value)?;
        }
    }
    Ok(())
}

/// The reader's rotation for a workload.
fn reads_for(spec: &Spec, seed: u64, generated: &Generated) -> Vec<Read> {
    match generated {
        Generated::Ba(g) => {
            let Kind::Oltp { starts, .. } = spec.kind else {
                unreachable!("BA graphs serve the oltp workloads")
            };
            let starts = oltp_starts(g, starts, seed);
            let mut reads = Vec::new();
            for v in &starts {
                for statement in oltp_statements(v) {
                    reads.push(Read::new(statement, None));
                }
            }
            reads
        }
        Generated::Social(_) => {
            let person = rng(seed ^ 0x5eed).gen_range(0..2_000);
            analytics_statements(person)
                .into_iter()
                .flat_map(|s| STRATEGIES.map(|st| Read::new(s.clone(), Some(st))))
                .collect()
        }
    }
}

/// The five-statement short mix, from one start vertex.
pub fn oltp_statements(v: &str) -> [String; 5] {
    [
        format!("FROM {v} OUT *"),
        format!("FROM {v} MATCH -[(l0|l1)+]-> WITHIN 3 DEDUP"),
        format!(
            "FROM {v} MATCH -[l0+·l1]-> WITHIN 4 CHEAPEST BY LABELS(l0 = 1.0, l1 = 2.0, l2 = 0.5, l3 = 1.5) TOP 5"
        ),
        format!("FROM {v} MATCH REACHABLE -[(l0|l2)*]-> LIMIT 50"),
        format!("FROM {v} MATCH <-[l1]- COUNT"),
    ]
}

/// The analytic statements; `person` seeds the weighted search's start.
pub fn analytics_statements(person: usize) -> Vec<String> {
    vec![
        // expand_merge_dedup
        "FROM * OUT knows OUT knows OUT created DEDUP".to_owned(),
        // match_plus_dedup
        "FROM * MATCH -[knows+·created]-> WITHIN 3 DEDUP".to_owned(),
        "FROM * REPEAT {1,3} (OUT knows) DEDUP COUNT".to_owned(),
        "FROM * IN created IN knows DEDUP".to_owned(),
        format!("FROM person{person} MATCH -[knows+]-> WITHIN 4 CHEAPEST BY weight TOP 10"),
        // enum_page: a full enumeration whose ~1 MB answer dwarfs the
        // work that finds it
        "FROM * OUT knows OUT created LIMIT 8000".to_owned(),
    ]
}

/// Start vertices drawn from the seed: half uniform over all vertices, half
/// from the top 1% by in-degree. Named as the store names them (`v{i}`).
fn oltp_starts(g: &MultiGraph, count: usize, seed: u64) -> Vec<String> {
    let mut r = rng(seed ^ 0x57a7);
    let mut by_in: Vec<_> = g.vertices().collect();
    by_in.sort_by_key(|&v| (std::cmp::Reverse(g.in_degree(v)), v));
    let top = &by_in[..(by_in.len() / 100).max(1)];
    let mut starts = Vec::new();
    for i in 0..count {
        let v = if i % 2 == 0 {
            by_in[r.gen_range(0..by_in.len())]
        } else {
            *top.choose(&mut r).expect("non-empty top percentile")
        };
        starts.push(format!("v{}", v.0));
    }
    starts
}
