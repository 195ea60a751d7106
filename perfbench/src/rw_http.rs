//! The serving workload: two keep-alive HTTP clients against an
//! in-process `GraphServer` over a durable database, running a
//! LinkBench-style mix of ~75 % graph reads (`POST /query`) and ~25 % SQL
//! writes (`POST /sql`) on the same tables.
//!
//! Every write's effect on its table's row count and `version` sum is
//! known in advance, whatever the interleaving of the two clients:
//!
//! * updateLink touches only generated links, updateNode only generated
//!   nodes, and both add exactly 1 to one row's `version`;
//! * addLink inserts a key absent from the generated data, and each
//!   client draws its destinations from its own residue class of vertex
//!   ids, so the clients never insert the same key;
//! * deleteLink removes a link the same client added, whose `version`
//!   nothing else changes.
//!
//! Once the clients have stopped, graph reads of the links they wrote
//! must match the generated adjacency plus their acknowledged writes
//! exactly. After the run, and again after reopening the data directory,
//! the per-table counts and sums must match the acknowledged writes.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use db2graph_core::json::Json;
use db2graph_core::{Db2Graph, GraphResult};
use db2graph_server::gjson::gvalue_to_json;
use db2graph_server::{GraphServer, HttpClient, HttpResponse, ServerConfig, ServerHandle};
use gremlin::GValue;
use linkbench::queries::{count_links, get_link, get_link_list, get_node};
use linkbench::{generate, overlay_config, GraphData, LinkBenchConfig, NUM_TYPES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reldb::{Database, Durability, Value};

use crate::common::{self, Counters, Outcome, PerLayer, Phase, SetupTiming};
use crate::embedded::{
    adj_cache_info, dataset_info, fill_cache_metrics, fill_span_metrics, pool_replay,
};
use crate::spans::{self, Recorder};
use crate::stats::{ratio, Samples};
use crate::Args;

const VERTICES: u64 = 10_000;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const CHECKPOINT_EVERY: Duration = Duration::from_secs(5);
const WRITE_SHARE: f64 = 0.25;
/// Attempts per write before it counts as failed; a write refused for a
/// row-lock conflict is retried like a LinkBench client would.
const MAX_ATTEMPTS: u32 = 50;
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);
/// Written `(id1, label)` pairs read back exactly after the run, at most.
const FINAL_CHECKS: usize = 500;

/// The generated data plus the lookups the clients sample from.
struct Dataset {
    data: GraphData,
    /// Generated links by source vertex (indexes into `data.links`).
    by_src: HashMap<i64, Vec<usize>>,
    /// Generated link keys `(id1, label number, id2)`.
    keys: HashSet<(i64, usize, i64)>,
    /// Generated `(id1, label)` link counts and 2-hop counts: reads may
    /// see more (concurrent addLinks) but never fewer, since only added
    /// links are ever deleted.
    link_counts: HashMap<(i64, String), i64>,
    out_degree: Vec<i64>,
    out: Vec<Vec<i64>>,
}

fn label_no(label: &str) -> usize {
    label[2..].parse().expect("label vtK/etK")
}

impl Dataset {
    fn new(data: GraphData) -> Dataset {
        let mut by_src: HashMap<i64, Vec<usize>> = HashMap::new();
        let mut keys = HashSet::new();
        let mut link_counts: HashMap<(i64, String), i64> = HashMap::new();
        let mut out = vec![Vec::new(); data.nodes.len()];
        for (i, l) in data.links.iter().enumerate() {
            by_src.entry(l.id1).or_default().push(i);
            keys.insert((l.id1, label_no(&l.label), l.id2));
            *link_counts.entry((l.id1, l.label.clone())).or_default() += 1;
            out[l.id1 as usize].push(l.id2);
        }
        let out_degree = out.iter().map(|o| o.len() as i64).collect();
        Dataset {
            data,
            by_src,
            keys,
            link_counts,
            out_degree,
            out,
        }
    }

    /// Generated `(row count, version sum)` per table.
    fn table_totals(&self) -> HashMap<String, (i64, i64)> {
        let mut t: HashMap<String, (i64, i64)> = HashMap::new();
        for k in 0..NUM_TYPES {
            t.insert(format!("nodes_vt{k}"), (0, 0));
            t.insert(format!("links_et{k}"), (0, 0));
        }
        for n in &self.data.nodes {
            let e = t
                .get_mut(&format!("nodes_{}", n.label))
                .expect("node table");
            e.0 += 1;
            e.1 += n.version;
        }
        for l in &self.data.links {
            let e = t
                .get_mut(&format!("links_{}", l.label))
                .expect("link table");
            e.0 += 1;
            e.1 += l.version;
        }
        t
    }
}

/// Create the LinkBench schema in a durable database and load the data
/// in one transaction (one commit, one WAL fsync).
fn load(db: &Database, data: &GraphData) {
    let mut ddl = String::new();
    for k in 0..NUM_TYPES {
        ddl.push_str(&format!(
            "CREATE TABLE nodes_vt{k} (id BIGINT PRIMARY KEY, version BIGINT, time BIGINT, data VARCHAR);
             CREATE TABLE links_et{k} (id1 BIGINT NOT NULL, id2 BIGINT NOT NULL, visibility BIGINT,
                                       time BIGINT, version BIGINT, data VARCHAR);
             CREATE INDEX ix_links_et{k}_id1 ON links_et{k} (id1);
             CREATE INDEX ix_links_et{k}_id2 ON links_et{k} (id2);\n"
        ));
    }
    db.execute_script(&ddl).expect("create LinkBench schema");
    let table = |name: String| db.get_table(&name).expect("created above");
    let nodes: Vec<_> = (0..NUM_TYPES)
        .map(|k| table(format!("nodes_vt{k}")))
        .collect();
    let links: Vec<_> = (0..NUM_TYPES)
        .map(|k| table(format!("links_et{k}")))
        .collect();
    db.transaction(|db| {
        for n in &data.nodes {
            let row = vec![
                Value::Bigint(n.id),
                Value::Bigint(n.version),
                Value::Bigint(n.time),
                Value::Varchar(n.data.clone()),
            ];
            db.insert_row(&nodes[label_no(&n.label)], row)?;
        }
        for l in &data.links {
            let row = vec![
                Value::Bigint(l.id1),
                Value::Bigint(l.id2),
                Value::Bigint(l.visibility),
                Value::Bigint(l.time),
                Value::Bigint(l.version),
                Value::Varchar(l.data.clone()),
            ];
            db.insert_row(&links[label_no(&l.label)], row)?;
        }
        Ok(())
    })
    .expect("load LinkBench rows");
}

struct Deployment {
    dir: PathBuf,
    graph: Arc<Db2Graph>,
    server: ServerHandle,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        sql_endpoint: true,
        durability: Durability::Always,
        checkpoint_interval: Some(CHECKPOINT_EVERY),
        ..ServerConfig::default()
    }
}

/// Generate, load into a fresh durable directory, open, warm, serve.
fn setup(args: &Args) -> ((GraphData, Deployment), SetupTiming) {
    SetupTiming::measure(|| {
        // The fixed LB-small stand-in, scaled; the seed drives the requests.
        let data = generate(&LinkBenchConfig::small().with_vertices(VERTICES));
        let dir = args.out_path("data");
        let _ = std::fs::remove_dir_all(&dir);
        let db =
            Arc::new(Database::open_with(&dir, Durability::Always).expect("open data directory"));
        load(&db, &data);
        let graph = Db2Graph::open(db, &overlay_config()).expect("open graph");
        let warm_s = common::warm(&graph).seconds;
        let server = GraphServer::start(graph.clone(), server_config()).expect("start server");
        ((data, Deployment { dir, graph, server }), warm_s)
    })
}

/// Stop the server, release the database and delete its directory.
fn teardown(d: Deployment) {
    d.server.shutdown();
    drop(d.graph);
    let _ = std::fs::remove_dir_all(&d.dir);
}

enum Read {
    /// Exactly this many results.
    Exactly(i64),
    /// A single count, exactly this.
    CountIs(i64),
    /// A single count, at least this.
    CountAtLeast(i64),
    /// At least this many results.
    AtLeast(i64),
}

enum WriteKind {
    AddLink,
    UpdateLink,
    DeleteLink,
    UpdateNode,
}

struct Write {
    kind: WriteKind,
    sql: String,
    table: String,
    /// Change to the table's `version` sum when acknowledged.
    version_delta: i64,
    row_delta: i64,
    /// The `(id1, label number, id2)` an addLink or deleteLink names.
    link: Option<(i64, usize, i64)>,
}

/// One client's view: its random stream, the links it added and may
/// delete, and what its acknowledged writes did to each table.
struct Client<'a> {
    ds: &'a Dataset,
    id: usize,
    rng: StdRng,
    added: Vec<(i64, usize, i64, i64)>,
    added_keys: HashSet<(i64, usize, i64)>,
    /// `(id1, label number)` of every acknowledged addLink and deleteLink.
    touched: BTreeSet<(i64, usize)>,
    effects: HashMap<String, (i64, i64)>,
}

impl<'a> Client<'a> {
    fn new(ds: &'a Dataset, id: usize, seed: u64) -> Client<'a> {
        Client {
            ds,
            id,
            rng: StdRng::seed_from_u64(seed),
            added: Vec::new(),
            added_keys: HashSet::new(),
            touched: BTreeSet::new(),
            effects: HashMap::new(),
        }
    }

    fn next_read(&mut self) -> (String, Read) {
        let d = &self.ds.data;
        match self.rng.gen_range(0..6) {
            0 => {
                let id = d.sample_vertex(&mut self.rng);
                (get_node(id, d.vertex_label(id)), Read::Exactly(1))
            }
            1 => {
                let l = d.sample_link(&mut self.rng);
                let n = self.ds.link_counts[&(l.id1, l.label.clone())];
                (count_links(l.id1, &l.label), Read::CountAtLeast(n))
            }
            2 => {
                let l = d.sample_link(&mut self.rng);
                (get_link(l.id1, &l.label, l.id2), Read::Exactly(1))
            }
            3 => {
                let l = d.sample_link(&mut self.rng);
                let n = self.ds.link_counts[&(l.id1, l.label.clone())];
                (get_link_list(l.id1, &l.label), Read::AtLeast(n))
            }
            4 => {
                let v = self.rng.gen_range(0..d.nodes.len() as i64);
                let n: i64 = self.ds.out[v as usize]
                    .iter()
                    .map(|&x| self.ds.out_degree[x as usize])
                    .sum();
                (
                    format!("g.V({v}).out().out().count()"),
                    Read::CountAtLeast(n),
                )
            }
            _ => {
                let k = self.rng.gen_range(0..NUM_TYPES);
                (
                    format!("g.V().hasLabel('vt{k}').limit(10)"),
                    Read::Exactly(10),
                )
            }
        }
    }

    fn next_write(&mut self) -> Write {
        let d = &self.ds.data;
        let mut kind = match self.rng.gen_range(0..4) {
            0 => WriteKind::AddLink,
            1 => WriteKind::UpdateLink,
            2 => WriteKind::DeleteLink,
            _ => WriteKind::UpdateNode,
        };
        if matches!(kind, WriteKind::DeleteLink) && self.added.is_empty() {
            kind = WriteKind::AddLink;
        }
        match kind {
            WriteKind::AddLink => loop {
                let id1 = d.sample_vertex(&mut self.rng);
                let et = self.rng.gen_range(0..NUM_TYPES);
                let n = d.nodes.len() as i64 / CLIENTS as i64;
                let id2 = self.rng.gen_range(0..n) * CLIENTS as i64 + self.id as i64;
                let key = (id1, et, id2);
                if id1 == id2 || self.ds.keys.contains(&key) || self.added_keys.contains(&key) {
                    continue;
                }
                let version = self.rng.gen_range(1..50);
                let time = 1_600_000_000 + self.rng.gen_range(0..1_000_000);
                return Write {
                    kind,
                    sql: format!(
                        "INSERT INTO links_et{et} VALUES ({id1}, {id2}, 1, {time}, {version}, 'added')"
                    ),
                    table: format!("links_et{et}"),
                    version_delta: version,
                    row_delta: 1,
                    link: Some(key),
                };
            },
            WriteKind::UpdateLink => {
                // LinkBench picks the source with its hot-vertex skew.
                let id1 = loop {
                    let v = d.sample_vertex(&mut self.rng);
                    if self.ds.by_src.contains_key(&v) {
                        break v;
                    }
                };
                let links = &self.ds.by_src[&id1];
                let l = &d.links[links[self.rng.gen_range(0..links.len())]];
                Write {
                    kind,
                    sql: format!(
                        "UPDATE links_{} SET version = version + 1 WHERE id1 = {} AND id2 = {}",
                        l.label, l.id1, l.id2
                    ),
                    table: format!("links_{}", l.label),
                    version_delta: 1,
                    row_delta: 0,
                    link: None,
                }
            }
            WriteKind::DeleteLink => {
                let (id1, et, id2, version) = self.added[self.rng.gen_range(0..self.added.len())];
                Write {
                    kind,
                    sql: format!("DELETE FROM links_et{et} WHERE id1 = {id1} AND id2 = {id2}"),
                    table: format!("links_et{et}"),
                    version_delta: -version,
                    row_delta: -1,
                    link: Some((id1, et, id2)),
                }
            }
            WriteKind::UpdateNode => {
                let id = d.sample_vertex(&mut self.rng);
                let table = format!("nodes_{}", d.vertex_label(id));
                Write {
                    kind,
                    sql: format!("UPDATE {table} SET version = version + 1 WHERE id = {id}"),
                    table,
                    version_delta: 1,
                    row_delta: 0,
                    link: None,
                }
            }
        }
    }

    /// Book an acknowledged write into the client's effects and its list
    /// of deletable links.
    fn acknowledge(&mut self, w: &Write) {
        let e = self.effects.entry(w.table.clone()).or_default();
        e.0 += w.row_delta;
        e.1 += w.version_delta;
        if let Some((id1, et, _)) = w.link {
            self.touched.insert((id1, et));
        }
        match (&w.kind, w.link) {
            (WriteKind::AddLink, Some(key)) => {
                self.added.push((key.0, key.1, key.2, w.version_delta));
                self.added_keys.insert(key);
            }
            (WriteKind::DeleteLink, Some(key)) => {
                let i = self
                    .added
                    .iter()
                    .position(|a| (a.0, a.1, a.2) == key)
                    .expect("own link");
                self.added.swap_remove(i);
                self.added_keys.remove(&key);
            }
            _ => {}
        }
    }
}

/// Tallies of one client over one phase.
#[derive(Default)]
struct ClientTally {
    /// `(completion time since the phase started, latency, is a read)`
    /// of every acknowledged op.
    done: Vec<(u64, u64, bool)>,
    reads: u64,
    attempted: u64,
    failed: u64,
    acked_writes: u64,
    /// Values returned by successful reads.
    results: u64,
    retries: u64,
    /// HTTP time minus the embedded run of the same query (traced).
    http_minus_run: Vec<f64>,
    /// `Database::execute` of replayed update statements (traced).
    replayed_writes: Vec<u64>,
    snapshot_lag: Vec<u64>,
}

/// The result count of a well-formed 200 `/query` response meeting the
/// expectation; `None` for any other response.
fn read_ok(status: u16, body: &str, expect: &Read) -> Option<u64> {
    if status != 200 {
        return None;
    }
    let json = Json::parse(body).ok()?;
    let count = json.get("count")?.as_u64()?;
    let result = json.get("result")?.as_array()?;
    let ok = count as usize == result.len()
        && match expect {
            Read::Exactly(n) => count as i64 == *n,
            Read::AtLeast(n) => count as i64 >= *n,
            Read::CountIs(n) => result.len() == 1 && result[0].as_f64() == Some(*n as f64),
            Read::CountAtLeast(n) => {
                result.len() == 1 && result[0].as_f64().is_some_and(|v| v as i64 >= *n)
            }
        };
    ok.then_some(count)
}

/// The affected-row count of a 200 `/sql` response.
fn affected(body: &str) -> Option<i64> {
    let json = Json::parse(body).ok()?;
    let rows = json.get("rows")?.as_array()?;
    Some(rows.first()?.as_array()?.first()?.as_f64()? as i64)
}

/// Send one write, retrying row-lock refusals; returns whether it was
/// acknowledged with the expected effect, and the retries it took.
fn send_write(client: &mut HttpClient, sql: &str) -> (bool, u64) {
    let mut retries = 0;
    for attempt in 1..=MAX_ATTEMPTS {
        match client.call("POST", "/sql", sql) {
            Ok(r) if r.status == 200 => return (affected(&r.body) == Some(1), retries),
            Ok(r)
                if r.status == 400 && r.body.contains("write-locked") && attempt < MAX_ATTEMPTS =>
            {
                retries += 1;
                std::thread::sleep(Duration::from_micros(100 * u64::from(attempt)));
            }
            _ => return (false, retries),
        }
    }
    (false, retries)
}

/// `Database::execute` with the same conflict retries, for the traced
/// replay of update statements.
fn execute_write(db: &Database, sql: &str) -> (bool, u64) {
    let mut retries = 0;
    for attempt in 1..=MAX_ATTEMPTS {
        match db.execute(sql) {
            Ok(rs) => {
                let n = rs
                    .rows
                    .first()
                    .and_then(|r| r.first())
                    .and_then(|v| v.as_i64().ok());
                return (n == Some(1), retries);
            }
            Err(e) if e.to_string().contains("write-locked") && attempt < MAX_ATTEMPTS => {
                retries += 1;
                std::thread::sleep(Duration::from_micros(100 * u64::from(attempt)));
            }
            Err(_) => return (false, retries),
        }
    }
    (false, retries)
}

/// One client's closed loop for `seconds`. With a recorder, every op is
/// traced and reads are also run embedded and JSON-encoded, so the HTTP
/// and encoding layers can be told apart.
fn client_loop(
    c: &mut Client<'_>,
    dep: &Deployment,
    phase_start: Instant,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> ClientTally {
    let mut t = ClientTally::default();
    let mut http = HttpClient::new(dep.server.addr(), HTTP_TIMEOUT);
    let db = dep.graph.database();
    let deadline = phase_start + Duration::from_secs_f64(seconds);
    let mut seq = 0;
    while Instant::now() < deadline {
        let op_id = spans::op_id(c.id as u64, seq);
        seq += 1;
        t.attempted += 1;
        let root = rec.as_deref_mut().map(|r| r.open("op", op_id, None));
        if c.rng.gen::<f64>() < WRITE_SHARE {
            let w = c.next_write();
            let start = Instant::now();
            let (ok, retries) = match (rec.as_deref_mut(), root) {
                (Some(r), Some(root)) => {
                    r.time("http.request", op_id, Some(root), || {
                        send_write(&mut http, &w.sql)
                    })
                    .0
                }
                _ => send_write(&mut http, &w.sql),
            };
            let nanos = start.elapsed().as_nanos() as u64;
            t.retries += retries;
            if !ok {
                t.failed += 1;
            } else {
                c.acknowledge(&w);
                t.acked_writes += 1;
                t.done
                    .push((phase_start.elapsed().as_nanos() as u64, nanos, false));
                let replay = matches!(w.kind, WriteKind::UpdateLink | WriteKind::UpdateNode);
                if let (Some(r), Some(root), true) = (rec.as_deref_mut(), root, replay) {
                    let ((ok, retries), span) = r.time("reldb.execute", op_id, Some(root), || {
                        execute_write(db, &w.sql)
                    });
                    t.replayed_writes
                        .push(r.spans[span].end - r.spans[span].start);
                    t.retries += retries;
                    if ok {
                        c.acknowledge(&w);
                    } else {
                        t.failed += 1;
                    }
                }
            }
        } else {
            let (text, expect) = c.next_read();
            let (resp, nanos) = match (rec.as_deref_mut(), root) {
                (Some(r), Some(root)) => {
                    traced_read(&dep.graph, &mut http, &text, op_id, root, r, &mut t)
                }
                _ => {
                    let start = Instant::now();
                    let resp = http.call("POST", "/query", &text);
                    (resp, start.elapsed().as_nanos() as u64)
                }
            };
            match resp.ok().and_then(|r| read_ok(r.status, &r.body, &expect)) {
                Some(count) => {
                    t.results += count;
                    t.reads += 1;
                    t.done
                        .push((phase_start.elapsed().as_nanos() as u64, nanos, true));
                }
                None => t.failed += 1,
            }
        }
        if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
            r.close(root);
            // Read the horizon first: the commit epoch only grows, so
            // reading it second keeps it at or above the horizon.
            let horizon = db.snapshot_horizon();
            t.snapshot_lag.push(db.commit_epoch() - horizon);
        }
    }
    t
}

/// A traced read: parse and plan spans, the HTTP request, the same query
/// run embedded, and the JSON encoding of its values. Returns the HTTP
/// response and the `http.request` span's duration, the read's latency.
fn traced_read(
    graph: &Db2Graph,
    http: &mut HttpClient,
    text: &str,
    id: u64,
    root: usize,
    rec: &mut Recorder,
    t: &mut ClientTally,
) -> (std::io::Result<HttpResponse>, u64) {
    let _ = rec.time("gremlin.parse", id, Some(root), || {
        gremlin::parser::parse(text)
    });
    let _ = rec.time("strategies.plan", id, Some(root), || graph.plan(text));
    let (resp, req) = rec.time("http.request", id, Some(root), || {
        http.call("POST", "/query", text)
    });
    let (values, run): (GraphResult<Vec<GValue>>, usize) =
        rec.time("db2graph.run", id, Some(root), || graph.run(text));
    if let Ok(values) = values {
        let _ = rec.time("gjson.encode", id, Some(root), || {
            let results: Vec<Json> = values.iter().map(gvalue_to_json).collect();
            Json::obj(vec![
                ("count", Json::u64(results.len() as u64)),
                ("result", Json::arr(results)),
            ])
            .to_compact()
        });
    }
    let dur = |i: usize| rec.spans[i].end - rec.spans[i].start;
    t.http_minus_run.push(dur(req) as f64 - dur(run) as f64);
    (resp, dur(req))
}

/// Phase-wide results of all clients.
struct PhaseOut {
    phase: Phase,
    tally: ClientTally,
    rec: Option<Recorder>,
}

fn run_phase(clients: &mut [Client<'_>], dep: &Deployment, seconds: f64, traced: bool) -> PhaseOut {
    let start = Instant::now();
    let (results, marks) = common::steal_marks(start, seconds, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    s.spawn(move || {
                        let mut rec = traced.then(|| Recorder::new(start));
                        let t = client_loop(c, dep, start, seconds, rec.as_mut());
                        (t, rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<(ClientTally, Option<Recorder>)>>()
        })
    });
    let elapsed = start.elapsed();
    let mut all = ClientTally::default();
    let mut rec = traced.then(|| Recorder::new(start));
    for (t, r) in results {
        all.done.extend(t.done);
        all.reads += t.reads;
        all.attempted += t.attempted;
        all.failed += t.failed;
        all.acked_writes += t.acked_writes;
        all.results += t.results;
        all.retries += t.retries;
        all.http_minus_run.extend(t.http_minus_run);
        all.replayed_writes.extend(t.replayed_writes);
        all.snapshot_lag.extend(t.snapshot_lag);
        if let (Some(into), Some(r)) = (rec.as_mut(), r) {
            into.absorb(r);
        }
    }
    let phase = Phase::new(std::mem::take(&mut all.done), &marks, elapsed);
    PhaseOut {
        phase,
        tally: all,
        rec,
    }
}

/// Once the clients have stopped, read back through the server the links
/// they wrote: for up to [`FINAL_CHECKS`] written `(id1, label)` pairs,
/// evenly spread, countLinks and the 2-hop count from `id1` must equal
/// the generated adjacency plus the links the acknowledged writes left in
/// place. These reads go through the adjacency cache the writes
/// invalidated, so a stale or missed link fails them. Returns the reads
/// attempted and failed.
fn check_written_links(ds: &Dataset, clients: &[Client<'_>], dep: &Deployment) -> (u64, u64) {
    let mut out = ds.out.clone();
    let mut link_counts = ds.link_counts.clone();
    for &(id1, et, id2, _) in clients.iter().flat_map(|c| &c.added) {
        out[id1 as usize].push(id2);
        *link_counts.entry((id1, format!("et{et}"))).or_default() += 1;
    }
    let touched: BTreeSet<(i64, usize)> = clients
        .iter()
        .flat_map(|c| c.touched.iter().copied())
        .collect();
    let touched: Vec<(i64, usize)> = touched.into_iter().collect();
    let step = touched.len().div_ceil(FINAL_CHECKS).max(1);
    let mut http = HttpClient::new(dep.server.addr(), HTTP_TIMEOUT);
    let (mut attempted, mut failed) = (0, 0);
    for &(id1, et) in touched.iter().step_by(step) {
        let label = format!("et{et}");
        let links = link_counts.get(&(id1, label.clone())).copied().unwrap_or(0);
        let two_hop = out[id1 as usize]
            .iter()
            .map(|&n| out[n as usize].len() as i64)
            .sum();
        let reads = [
            (count_links(id1, &label), links),
            (format!("g.V({id1}).out().out().count()"), two_hop),
        ];
        for (text, want) in reads {
            attempted += 1;
            let ok = http
                .call("POST", "/query", &text)
                .ok()
                .and_then(|r| read_ok(r.status, &r.body, &Read::CountIs(want)));
            if ok.is_none() {
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

/// Per-table `(COUNT(*), SUM(version))` equal to the expectation.
fn tables_match(db: &Database, expected: &HashMap<String, (i64, i64)>) -> bool {
    expected.iter().all(|(table, &(rows, versions))| {
        let rs = db.execute(&format!("SELECT COUNT(*), SUM(version) FROM {table}"));
        let got = rs.ok().and_then(|rs| {
            let row = rs.rows.first()?;
            Some((
                row.first()?.as_i64().ok()?,
                row.get(1)?.as_i64().unwrap_or(0),
            ))
        });
        got == Some((rows, versions))
    })
}

/// One set-up in a child process: time it, then tear it down.
pub fn setup_only(args: &Args) -> SetupTiming {
    let ((_, dep), timing) = setup(args);
    teardown(dep);
    timing
}

pub fn run(args: &Args) -> Outcome {
    let mut timings = common::child_setups(args);
    let ((data, dep), own) = setup(args);
    let rss_after_setup = common::rss_peak_mb();
    let ds = Dataset::new(data);
    let mut clients: Vec<Client<'_>> = (0..CLIENTS)
        .map(|id| {
            Client::new(
                &ds,
                id,
                args.seed.wrapping_mul(31).wrapping_add(id as u64 + 1),
            )
        })
        .collect();

    let cpu = common::CpuClock::now();
    let before = Counters::take(&dep.graph);
    let server_before = (
        dep.server.metrics().keepalive_reuses(),
        dep.server.metrics().admitted(),
    );
    let a = run_phase(&mut clients, &dep, args.phase_seconds(), false);
    let delta = Counters::take(&dep.graph).since(&before);
    let server_after = (
        dep.server.metrics().keepalive_reuses(),
        dep.server.metrics().admitted(),
    );
    let rss = common::rss_peak_mb();
    let cpu = common::CpuClock::now().since(&cpu);
    timings.push(own);
    timings.extend(common::child_setups(args));

    let mut info = vec![
        ("workload", Json::str("rw_http")),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::num(args.seconds)),
        ("machine", common::machine_info(&dep.graph)),
        ("durability", Json::str(Durability::Always.to_string())),
        (
            "checkpoint_interval_ms",
            Json::u64(CHECKPOINT_EVERY.as_millis() as u64),
        ),
        ("clients", Json::u64(CLIENTS as u64)),
        ("server_workers", Json::u64(WORKERS as u64)),
        ("dataset", dataset_info(&ds.data)),
        ("setups", common::setup_info(&timings)),
        ("rss_peak_after_setup_mb", Json::num(rss_after_setup)),
        ("untraced", a.phase.describe()),
        ("untraced_cpu", cpu),
        ("untraced_adj_cache", adj_cache_info(&delta)),
        ("write_conflict_retries", Json::u64(a.tally.retries)),
    ];
    let (mut attempted, mut failed) = (a.tally.attempted, a.tally.failed);
    let mut pl = PerLayer::default();
    if args.trace {
        let reads = a.tally.reads;
        delta.fill(reads, a.tally.results, &mut pl);
        delta.fill_durability(a.tally.acked_writes, &mut pl);
        a.phase
            .fill_sample_metrics(&mut pl, a.tally.attempted, a.tally.failed);
        fill_cache_metrics(&timings, &dep.graph, &mut pl);
        pl.set("reldb.write_conflict_retries", a.tally.retries as f64);
        pl.set(
            "server.keepalive_reuse_ratio",
            ratio(
                (server_after.0 - server_before.0) as f64,
                (server_after.1 - server_before.1) as f64,
            ),
        );
        let sql_us = ratio(delta.graph.sql_wall_nanos as f64, reads as f64) / 1e3;

        let b = run_phase(&mut clients, &dep, args.phase_seconds(), true);
        attempted += b.tally.attempted;
        failed += b.tally.failed;
        a.phase.fill_overhead(&b.phase, &mut pl);
        let rec = b.rec.expect("traced phase records spans");
        fill_span_metrics(&rec, sql_us, &mut pl);
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
        pl.set("server.http_us_per_op", mean(&b.tally.http_minus_run) / 1e3);
        pl.set(
            "server.json_encode_us",
            rec.durations("gjson.encode").mean_us(),
        );
        pl.set(
            "reldb.write_us",
            Samples::new(b.tally.replayed_writes.clone()).mean_us(),
        );
        let lag: Vec<f64> = b.tally.snapshot_lag.iter().map(|&l| l as f64).collect();
        pl.set("mvcc.snapshot_lag_epochs", mean(&lag));
        info.push(("traced", b.phase.describe()));
        info.push(("span_file", args.write_spans(&rec)));

        let mut reader = Client::new(&ds, 0, args.seed ^ 0x9e37);
        let mut texts = move || reader.next_read().0;
        let (p_attempted, p_failed) =
            pool_replay(&dep.graph, &mut texts, args.replay_seconds(), &mut pl);
        attempted += p_attempted;
        failed += p_failed;
    }

    let (checked, mismatched) = check_written_links(&ds, &clients, &dep);
    attempted += checked;
    failed += mismatched;
    info.push((
        "written_links_read_back",
        Json::obj(vec![
            ("reads", Json::u64(checked)),
            ("mismatched", Json::u64(mismatched)),
        ]),
    ));

    // Durability: the acknowledged writes, and nothing else, are in the
    // tables now and after a restart from the data directory.
    let mut expected = ds.table_totals();
    for c in &clients {
        for (table, (rows, versions)) in &c.effects {
            let e = expected.get_mut(table).expect("known table");
            e.0 += rows;
            e.1 += versions;
        }
    }
    let Deployment { dir, graph, server } = dep;
    let drain = server.shutdown();
    pl.set("server.shed", drain.rejected as f64);
    let live_ok = tables_match(graph.database(), &expected);
    let db = graph.database().clone();
    drop(graph);
    let released = Arc::strong_count(&db) == 1;
    drop(db);
    let reopened_ok = released && Database::open(&dir).is_ok_and(|db| tables_match(&db, &expected));
    let _ = std::fs::remove_dir_all(&dir);
    info.push(("tables_match_live", Json::Bool(live_ok)));
    info.push(("tables_match_after_restart", Json::Bool(reopened_ok)));
    info.push(("drain_rejected", Json::u64(drain.rejected)));
    if !(live_ok && reopened_ok) {
        failed += 1;
    }

    let metrics = if args.trace {
        pl.finish()
    } else {
        a.phase.end_to_end(common::setup_s(&timings), rss)
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
    }
}
