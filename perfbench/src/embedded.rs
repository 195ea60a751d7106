//! The embedded workloads: one client calling `Db2Graph::run` in a closed
//! loop on an in-memory LinkBench database.
//!
//! * `lb_point` mixes the four Table 1 shapes (getNode, countLinks,
//!   getLink, getLinkList) from `linkbench::mixed_batch` on 20 000
//!   vertices: fixed per-query costs dominate and the adjacency cache is
//!   bypassed.
//! * `lb_2hop` runs friends-of-friends counts from 8 uniformly sampled
//!   vertices on 40 000 vertices: adjacency expansion dominates and the
//!   out-direction adjacency is about twice the adjacency-cache budget.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use db2graph_core::json::Json;
use db2graph_core::{Db2Graph, GraphOptions, GraphResult};
use gremlin::{ElementId, GValue};
use linkbench::{
    generate, materialize, mixed_batch, overlay_config, GraphData, LinkBenchConfig, QueryKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, Counters, Outcome, PerLayer, Phase, SetupTiming, PER_LAYER};
use crate::spans::{self, Recorder};
use crate::stats::{median, ratio, Samples};
use crate::Args;

/// What a correct answer to one operation looks like.
#[derive(Clone)]
enum Expect {
    /// getNode: exactly this vertex.
    Node { id: i64, label: String },
    /// countLinks and the 2-hop count: exactly this number.
    Count(i64),
    /// getLink: exactly this edge.
    Link { id1: i64, label: String, id2: i64 },
    /// getLinkList: exactly the dataset's links for `(id1, label)`, which
    /// include the sampled one.
    LinkList { id1: i64, label: String },
}

/// One operation: a query text and its answer.
#[derive(Clone)]
struct Op {
    text: String,
    expect: Expect,
}

/// Answers computed from the generated `GraphData`, independently of the
/// system under test.
struct Truth {
    /// `(id1, label)` → sorted destination ids.
    by_label: HashMap<(i64, String), Vec<i64>>,
    /// Vertex id → destination ids over all labels.
    out: Vec<Vec<i64>>,
}

impl Truth {
    fn new(data: &GraphData) -> Truth {
        let mut by_label: HashMap<(i64, String), Vec<i64>> = HashMap::new();
        let mut out = vec![Vec::new(); data.nodes.len()];
        for l in &data.links {
            by_label
                .entry((l.id1, l.label.clone()))
                .or_default()
                .push(l.id2);
            out[l.id1 as usize].push(l.id2);
        }
        for v in by_label.values_mut() {
            v.sort_unstable();
        }
        Truth { by_label, out }
    }

    fn links(&self, id1: i64, label: &str) -> &[i64] {
        self.by_label
            .get(&(id1, label.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    fn two_hop(&self, seeds: &[i64]) -> i64 {
        seeds
            .iter()
            .flat_map(|&s| &self.out[s as usize])
            .map(|&n| self.out[n as usize].len() as i64)
            .sum()
    }

    fn check(&self, expect: &Expect, values: &[GValue]) -> bool {
        let long = |id: &ElementId, want: i64| *id == ElementId::Long(want);
        match (expect, values) {
            (Expect::Node { id, label }, [GValue::Vertex(v)]) => {
                long(&v.id, *id) && v.label == *label
            }
            (Expect::Count(n), [GValue::Long(got)]) => got == n,
            (Expect::Link { id1, label, id2 }, [GValue::Edge(e)]) => {
                long(&e.src, *id1) && long(&e.dst, *id2) && e.label == *label
            }
            (Expect::LinkList { id1, label }, edges) => {
                let mut dsts = Vec::with_capacity(edges.len());
                for v in edges {
                    match v {
                        GValue::Edge(e) if long(&e.src, *id1) && e.label == *label => match e.dst {
                            ElementId::Long(d) => dsts.push(d),
                            _ => return false,
                        },
                        _ => return false,
                    }
                }
                dsts.sort_unstable();
                dsts == self.links(*id1, label)
            }
            _ => false,
        }
    }
}

/// Parse the parameters back out of a Table 1 query text
/// (`g.V(<id1>).outE('<label>').filter(inV().id() == <id2>)` and kin) and
/// look up the answer.
fn table1_expect(kind: QueryKind, text: &str, truth: &Truth) -> Expect {
    let id1: i64 = text["g.V(".len()..text.find(')').unwrap()].parse().unwrap();
    let label = text.split('\'').nth(1).unwrap().to_string();
    match kind {
        QueryKind::GetNode => Expect::Node { id: id1, label },
        QueryKind::CountLinks => Expect::Count(truth.links(id1, &label).len() as i64),
        QueryKind::GetLink => {
            let tail = &text[text.find("== ").unwrap() + 3..];
            let id2 = tail.trim_end_matches(')').parse().unwrap();
            Expect::Link { id1, label, id2 }
        }
        QueryKind::GetLinkList => Expect::LinkList { id1, label },
    }
}

/// An endless, seed-determined stream of operations.
type OpStream = Box<dyn FnMut() -> Op>;

/// Distinct ops generated up front for `lb_point` before the stream wraps.
const POINT_BATCH: usize = 100_000;

fn op_stream(workload: &str, data: &GraphData, truth: &Arc<Truth>, seed: u64) -> OpStream {
    if workload == "lb_point" {
        let ops: Vec<Op> = mixed_batch(data, POINT_BATCH, seed)
            .into_iter()
            .map(|(kind, text)| Op {
                expect: table1_expect(kind, &text, truth),
                text,
            })
            .collect();
        let mut i = 0;
        return Box::new(move || {
            i += 1;
            ops[(i - 1) % ops.len()].clone()
        });
    }
    let n = data.nodes.len() as i64;
    let truth = truth.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    Box::new(move || {
        let mut seeds: Vec<i64> = Vec::with_capacity(TWO_HOP_SEEDS);
        while seeds.len() < TWO_HOP_SEEDS {
            let v = rng.gen_range(0..n);
            if !seeds.contains(&v) {
                seeds.push(v);
            }
        }
        let ids: Vec<String> = seeds.iter().map(i64::to_string).collect();
        let text = format!("g.V({}).out().out().count()", ids.join(","));
        Op {
            text,
            expect: Expect::Count(truth.two_hop(&seeds)),
        }
    })
}

/// Start vertices per `lb_2hop` operation.
const TWO_HOP_SEEDS: usize = 8;

/// The workload's dataset: the repository's fixed LinkBench stand-ins
/// (LB-small for `lb_point`, LB-large for `lb_2hop`), scaled. The run's
/// seed drives the requests, not the data.
fn dataset(workload: &str) -> LinkBenchConfig {
    if workload == "lb_point" {
        LinkBenchConfig::small().with_vertices(20_000)
    } else {
        LinkBenchConfig::large().with_vertices(40_000)
    }
}

/// Generate, load, open and warm: the work a user pays before the first
/// query.
fn setup(workload: &str) -> ((GraphData, Arc<Db2Graph>), SetupTiming) {
    SetupTiming::measure(|| {
        let data = generate(&dataset(workload));
        let (db, _) = materialize(&data).expect("load LinkBench tables");
        let graph = Db2Graph::open(db, &overlay_config()).expect("open graph");
        let warm_s = common::warm(&graph).seconds;
        ((data, graph), warm_s)
    })
}

/// Tallies of one closed-loop phase.
struct Tally {
    phase: Phase,
    attempted: u64,
    failed: u64,
    results: u64,
}

/// Closed loop for `seconds`; with a recorder, every op is traced.
fn closed_loop(
    graph: &Db2Graph,
    truth: &Truth,
    ops: &mut OpStream,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Tally {
    let mut done = Vec::new();
    let (mut attempted, mut failed, mut results) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let ((), marks) = common::steal_marks(start, seconds, || {
        while Instant::now() < deadline {
            let op = ops();
            let id = attempted;
            attempted += 1;
            let (out, nanos) = match rec.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let out = graph.run(&op.text);
                    (out, t.elapsed().as_nanos() as u64)
                }
                Some(rec) => traced_op(graph, &op.text, id, rec),
            };
            match out {
                Ok(values) if truth.check(&op.expect, &values) => {
                    results += values.len() as u64;
                    done.push((start.elapsed().as_nanos() as u64, nanos, true));
                }
                _ => failed += 1,
            }
        }
    });
    Tally {
        phase: Phase::new(done, &marks, start.elapsed()),
        attempted,
        failed,
        results,
    }
}

/// One op with spans around parse, plan and run; the run span of an op
/// in the span file carries the counter deltas it caused. Returns the result and the run span's
/// duration, the op's user-visible latency.
fn traced_op(
    graph: &Db2Graph,
    text: &str,
    id: u64,
    rec: &mut Recorder,
) -> (GraphResult<Vec<GValue>>, u64) {
    let root = rec.open("op", id, None);
    let _ = rec.time("gremlin.parse", id, Some(root), || {
        gremlin::parser::parse(text)
    });
    let _ = rec.time("strategies.plan", id, Some(root), || graph.plan(text));
    let before = Counters::take(graph);
    let (out, run) = rec.time("db2graph.run", id, Some(root), || graph.run(text));
    let delta = Counters::take(graph).since(&before);
    if spans::in_file(id) {
        rec.spans[run].counters = delta.span_counters();
    }
    rec.close(root);
    (out, rec.spans[run].end - rec.spans[run].start)
}

/// One set-up in a child process, timed and dropped.
pub fn setup_only(args: &Args) -> SetupTiming {
    setup(&args.workload).1
}

pub fn run(args: &Args) -> Outcome {
    let workload = args.workload.as_str();
    let mut timings = common::child_setups(args);
    let ((data, graph), own) = setup(workload);
    let rss_after_setup = common::rss_peak_mb();
    let truth = Arc::new(Truth::new(&data));
    let op_seed = args.seed ^ 0x5eed_0f0b;
    let mut ops = op_stream(workload, &data, &truth, op_seed);

    let cpu = common::CpuClock::now();
    let before = Counters::take(&graph);
    let a = closed_loop(&graph, &truth, &mut ops, args.phase_seconds(), None);
    let delta = Counters::take(&graph).since(&before);
    let rss = common::rss_peak_mb();
    let cpu = common::CpuClock::now().since(&cpu);
    timings.push(own);
    timings.extend(common::child_setups(args));

    let mut info = vec![
        ("workload", Json::str(workload)),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::num(args.seconds)),
        ("machine", common::machine_info(&graph)),
        ("durability", Json::str("none (in-memory database)")),
        ("checkpoint_interval_ms", Json::Null),
        ("clients", Json::u64(1)),
        ("server_workers", Json::u64(0)),
        ("dataset", dataset_info(&data)),
        ("setups", common::setup_info(&timings)),
        ("rss_peak_after_setup_mb", Json::num(rss_after_setup)),
        ("untraced", a.phase.describe()),
        ("untraced_cpu", cpu),
        ("untraced_adj_cache", adj_cache_info(&delta)),
    ];
    let (mut attempted, mut failed) = (a.attempted, a.failed);
    let metrics = if !args.trace {
        a.phase.end_to_end(common::setup_s(&timings), rss)
    } else {
        let mut pl = PerLayer::default();
        delta.fill(a.attempted, a.results, &mut pl);
        a.phase.fill_sample_metrics(&mut pl, a.attempted, a.failed);
        fill_cache_metrics(&timings, &graph, &mut pl);
        let sql_us = ratio(delta.graph.sql_wall_nanos as f64, a.attempted as f64) / 1e3;

        let mut rec = Recorder::new(Instant::now());
        let b = closed_loop(
            &graph,
            &truth,
            &mut ops,
            args.phase_seconds(),
            Some(&mut rec),
        );
        attempted += b.attempted;
        failed += b.failed;
        a.phase.fill_overhead(&b.phase, &mut pl);
        fill_span_metrics(&rec, sql_us, &mut pl);
        info.push(("traced", b.phase.describe()));
        info.push(("span_file", args.write_spans(&rec)));

        let mut replay = op_stream(workload, &data, &truth, op_seed);
        let mut texts = move || replay().text;
        let (p_attempted, p_failed) =
            pool_replay(&graph, &mut texts, args.replay_seconds(), &mut pl);
        attempted += p_attempted;
        failed += p_failed;
        pl.finish()
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
    }
}

pub fn dataset_info(data: &GraphData) -> Json {
    Json::obj(vec![
        ("vertices", Json::u64(data.nodes.len() as u64)),
        ("edges", Json::u64(data.links.len() as u64)),
        ("generator_seed", Json::u64(data.config.seed)),
    ])
}

/// The adjacency cache's counter deltas over a phase.
pub fn adj_cache_info(d: &Counters) -> Json {
    let g = &d.graph;
    Json::obj(vec![
        ("hits", Json::u64(g.adj_cache_hits)),
        ("misses", Json::u64(g.adj_cache_misses)),
        ("evictions", Json::u64(g.adj_cache_evictions)),
        ("invalidations", Json::u64(g.adj_cache_invalidations)),
        ("bytes", Json::u64(g.adj_cache_bytes)),
    ])
}

/// Adjacency-cache figures: the counted set-ups' median warm-up time, and
/// the cache's bytes per edge on `graph`'s data.
pub fn fill_cache_metrics(timings: &[SetupTiming], graph: &Db2Graph, pl: &mut PerLayer) {
    let warm: Vec<f64> = common::counted_setups(timings)
        .iter()
        .map(|t| t.warm_s)
        .collect();
    pl.set("adjcache.warm_s", median(&warm));
    pl.set(
        "adjcache.bytes_per_edge",
        common::cache_bytes_per_edge(graph),
    );
}

/// Span-derived per-layer times. Parse and plan are small fixed costs:
/// medians, so a preempted call does not swamp them. The executor residual
/// splits the mean run time, of which the SQL time per op is a mean too.
pub fn fill_span_metrics(rec: &Recorder, sql_us_per_op: f64, pl: &mut PerLayer) {
    let parse = rec.durations("gremlin.parse").pct_us(50.0);
    let plan = rec.durations("strategies.plan");
    let run = rec.durations("db2graph.run").mean_us();
    pl.set("gremlin.parse_us", parse);
    pl.set("strategies.plan_us", plan.pct_us(50.0) - parse);
    pl.set("executor.residual_us", run - plan.mean_us() - sql_us_per_op);
    for (name, us) in rec.mean_self_us() {
        let metric = format!("span.{name}.self_us");
        if let Some(&(declared, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
            pl.set(declared, us);
        }
    }
}

/// Replay the same queries on the default graph and on a second graph
/// over the same database opened with one intra-query thread, alternating
/// which runs first, for `seconds`. Both must return the same values.
/// Reports the p50 difference and the latency ratio.
pub fn pool_replay(
    graph: &Arc<Db2Graph>,
    texts: &mut dyn FnMut() -> String,
    seconds: f64,
    pl: &mut PerLayer,
) -> (u64, u64) {
    let options = GraphOptions {
        threads: Some(1),
        ..GraphOptions::default()
    };
    let single = Db2Graph::open_with_options(graph.database().clone(), &overlay_config(), options)
        .expect("open single-thread graph");
    common::warm(&single);
    let (mut multi_lat, mut single_lat) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = |g: &Db2Graph, text: &str, lat: &mut Vec<u64>| {
        let t = Instant::now();
        let out = g.run(text);
        lat.push(t.elapsed().as_nanos() as u64);
        out
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let text = texts();
        let (m, s) = if attempted % 2 == 0 {
            let m = timed(graph, &text, &mut multi_lat);
            (m, timed(&single, &text, &mut single_lat))
        } else {
            let s = timed(&single, &text, &mut single_lat);
            (timed(graph, &text, &mut multi_lat), s)
        };
        attempted += 1;
        match (m, s) {
            (Ok(m), Ok(s)) if m == s => {}
            _ => failed += 1,
        }
    }
    let (multi, single) = (Samples::new(multi_lat), Samples::new(single_lat));
    pl.set(
        "pool.fanout_overhead_us",
        multi.pct_us(50.0) - single.pct_us(50.0),
    );
    pl.set(
        "pool.parallel_speedup",
        ratio(single.pct_us(50.0), multi.pct_us(50.0)),
    );
    (attempted, failed)
}
