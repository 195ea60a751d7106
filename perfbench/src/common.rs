//! Pieces every workload shares: the metric lists, counter snapshots, the
//! end-to-end summary and the machine description.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use db2graph_core::json::Json;
use db2graph_core::{Db2Graph, GraphOptions, MetricsSnapshot};
use linkbench::overlay_config;
use reldb::StatsSnapshot;

use crate::stats::{median, ratio, Samples};

/// Every per-layer metric with its unit, in output order. A traced run
/// reports all of them on every workload; a layer the workload does not
/// touch reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gremlin.parse_us", "us"),
    ("strategies.plan_us", "us"),
    ("graph_structure.tables_pruned_ratio", "ratio"),
    ("graph_structure.sql_per_op", "count"),
    ("sql_dialect.sql_us_per_op", "us"),
    ("sql_dialect.template_hit_ratio", "ratio"),
    ("reldb.exec_us_per_op", "us"),
    ("reldb.rows_read_per_result", "count"),
    ("reldb.index_probes_per_op", "count"),
    ("reldb.full_scans_per_op", "count"),
    ("executor.residual_us", "us"),
    ("adjcache.hit_ratio", "ratio"),
    ("adjcache.evictions", "count"),
    ("adjcache.invalidations", "count"),
    ("adjcache.bytes_per_edge", "B"),
    ("adjcache.warm_s", "s"),
    ("pool.fanout_overhead_us", "us"),
    ("pool.parallel_speedup", "ratio"),
    ("server.http_us_per_op", "us"),
    ("server.keepalive_reuse_ratio", "ratio"),
    ("server.shed", "count"),
    ("server.json_encode_us", "us"),
    ("reldb.write_us", "us"),
    ("reldb.write_conflict_retries", "count"),
    ("durability.fsyncs_per_write", "count"),
    ("durability.fsync_us", "us"),
    ("durability.wal_bytes_per_write", "B"),
    ("checkpoint.count", "count"),
    ("vacuum.versions_reclaimed", "count"),
    ("mvcc.snapshot_lag_epochs", "count"),
    ("write_latency_p50_us", "us"),
    ("write_latency_p99_us", "us"),
    ("failed_ratio", "ratio"),
    ("latency.samples", "count"),
    ("latency.top_pct", "%"),
    ("latency.top_us", "us"),
    ("trace.overhead_p50_us", "us"),
    ("trace.overhead_p99_us", "us"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("span.op.self_us", "us"),
    ("span.gremlin.parse.self_us", "us"),
    ("span.strategies.plan.self_us", "us"),
    ("span.db2graph.run.self_us", "us"),
    ("span.http.request.self_us", "us"),
    ("span.gjson.encode.self_us", "us"),
    ("span.reldb.execute.self_us", "us"),
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Recorded inputs, machine and supporting figures (sample counts,
    /// trusted percentiles), printed before the result line.
    pub info: Vec<(&'static str, Json)>,
}

/// Per-layer values keyed by name; [`PerLayer::finish`] emits every
/// declared metric, 0 for those never set.
#[derive(Default)]
pub struct PerLayer(BTreeMap<&'static str, f64>);

impl PerLayer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn finish(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// The end-to-end metrics of one measured phase.
///
/// The phase is cut into 1-second windows. A window in which the host
/// took more than [`QUIET_STEAL_TICKS`] of steal time from this machine
/// (CPU time the hypervisor gave to other guests) measures the host as
/// much as the program. The phase counts the windows at or under that
/// limit; when they are fewer than half the windows, it counts the half
/// with the least steal instead.
pub struct Phase {
    /// Latencies of the reads (every op on the embedded workloads) and of
    /// the writes completed in counted windows.
    pub reads: Samples,
    pub writes: Samples,
    /// Completions per second in each counted window.
    rates: Vec<f64>,
    /// Steal ticks per window.
    steal: Vec<u64>,
    elapsed: Duration,
}

const WINDOW: Duration = Duration::from_secs(1);

/// Steal ticks (1/100 s) a window may hold and still count: 5 % of one
/// CPU.
const QUIET_STEAL_TICKS: u64 = 5;

impl Phase {
    /// `done` holds, per completed op, when it finished and its latency
    /// (nanoseconds since the phase started, nanoseconds) and whether it
    /// was a read; `steal_marks` the steal clock at the start of every
    /// window (see [`steal_marks`]).
    pub fn new(done: Vec<(u64, u64, bool)>, steal_marks: &[u64], elapsed: Duration) -> Phase {
        let windows = (elapsed.as_nanos() / WINDOW.as_nanos()) as usize;
        let steal: Vec<u64> = steal_marks.windows(2).map(|w| w[1] - w[0]).collect();
        let steal_of = |w: usize| steal.get(w).copied().unwrap_or(0);
        let mut by_steal: Vec<usize> = (0..windows).collect();
        by_steal.sort_by_key(|&w| (steal_of(w), w));
        let quiet = by_steal
            .iter()
            .filter(|&&w| steal_of(w) <= QUIET_STEAL_TICKS)
            .count();
        let mut is_counted = vec![false; windows];
        for &w in &by_steal[..quiet.max(windows.div_ceil(2))] {
            is_counted[w] = true;
        }
        let counted = |w: usize| windows < 2 || is_counted.get(w).copied().unwrap_or(false);
        let (mut reads, mut writes, mut counts) = (Vec::new(), Vec::new(), vec![0u64; windows]);
        for (at, nanos, read) in done {
            let w = (at / WINDOW.as_nanos() as u64) as usize;
            if !counted(w) {
                continue;
            }
            if let Some(c) = counts.get_mut(w) {
                *c += 1;
            }
            if read {
                reads.push(nanos)
            } else {
                writes.push(nanos)
            }
        }
        let rates = if windows < 2 {
            vec![(reads.len() + writes.len()) as f64 / elapsed.as_secs_f64()]
        } else {
            (0..windows)
                .filter(|&w| counted(w))
                .map(|w| counts[w] as f64 / WINDOW.as_secs_f64())
                .collect()
        };
        Phase {
            reads: Samples::new(reads),
            writes: Samples::new(writes),
            rates,
            steal,
            elapsed,
        }
    }

    /// Completed operations per second: the median counted window.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    pub fn end_to_end(&self, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
        let m = |name: &str, value: f64, unit| Metric {
            name: name.into(),
            value,
            unit,
        };
        vec![
            m("setup_s", setup_s, "s"),
            m("ops_per_s", self.ops_per_s(), "1/s"),
            m("latency_p50_us", self.reads.pct_us(50.0), "us"),
            m("latency_p99_us", self.reads.pct_us(99.0), "us"),
            m("rss_peak_mb", rss_mb, "MB"),
        ]
    }

    /// Sample counts, tail depth and the highest trusted percentile, for
    /// the report printed beside the metrics.
    pub fn describe(&self) -> Json {
        let side = |s: &Samples| {
            let top = s.top_trusted();
            Json::obj(vec![
                ("samples", Json::u64(s.len() as u64)),
                ("p50_us", Json::num(s.pct_us(50.0))),
                ("p99_us", Json::num(s.pct_us(99.0))),
                ("beyond_p99", Json::u64(s.beyond(99.0) as u64)),
                ("top_trusted_pct", top.map_or(Json::Null, Json::num)),
                (
                    "top_trusted_us",
                    top.map_or(Json::Null, |p| Json::num(s.pct_us(p))),
                ),
            ])
        };
        Json::obj(vec![
            ("elapsed_s", Json::num(self.elapsed.as_secs_f64())),
            ("windows", Json::u64(self.steal.len() as u64)),
            ("counted_windows", Json::u64(self.rates.len() as u64)),
            (
                "steal_ticks_per_window",
                Json::arr(self.steal.iter().map(|&t| Json::u64(t)).collect()),
            ),
            (
                "ops_per_counted_window",
                Json::arr(self.rates.iter().map(|&r| Json::num(r)).collect()),
            ),
            ("reads", side(&self.reads)),
            ("writes", side(&self.writes)),
        ])
    }

    /// The figures a traced run reports about the phase's own samples.
    pub fn fill_sample_metrics(&self, pl: &mut PerLayer, attempted: u64, failed: u64) {
        pl.set("write_latency_p50_us", self.writes.pct_us(50.0));
        pl.set("write_latency_p99_us", self.writes.pct_us(99.0));
        pl.set("failed_ratio", ratio(failed as f64, attempted as f64));
        pl.set("latency.samples", self.reads.len() as f64);
        if let Some(p) = self.reads.top_trusted() {
            pl.set("latency.top_pct", p);
            pl.set("latency.top_us", self.reads.pct_us(p));
        }
    }

    /// Traced minus untraced end-to-end figures.
    pub fn fill_overhead(&self, traced: &Phase, pl: &mut PerLayer) {
        pl.set(
            "trace.overhead_p50_us",
            traced.reads.pct_us(50.0) - self.reads.pct_us(50.0),
        );
        pl.set(
            "trace.overhead_p99_us",
            traced.reads.pct_us(99.0) - self.reads.pct_us(99.0),
        );
        pl.set(
            "trace.overhead_ops_per_s",
            traced.ops_per_s() - self.ops_per_s(),
        );
    }
}

/// Graph, engine and durability counters at one instant, or the change
/// between two instants (see [`Counters::since`]).
pub struct Counters {
    pub graph: MetricsSnapshot,
    pub engine: StatsSnapshot,
    pub fsyncs: u64,
    pub fsync_nanos: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
}

impl Counters {
    pub fn take(graph: &Db2Graph) -> Counters {
        let db = graph.database();
        Counters {
            graph: graph.metrics(),
            engine: db.stats().snapshot(),
            fsyncs: db.wal_fsync_count(),
            fsync_nanos: db.wal_fsync_sum_nanos(),
            wal_bytes: db.wal_bytes(),
            checkpoints: db.checkpoints(),
        }
    }

    /// Counter changes since `earlier`; gauges keep their latest value.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            graph: self.graph.since(&earlier.graph),
            engine: self.engine.since(&earlier.engine),
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_nanos: self.fsync_nanos - earlier.fsync_nanos,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            checkpoints: self.checkpoints - earlier.checkpoints,
        }
    }
}

impl Counters {
    /// The counters a span carries in the span file.
    pub fn span_counters(&self) -> Vec<(&'static str, u64)> {
        let (g, e) = (&self.graph, &self.engine);
        vec![
            ("sql_statements", g.sql_statements),
            ("sql_wall_nanos", g.sql_wall_nanos),
            ("template_hits", g.template_hits),
            ("template_misses", g.template_misses),
            ("tables_considered", g.tables_considered),
            ("tables_pruned", g.tables_pruned),
            ("adj_cache_hits", g.adj_cache_hits),
            ("adj_cache_misses", g.adj_cache_misses),
            ("rows_read", e.rows_read),
            ("index_probes", e.index_probes),
            ("full_scans", e.full_scans),
            ("exec_nanos", e.exec_nanos),
        ]
    }

    /// Per-layer metrics derived from counter deltas over `ops` graph
    /// operations that returned `results` values.
    pub fn fill(&self, ops: u64, results: u64, pl: &mut PerLayer) {
        let (g, e) = (&self.graph, &self.engine);
        let per_op = |x: u64| ratio(x as f64, ops as f64);
        pl.set(
            "graph_structure.tables_pruned_ratio",
            ratio(g.tables_pruned as f64, g.tables_considered as f64),
        );
        pl.set("graph_structure.sql_per_op", per_op(g.sql_statements));
        pl.set("sql_dialect.sql_us_per_op", per_op(g.sql_wall_nanos) / 1e3);
        pl.set(
            "sql_dialect.template_hit_ratio",
            ratio(
                g.template_hits as f64,
                (g.template_hits + g.template_misses) as f64,
            ),
        );
        pl.set("reldb.exec_us_per_op", per_op(e.exec_nanos) / 1e3);
        pl.set(
            "reldb.rows_read_per_result",
            ratio(e.rows_read as f64, results as f64),
        );
        pl.set("reldb.index_probes_per_op", per_op(e.index_probes));
        pl.set("reldb.full_scans_per_op", per_op(e.full_scans));
        pl.set(
            "adjcache.hit_ratio",
            ratio(
                g.adj_cache_hits as f64,
                (g.adj_cache_hits + g.adj_cache_misses) as f64,
            ),
        );
        pl.set("adjcache.evictions", g.adj_cache_evictions as f64);
        pl.set("adjcache.invalidations", g.adj_cache_invalidations as f64);
        pl.set("vacuum.versions_reclaimed", g.vacuumed_versions as f64);
        pl.set("checkpoint.count", self.checkpoints as f64);
    }

    /// Durability metrics per acknowledged write.
    pub fn fill_durability(&self, writes: u64, pl: &mut PerLayer) {
        pl.set(
            "durability.fsyncs_per_write",
            ratio(self.fsyncs as f64, writes as f64),
        );
        pl.set(
            "durability.fsync_us",
            ratio(self.fsync_nanos as f64, self.fsyncs as f64) / 1e3,
        );
        pl.set(
            "durability.wal_bytes_per_write",
            ratio(self.wal_bytes as f64, writes as f64),
        );
    }
}

/// One set-up: its wall time, the adjacency-cache warm-up inside it and
/// the machine's steal ticks while it ran.
pub struct SetupTiming {
    pub total_s: f64,
    pub warm_s: f64,
    pub steal_ticks: u64,
}

impl SetupTiming {
    /// Time `setup`, which returns what it set up and the seconds its
    /// warm-up took, recording the steal ticks that fell inside it.
    pub fn measure<T>(setup: impl FnOnce() -> (T, f64)) -> (T, SetupTiming) {
        let steal = CpuClock::now().steal;
        let t = Instant::now();
        let (out, warm_s) = setup();
        let timing = SetupTiming {
            total_s: t.elapsed().as_secs_f64(),
            warm_s,
            steal_ticks: CpuClock::now().steal - steal,
        };
        (out, timing)
    }

    /// At most [`QUIET_STEAL_TICKS`] of steal per second, the limit a
    /// counted window of the measured phase keeps.
    fn quiet(&self) -> bool {
        self.steal_ticks as f64 <= QUIET_STEAL_TICKS as f64 * self.total_s.max(1.0)
    }
}

/// Set-ups counted per run; `setup_s` is the median of their wall times.
/// One runs in the measuring process, which then holds exactly one
/// set-up, so `rss_peak_mb` is its own. The others run in child
/// processes, one after another: [`CHILD_SETUPS`] before the measured
/// phase and as many after it, so a slow spell of the host meets only
/// some of them.
const SETUPS: usize = 1 + 2 * CHILD_SETUPS;
const CHILD_SETUPS: usize = 2;

/// Time set-ups, each in a child process of this executable started with
/// `--setup-only 1` (which prints `<total_s> <warm_s> <steal_ticks>`
/// last), until `CHILD_SETUPS` of them were quiet. A set-up during which
/// the host stole more than a quiet share of the CPU is repeated, once at
/// most, so that a run on a busy host does not take much longer.
pub fn child_setups(args: &crate::Args) -> Vec<SetupTiming> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut timings: Vec<SetupTiming> = Vec::new();
    while timings.iter().filter(|t| t.quiet()).count() < CHILD_SETUPS
        && timings.len() < CHILD_SETUPS + 1
    {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--setup-only", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run set-up child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let nums: Vec<f64> = stdout
            .lines()
            .last()
            .unwrap_or("")
            .split(' ')
            .filter_map(|v| v.parse().ok())
            .collect();
        assert!(
            out.status.success() && nums.len() == 3,
            "set-up child failed: {stdout}"
        );
        timings.push(SetupTiming {
            total_s: nums[0],
            warm_s: nums[1],
            steal_ticks: nums[2] as u64,
        });
    }
    timings
}

/// The `SETUPS` set-ups that count: the quiet ones first, in the order
/// they ran, then the others by least steal.
pub fn counted_setups(timings: &[SetupTiming]) -> Vec<&SetupTiming> {
    let mut order: Vec<&SetupTiming> = timings.iter().collect();
    order.sort_by_key(|t| if t.quiet() { 0 } else { t.steal_ticks });
    order.truncate(SETUPS);
    order
}

/// The set-ups of a run for the report line: wall times, warm-up times
/// and steal ticks of every set-up tried, and the median that counts.
pub fn setup_info(timings: &[SetupTiming]) -> Json {
    let nums = |f: &dyn Fn(&SetupTiming) -> f64| {
        Json::arr(timings.iter().map(|t| Json::num(f(t))).collect())
    };
    Json::obj(vec![
        ("total_s", nums(&|t| t.total_s)),
        ("warm_s", nums(&|t| t.warm_s)),
        ("steal_ticks", nums(&|t| t.steal_ticks as f64)),
        ("setup_s", Json::num(setup_s(timings))),
    ])
}

/// `setup_s`: the median wall time of the counted set-ups.
pub fn setup_s(timings: &[SetupTiming]) -> f64 {
    let counted: Vec<f64> = counted_setups(timings).iter().map(|t| t.total_s).collect();
    median(&counted)
}

/// What `Db2Graph::warm_adjacency_cache` did on a freshly opened graph.
pub struct WarmUp {
    pub seconds: f64,
    pub edges: usize,
    pub cache_bytes: u64,
    pub evictions: u64,
}

/// Time `Db2Graph::warm_adjacency_cache` on a freshly opened graph.
pub fn warm(graph: &Db2Graph) -> WarmUp {
    let evictions = graph.metrics().adj_cache_evictions;
    let t = Instant::now();
    let edges = graph.warm_adjacency_cache().expect("warm adjacency cache");
    let seconds = t.elapsed().as_secs_f64();
    let after = graph.metrics();
    WarmUp {
        seconds,
        edges,
        cache_bytes: after.adj_cache_bytes,
        evictions: after.adj_cache_evictions - evictions,
    }
}

/// An adjacency-cache budget (MiB) that holds every edge of each
/// workload's data.
const WHOLE_DATA_CACHE_MB: usize = 4096;

/// Resident adjacency-cache bytes per cached edge: `adj_cache_bytes` over
/// the edges `warm_adjacency_cache()` returned, on a second graph over
/// `graph`'s database whose budget holds every edge. The default budget
/// evicts during the warm-up on `lb_point` and `lb_2hop`, and a ratio
/// taken there would follow the budget, not the cache's representation.
pub fn cache_bytes_per_edge(graph: &Db2Graph) -> f64 {
    let options = GraphOptions {
        adj_cache_mb: Some(WHOLE_DATA_CACHE_MB),
        ..GraphOptions::default()
    };
    let whole = Db2Graph::open_with_options(graph.database().clone(), &overlay_config(), options)
        .expect("open graph with a whole-data cache");
    let w = warm(&whole);
    assert_eq!(w.evictions, 0, "the whole-data cache evicted");
    ratio(w.cache_bytes as f64, w.edges as f64)
}

/// Run `work` while a second thread reads the machine's steal clock at
/// `start` and at every 1-second window boundary up to `seconds` later.
pub fn steal_marks<T>(start: Instant, seconds: f64, work: impl FnOnce() -> T) -> (T, Vec<u64>) {
    let first = CpuClock::now().steal;
    std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut marks = vec![first];
            for k in 1..=seconds as u32 {
                let at = start + WINDOW * k;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push(CpuClock::now().steal);
            }
            marks
        });
        let out = work();
        (out, sampler.join().expect("steal sampler thread"))
    })
}

/// CPU clocks read from `/proc`: the machine's steal time (CPU the
/// hypervisor gave to other guests) and this process's CPU time, in
/// clock ticks. A phase with much steal ran on a contended host.
pub struct CpuClock {
    steal: u64,
    process: u64,
}

impl CpuClock {
    pub fn now() -> CpuClock {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let steal = stat
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let own = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // utime and stime are fields 14 and 15 of the line; the fields
        // after the parenthesised command name start at field 3.
        let f: Vec<&str> = own
            .rsplit(')')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        let field = |n: usize| {
            f.get(n - 3)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        let process = field(14) + field(15);
        CpuClock { steal, process }
    }

    /// Seconds of steal and of process CPU since `earlier` (100 ticks/s).
    pub fn since(&self, earlier: &CpuClock) -> Json {
        Json::obj(vec![
            (
                "steal_s",
                Json::num((self.steal - earlier.steal) as f64 / 100.0),
            ),
            (
                "process_cpu_s",
                Json::num((self.process - earlier.process) as f64 / 100.0),
            ),
        ])
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Machine and system settings every run records.
pub fn machine_info(graph: &Db2Graph) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget_mb = graph.adj_cache().map_or(0, |_| {
        std::env::var(db2graph_core::ADJ_CACHE_MB_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(db2graph_core::DEFAULT_ADJ_CACHE_MB)
    });
    Json::obj(vec![
        ("cores", Json::u64(cores as u64)),
        ("intra_query_threads", Json::u64(graph.threads() as u64)),
        ("adj_cache_budget_mb", Json::u64(budget_mb as u64)),
    ])
}
