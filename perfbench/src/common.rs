//! What the three workloads share: configuration, document loading, the
//! golden XMark digests, the statement paths through the public API, and
//! the XQUF statement stream.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mxq_xmark::naive::NaiveInterpreter;
use mxq_xmark::{query_text, QUERY_IDS};
use mxq_xmldb::{shred, DocStore, ShredOptions};
use mxq_xquery::analysis::{analyze, simplify, verify, Analysis};
use mxq_xquery::{
    parse_statement, serialize_items_snapshot, Compiler, Database, Error, ExecConfig, ExecStats,
    Executor, QueryResult, Session, Statement, UpdateReport,
};

use crate::trace::{Scope, Span, Tracer};
use crate::util::Digest;

/// XMark scale factor of the queried document (3.86 MB of XML).
pub const SCALE: f64 = 0.1;
/// XMark scale factor of each `durable_commit` writer's own document.
pub const WRITER_SCALE: f64 = 0.01;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scale factor of `auction.xml`.
    pub scale: f64,
    /// Scale factor of the `durable_commit` writer documents.
    pub writer_scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Cold opens per `durable_commit` run.
    pub cold_opens: usize,
    /// Expected Q1–Q20 results on `auction.xml`.
    pub golden: Golden,
    /// Scratch directory for on-disk databases and trace files.
    pub work_dir: PathBuf,
}

/// What a workload run reports: statement counts and named metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one checked statement or end-of-run check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn keep_spans(&mut self, tracer: &Tracer) {
        self.spans.extend(tracer.spans());
    }
}

// ---------------------------------------------------------------------------
// loading
// ---------------------------------------------------------------------------

/// Time split of one document load.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadTimes {
    pub shred_ms: f64,
    pub publish_ms: f64,
}

/// Load `xml` under `name` as `Database::load_document` does, timing the
/// shred and the publish (`Database::load_shredded`) apart.
pub fn load(db: &Database, name: &str, xml: &str) -> Result<LoadTimes, Error> {
    let opts = ShredOptions {
        document_node: true,
        ..ShredOptions::default()
    };
    let t = Instant::now();
    let doc = shred(name, xml, &opts)?;
    let shred_ms = ms(t);
    let t = Instant::now();
    db.load_shredded(doc)?;
    Ok(LoadTimes {
        shred_ms,
        publish_ms: ms(t),
    })
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// golden results
// ---------------------------------------------------------------------------

/// The committed digests of Q1–Q20 on XMark sf 0.1, seed 42, produced by
/// the naive interpreter (`--make-golden` regenerates the file).
pub const GOLDEN_FILE: &str = "golden/xmark_sf0.1_seed42.txt";
const GOLDEN_SF01: &str = include_str!("../golden/xmark_sf0.1_seed42.txt");

/// Expected digests of the serialized results of Q1–Q20.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden(Vec<Digest>);

impl Golden {
    /// The committed digests for `auction.xml` at sf 0.1.
    pub fn committed() -> Result<Self, String> {
        Self::parse(GOLDEN_SF01)
    }

    /// Parse lines `qNN <bytes> <fnv1a64 hex>`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut digests = Vec::new();
        for (i, line) in text.lines().filter(|l| !l.starts_with('#')).enumerate() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let ok = f.len() == 3 && f[0] == format!("q{:02}", i + 1);
            let len = f.get(1).and_then(|v| v.parse().ok());
            let fnv = f.get(2).and_then(|v| u64::from_str_radix(v, 16).ok());
            match (ok, len, fnv) {
                (true, Some(len), Some(fnv)) => digests.push(Digest { len, fnv }),
                _ => return Err(format!("bad golden line {}: `{line}`", i + 1)),
            }
        }
        if digests.len() != QUERY_IDS.len() {
            return Err(format!("golden file has {} of 20 queries", digests.len()));
        }
        Ok(Golden(digests))
    }

    /// Evaluate Q1–Q20 with the naive DOM-walking interpreter, the
    /// repository's oracle.
    pub fn oracle(xml: &str) -> Self {
        let mut store = DocStore::new();
        store
            .load_xml("auction.xml", xml)
            .expect("XMark document loads");
        let mut naive = NaiveInterpreter::new(&mut store);
        Golden(
            QUERY_IDS
                .iter()
                .map(|&id| {
                    let items = naive
                        .run(query_text(id))
                        .unwrap_or_else(|e| panic!("naive Q{id} failed: {e:?}"));
                    Digest::of(&naive.serialize(&items))
                })
                .collect(),
        )
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, d) in self.0.iter().enumerate() {
            out.push_str(&format!("q{:02} {} {:016x}\n", i + 1, d.len, d.fnv));
        }
        out
    }

    pub fn matches(&self, id: usize, serialized: &str) -> bool {
        self.0[id - 1] == Digest::of(serialized)
    }

    /// Flip the expected digest of query `id` (self-check only).
    pub fn corrupt(&mut self, id: usize) {
        self.0[id - 1].fnv ^= 1;
    }
}

// ---------------------------------------------------------------------------
// statement paths
// ---------------------------------------------------------------------------

/// A read through the public API: `Session::prepare`, `Prepared::execute`,
/// then the lazy `QueryResult::serialize`.
pub fn read(session: &mut Session, text: &str, scope: Scope) -> Result<QueryResult, Error> {
    let stmt = scope.span("prepare.read", |_| session.prepare(text))?;
    let result = scope.span("exec.read", |_| stmt.execute()?.into_query())?;
    scope.span("serialize.read", |_| {
        result.serialize();
    });
    Ok(result)
}

/// A write through the public API: `Session::prepare` then
/// `Prepared::execute` (evaluate, latch, splice, log, publish).
pub fn write(session: &mut Session, text: &str, scope: Scope) -> Result<UpdateReport, Error> {
    let stmt = scope.span("prepare", |_| session.prepare(text))?;
    scope.span("commit", |_| stmt.execute()?.into_update())
}

/// The front end of `Database::compile_statement`, called layer by layer:
/// `parse_statement`, `Compiler::compile_*`, then `analyze`/`verify`/
/// `simplify`.  Returns the plan for a query, `None` for an update.
pub fn compile_layers(
    text: &str,
    config: ExecConfig,
    scope: Scope,
) -> Result<Option<mxq_xquery::PlanRef>, Error> {
    let stmt = scope.span("parser", |_| parse_statement(text))?;
    let mut compiler = Compiler::new(config);
    match stmt {
        Statement::Query(q) => {
            let plan = scope.span("compile", |_| compiler.compile_query(&q))?;
            scope.span("analysis", |_| {
                let a = analyze(&plan);
                verify(&plan, &a)?;
                let plan = simplify(&plan, &a).plan;
                verify(&plan, &analyze(&plan))?;
                Ok(Some(plan))
            })
        }
        Statement::Update(u) => {
            let plan = scope.span("compile", |_| compiler.compile_update(&u))?;
            scope.span("analysis", |_| {
                let mut a = Analysis::default();
                for root in plan.roots() {
                    a.extend_with(root);
                }
                for root in plan.roots() {
                    verify(root, &a)?;
                }
                Ok(None)
            })
        }
    }
}

/// A query with every layer called directly: the compile front end, then
/// `Executor::eval_result` + `finish`, then `serialize_items_snapshot`.
pub fn layered_query(
    db: &Database,
    text: &str,
    scope: Scope,
) -> Result<(String, ExecStats), Error> {
    let config = ExecConfig::default();
    let plan = compile_layers(text, config, scope)?
        .ok_or(Error::WrongStatementKind { expected: "query" })?;
    let snap = db.snapshot();
    let (items, transient, stats) = scope.span("exec", |_| -> Result<_, Error> {
        let mut exec = Executor::new(&snap, config);
        let items = exec.eval_result(&plan)?;
        let (transient, stats) = exec.finish();
        Ok((items, transient, stats))
    })?;
    let out = scope.span("serialize", |_| {
        serialize_items_snapshot(&snap, &transient, &items)
    });
    Ok((out, stats))
}

/// Counters of one layered Q1–Q20 pass.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    pub total: ExecStats,
    /// Join pairs of Q10, Q11 and Q12.
    pub join_pairs_q10_12: [u64; 3],
    pub wall_ms: f64,
}

/// One Q1–Q20 pass in `order` through [`layered_query`], each query a root
/// span with request id `100 * pass + query id`.  With `golden`, every
/// result is checked against its digest.
pub fn layered_pass(
    db: &Database,
    order: &[usize],
    pass: u64,
    golden: Option<&Golden>,
    tracer: &Tracer,
    out: &mut Outcome,
) -> PassStats {
    let mut acc = PassStats::default();
    let started = Instant::now();
    for &id in order {
        let root = Tracer::root(Some(tracer), 100 * pass + id as u64);
        let result = root.span("query", |s| layered_query(db, query_text(id), s));
        let Ok((text, stats)) = result else {
            out.check(false);
            continue;
        };
        out.check(golden.is_none_or(|g| g.matches(id, &text)));
        add_stats(&mut acc.total, &stats);
        if (10..=12).contains(&id) {
            acc.join_pairs_q10_12[id - 10] = stats.join_pairs;
        }
    }
    acc.wall_ms = ms(started);
    acc
}

fn add_stats(acc: &mut ExecStats, s: &ExecStats) {
    acc.staircase.merge(&s.staircase);
    acc.sorts += s.sorts;
    acc.sorts_avoided += s.sorts_avoided;
    acc.ops_evaluated += s.ops_evaluated;
    acc.rows_materialized += s.rows_materialized;
    acc.peak_rows = acc.peak_rows.max(s.peak_rows);
    acc.join_pairs += s.join_pairs;
    acc.constructed_nodes += s.constructed_nodes;
    acc.proven_dict_joins += s.proven_dict_joins;
}

/// Per-layer metrics of the layered passes recorded in `tracer`: layer
/// self times per pass, per-query exec times (medians over passes), and
/// the counters of the last pass.
pub fn pass_layer_metrics(tracer: &Tracer, passes: &[PassStats], out: &mut Outcome) {
    let n = passes.len().max(1) as f64;
    let own = tracer.self_ms();
    let per_pass = |name: &str| own.get(name).copied().unwrap_or(0.0) / n;
    out.set("parser.parse_ms", per_pass("parser"));
    out.set("compile.compile_ms", per_pass("compile"));
    out.set("analysis.analyze_ms", per_pass("analysis"));
    out.set("exec.eval_ms", per_pass("exec"));
    out.set("serialize.serialize_ms", per_pass("serialize"));

    let per_query = |name: &str, id: usize| {
        let v: Vec<f64> = tracer
            .durations(name)
            .into_iter()
            .filter(|(req, _)| req % 100 == id as u64)
            .map(|(_, ms)| ms)
            .collect();
        crate::util::median(&v)
    };
    let exec_q: Vec<f64> = QUERY_IDS.iter().map(|&id| per_query("exec", id)).collect();
    for (i, name) in crate::EXEC_QUERY_METRICS.iter().enumerate() {
        out.set(name, exec_q[i]);
    }
    out.set("serialize.q10_ms", per_query("serialize", 10));
    let query_ms: Vec<f64> = QUERY_IDS.iter().map(|&id| per_query("query", id)).collect();
    out.set("xmark.geomean_ms", crate::util::geomean(&query_ms));
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    out.set("xmark.pass_ms", crate::util::median(&walls));

    let Some(last) = passes.last() else { return };
    let s = &last.total;
    out.set("exec.rows_materialized", s.rows_materialized as f64);
    out.set("exec.peak_rows", s.peak_rows as f64);
    out.set("exec.ops_evaluated", s.ops_evaluated as f64);
    out.set("exec.constructed_nodes", s.constructed_nodes as f64);
    out.set("engine.join_pairs", s.join_pairs as f64);
    out.set("engine.q10_join_pairs", last.join_pairs_q10_12[0] as f64);
    out.set("engine.q11_join_pairs", last.join_pairs_q10_12[1] as f64);
    out.set("engine.q12_join_pairs", last.join_pairs_q10_12[2] as f64);
    out.set("engine.sorts", s.sorts as f64);
    out.set("engine.sorts_avoided", s.sorts_avoided as f64);
    out.set("engine.proven_dict_joins", s.proven_dict_joins as f64);
    out.set("staircase.nodes_scanned", s.staircase.nodes_scanned as f64);
    out.set("staircase.pages_skipped", s.staircase.pages_skipped as f64);
    out.set("staircase.passes", s.staircase.passes as f64);
    out.set("staircase.contexts", s.staircase.contexts as f64);
}

/// Q1–Q20 in an order drawn from `rng`.
pub fn query_order(rng: &mut crate::util::Rng) -> Vec<usize> {
    let mut order = QUERY_IDS.to_vec();
    rng.shuffle(&mut order);
    order
}

// ---------------------------------------------------------------------------
// the XQUF statement stream
// ---------------------------------------------------------------------------

/// The five statement kinds of the mixed workload, against open auction
/// `auction` (1-based) of `doc`.  The trailing comment makes every text
/// unique, so every write misses the plan cache.
pub fn update_text(doc: &str, op: u64, auction: usize, kind: usize) -> String {
    let a = format!("doc(\"{doc}\")/site/open_auctions/open_auction[{auction}]");
    let stmt = match kind {
        0 => format!(
            "insert nodes <bidder><date>2006-07-{:02}</date>\
             <increase>{}.50</increase></bidder> as last into {a}",
            1 + op % 28,
            1 + op % 9
        ),
        1 => format!("delete nodes {a}/bidder[1]"),
        2 => format!(
            "replace value of node {a}/current with \"{}.37\"",
            100 + op % 400
        ),
        3 => format!(
            "replace node {a}/annotation/happiness with <happiness>{}</happiness>",
            op % 10
        ),
        _ => format!("rename node {a}/type as \"type\""),
    };
    format!("{stmt} (: op {op} :)")
}

/// Number of kinds [`update_text`] knows.
pub const UPDATE_KINDS: usize = 5;

/// The change a write of `kind` made to the document's bidder count.
pub fn bidder_delta(kind: usize, report: &UpdateReport) -> i64 {
    match kind {
        0 => report.primitives as i64,
        1 => -(report.primitives as i64),
        _ => 0,
    }
}

/// Whether a write's primitive count is the one its kind must produce:
/// one, or at most one for a delete (the auction may have no bidder).
pub fn primitives_ok(kind: usize, report: &UpdateReport) -> bool {
    if kind == 1 {
        report.primitives <= 1
    } else {
        report.primitives == 1
    }
}

/// The bidder count of `doc`.
pub fn bidders(doc: &str) -> String {
    format!("count(doc(\"{doc}\")/site/open_auctions/open_auction/bidder)")
}

/// The three reads of the mixed workload.
pub fn mixed_reads() -> [String; 3] {
    [
        query_text(1).to_string(),
        bidders("auction.xml"),
        "for $a in doc(\"auction.xml\")/site/open_auctions/open_auction \
         where $a/current > 100 return $a/current/text()"
            .to_string(),
    ]
}

/// Run a query through the public API and return its serialization.
pub fn query_string(db: &Arc<Database>, text: &str) -> Result<String, Error> {
    Ok(db.execute(text)?.into_query()?.serialize().to_string())
}

/// The integer a count query returns.
pub fn count(db: &Arc<Database>, text: &str) -> Result<i64, Error> {
    let s = query_string(db, text)?;
    Ok(s.trim().parse().unwrap_or(-1))
}

pub fn open_auctions(db: &Arc<Database>, doc: &str) -> Result<usize, Error> {
    let n = count(
        db,
        &format!("count(doc(\"{doc}\")/site/open_auctions/open_auction)"),
    )?;
    Ok(n.max(0) as usize)
}

// ---------------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------------

/// The set-ups of an in-memory workload: each generates `auction.xml`,
/// loads it into a fresh `Database` and answers a first query (Q1).
#[derive(Debug)]
pub struct Setup {
    /// The last set-up's database, the one a workload measures.
    pub db: Arc<Database>,
    pub setup_s: Vec<f64>,
    pub generate_ms: Vec<f64>,
    pub load: Vec<LoadTimes>,
    /// First Q1 on each freshly loaded database.
    pub first_ms: Vec<f64>,
    /// RSS growth of the first load per node loaded.
    pub rss_per_node_b: f64,
}

/// Set-ups made before the measured loop; the rest of `Config::setups`
/// run after it, so that the samples span the whole run.
pub fn head_setups(cfg: &Config) -> usize {
    cfg.setups - cfg.setups / 2
}

impl Setup {
    pub fn new(cfg: &Config, out: &mut Outcome) -> Self {
        let mut setup = Setup {
            db: Arc::new(Database::new()),
            setup_s: Vec::new(),
            generate_ms: Vec::new(),
            load: Vec::new(),
            first_ms: Vec::new(),
            rss_per_node_b: 0.0,
        };
        setup.run(cfg, head_setups(cfg).max(1), out);
        setup
    }

    /// Run `n` more set-ups; the previous database goes before each loads.
    pub fn run(&mut self, cfg: &Config, n: usize, out: &mut Outcome) {
        for _ in 0..n {
            self.db = Arc::new(Database::new());
            let started = Instant::now();
            let xml = mxq_xmark::generate_xml(&mxq_xmark::GenParams::with_factor(cfg.scale));
            self.generate_ms.push(ms(started));
            let rss_before = crate::util::rss_bytes();
            let times = load(&self.db, "auction.xml", &xml).expect("XMark document loads");
            self.setup_s.push(started.elapsed().as_secs_f64());
            self.load.push(times);
            // later loads reuse the heap the earlier ones freed
            if self.setup_s.len() == 1 {
                let nodes = self.db.store().total_nodes().max(1);
                let grown = crate::util::rss_bytes().saturating_sub(rss_before);
                self.rss_per_node_b = grown as f64 / nodes as f64;
            }
            let mut session = self.db.session();
            let t = Instant::now();
            let first = read(&mut session, query_text(1), Tracer::root(None, 0));
            self.first_ms.push(ms(t));
            out.check(first.is_ok_and(|r| cfg.golden.matches(1, r.serialize())));
        }
    }

    /// The set-ups after the measured loop (the measured database is
    /// dropped first).
    pub fn finish(&mut self, cfg: &Config, out: &mut Outcome) {
        self.run(cfg, cfg.setups / 2, out);
        self.db = Arc::new(Database::new());
    }
}

/// Per-layer metrics of the load path shared by every workload.
pub fn load_layer_metrics(
    resident_page_bytes: usize,
    generate_ms: &[f64],
    load: &[LoadTimes],
    rss_per_node_b: f64,
    out: &mut Outcome,
) {
    use crate::util::median;
    out.set("xmark.generate_ms", median(generate_ms));
    let shred: Vec<f64> = load.iter().map(|l| l.shred_ms).collect();
    let publish: Vec<f64> = load.iter().map(|l| l.publish_ms).collect();
    out.set("xmldb.shred_ms", median(&shred));
    out.set("xmldb.publish_ms", median(&publish));
    out.set("xmldb.resident_page_bytes", resident_page_bytes as f64);
    out.set("xmldb.rss_per_node_b", rss_per_node_b);
}

// ---------------------------------------------------------------------------
// the writer loop
// ---------------------------------------------------------------------------

/// What one writer thread did.
#[derive(Debug, Default)]
pub struct WriterResult {
    /// Latencies (ms) of the writes without spans.
    pub plain_ms: Vec<f64>,
    /// Latencies (ms) of the traced writes (every other write in a traced
    /// run).
    pub traced_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Net bidders added, from each write's `UpdateReport::primitives`.
    pub bidder_tally: i64,
    pub primitives: u64,
    pub tuples_written: u64,
    pub pages_touched: u64,
    pub pages_allocated: u64,
}

impl WriterResult {
    pub fn writes(&self) -> usize {
        self.plain_ms.len() + self.traced_ms.len()
    }
}

/// Loop the five statement kinds on random open auctions of `doc` until
/// `deadline`.  In a traced run every other write is traced; a traced
/// write first runs the compile front end layer by layer in its own root
/// span (`shadow`), then the write itself under a `write` root span.
pub fn writer_loop(
    db: &Arc<Database>,
    doc: &str,
    seed: u64,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> WriterResult {
    let mut res = WriterResult::default();
    let auctions = open_auctions(db, doc).unwrap_or(0);
    if auctions == 0 {
        res.attempted = 1;
        res.failed = 1;
        return res;
    }
    let mut session = db.session();
    let mut rng = crate::util::Rng::new(seed);
    let mut op: u64 = 0;
    while Instant::now() < deadline {
        let kind = rng.below(UPDATE_KINDS);
        let text = update_text(doc, op, rng.below(auctions) + 1, kind);
        let traced = tracer.filter(|_| op % 2 == 1);
        if traced.is_some() {
            let shadow = Tracer::root(traced, op);
            let front = shadow.span("shadow", |s| compile_layers(&text, session.config(), s));
            if front.is_err() {
                res.failed += 1;
            }
        }
        let t = Instant::now();
        let report = Tracer::root(traced, op).span("write", |s| write(&mut session, &text, s));
        let lat = ms(t);
        res.attempted += 1;
        match report {
            Ok(report) => {
                res.failed += u64::from(!primitives_ok(kind, &report));
                res.bidder_tally += bidder_delta(kind, &report);
                res.primitives += report.primitives as u64;
                res.tuples_written += report.stats.tuples_written;
                res.pages_touched += report.stats.pages_touched;
                res.pages_allocated += report.stats.pages_allocated;
                if traced.is_some() {
                    res.traced_ms.push(lat);
                } else {
                    res.plain_ms.push(lat);
                }
            }
            Err(e) => {
                eprintln!("write failed: {e}: {text}");
                res.failed += 1;
            }
        }
        op += 1;
    }
    res
}

/// Per-layer metrics of the writes in `writers` (traced spans in `tracer`).
pub fn write_layer_metrics(tracer: &Tracer, writers: &[WriterResult], out: &mut Outcome) {
    use crate::util::{median, ratio};
    let writes: usize = writers.iter().map(WriterResult::writes).sum();
    let traced: usize = writers.iter().map(|w| w.traced_ms.len()).sum();
    let own = tracer.self_ms();
    let per_traced = |name: &str| ratio(own.get(name).copied().unwrap_or(0.0), traced as f64);
    out.set("prepare.write_ms", per_traced("prepare"));
    out.set("commit.write_ms", per_traced("commit"));
    out.set("parser.parse_ms", per_traced("parser"));
    out.set("compile.compile_ms", per_traced("compile"));
    out.set("analysis.analyze_ms", per_traced("analysis"));
    let sum = |f: fn(&WriterResult) -> u64| writers.iter().map(f).sum::<u64>() as f64;
    out.set(
        "pul.primitives_per_write",
        ratio(sum(|w| w.primitives), writes as f64),
    );
    out.set(
        "xmldb.tuples_written_per_write",
        ratio(sum(|w| w.tuples_written), writes as f64),
    );
    out.set(
        "xmldb.pages_touched_per_write",
        ratio(sum(|w| w.pages_touched), writes as f64),
    );
    out.set("xmldb.pages_allocated", sum(|w| w.pages_allocated));
    let plain: Vec<f64> = writers.iter().flat_map(|w| w.plain_ms.clone()).collect();
    let traced_ms: Vec<f64> = writers.iter().flat_map(|w| w.traced_ms.clone()).collect();
    out.set(
        "trace.overhead_pct",
        100.0 * (ratio(median(&traced_ms), median(&plain)) - 1.0),
    );
}
