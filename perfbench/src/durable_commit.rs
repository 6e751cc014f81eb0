//! `durable_commit`: an on-disk database under
//! `SyncPolicy::GroupCommit(2 ms)` with background checkpoints every
//! second.  It holds XMark `auction.xml` plus one small copy per writer;
//! two writer threads each commit the mixed workload's statement kinds to
//! their own document.  The run ends with a final checkpoint, a drop and
//! cold opens, each followed by the first query on every document.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mxq_xmark::{generate_xml, query_text, GenParams};
use mxq_xquery::{Database, DatabaseStats, DurabilityOptions, SyncPolicy};

use crate::common::{
    bidders, count, head_setups, layered_pass, load, load_layer_metrics, ms, pass_layer_metrics,
    query_order, query_string, read, write_layer_metrics, writer_loop, Config, LoadTimes, Outcome,
};
use crate::trace::Tracer;
use crate::util::{dir_bytes, median, peak_rss_mb, quantile, ratio, rss_bytes, Rng};

const WRITERS: usize = 2;

fn writer_doc(w: usize) -> String {
    format!("auction-w{w}.xml")
}

fn options(background: bool) -> DurabilityOptions {
    DurabilityOptions {
        sync: SyncPolicy::GroupCommit(Duration::from_millis(2)),
        memory_budget: None,
        checkpoint_interval: background.then_some(Duration::from_secs(1)),
    }
}

/// One set-up: generate the documents, open a fresh directory, load them.
struct Loaded {
    db: Arc<Database>,
    setup_s: f64,
    generate_ms: f64,
    auction: LoadTimes,
    xml_bytes: u64,
    rss_per_node_b: f64,
}

fn set_up(cfg: &Config, dir: &Path) -> Loaded {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let xml = generate_xml(&GenParams::with_factor(cfg.scale));
    let small = generate_xml(&GenParams::with_factor(cfg.writer_scale));
    let generate_ms = ms(started);
    let db = Arc::new(Database::open_with(dir, options(true)).expect("durable open"));
    let rss_before = rss_bytes();
    let auction = load(&db, "auction.xml", &xml).expect("auction.xml loads");
    let nodes = db.store().total_nodes().max(1);
    let rss_per_node_b = rss_bytes().saturating_sub(rss_before) as f64 / nodes as f64;
    for w in 0..WRITERS {
        load(&db, &writer_doc(w), &small).expect("writer document loads");
    }
    Loaded {
        db,
        setup_s: started.elapsed().as_secs_f64(),
        generate_ms,
        auction,
        xml_bytes: (xml.len() + WRITERS * small.len()) as u64,
        rss_per_node_b,
    }
}

/// The serialization of every document, in a fixed order.
fn serialize_all(db: &Arc<Database>) -> Option<Vec<String>> {
    let mut docs = vec!["auction.xml".to_string()];
    docs.extend((0..WRITERS).map(writer_doc));
    docs.iter()
        .map(|d| query_string(db, &format!("doc(\"{d}\")")).ok())
        .collect()
}

fn delta(after: &DatabaseStats, before: &DatabaseStats, f: fn(&DatabaseStats) -> u64) -> f64 {
    (f(after) - f(before)) as f64
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let dir = cfg.work_dir.join(format!("durable-{}", std::process::id()));

    let mut setup_s = Vec::new();
    let mut rss_per_node_b = 0.0;
    let mut loaded = None;
    for k in 0..head_setups(cfg).max(1) {
        // the previous set-up's database is dropped (and its background
        // checkpointer joined) before the directory is recreated
        drop(loaded.take());
        let l = set_up(cfg, &dir);
        setup_s.push(l.setup_s);
        // later loads reuse the heap the earlier ones freed
        if k == 0 {
            rss_per_node_b = l.rss_per_node_b;
        }
        loaded = Some(l);
    }
    let loaded = loaded.expect("one set-up");
    let db = loaded.db;

    let mut bidders_before = Vec::new();
    for w in 0..WRITERS {
        bidders_before.push(count(&db, &bidders(&writer_doc(w))).unwrap_or(-1));
    }

    let stats_before = db.stats();
    let tracer = Tracer::new();
    let traced = cfg.trace.then_some(&tracer);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.seconds);
    let writers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = &db;
                let seed = cfg.seed ^ (w as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d);
                s.spawn(move || writer_loop(db, &writer_doc(w), seed, deadline, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats_run = db.stats();
    for w in &writers {
        out.attempted += w.attempted;
        out.failed += w.failed;
    }

    let t = Instant::now();
    out.check(db.checkpoint().is_ok());
    let checkpoint_ms = ms(t);
    let stats_end = db.stats();
    let resident_page_bytes = db.store().resident_page_bytes();
    let before_close = serialize_all(&db);
    out.check(before_close.is_some());
    drop(db);
    let disk_bytes = dir_bytes(&dir);

    // cold opens: open the checkpointed directory, then the first query on
    // every document (Q1 on auction.xml first)
    let read_tracer = Tracer::new();
    let read_traced = cfg.trace.then_some(&read_tracer);
    let (mut open_ms, mut first_q1_ms, mut first_all_ms, mut warm_q1_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut read_ms = Vec::new();
    let mut replays = 0;
    let mut reopened = None;
    for k in 0..cfg.cold_opens.max(1) as u64 {
        reopened = None;
        let t = Instant::now();
        let db = match Database::open_with(&dir, options(false)) {
            Ok(db) => Arc::new(db),
            Err(e) => {
                eprintln!("cold open failed: {e}");
                out.check(false);
                continue;
            }
        };
        open_ms.push(ms(t));
        replays = replays.max(db.stats().recovery_replays);
        let mut session = db.session();
        let mut all = 0.0;
        let t = Instant::now();
        let q1 =
            Tracer::root(read_traced, k).span("read", |s| read(&mut session, query_text(1), s));
        let lat = ms(t);
        first_q1_ms.push(lat);
        read_ms.push(lat);
        all += lat;
        out.check(q1.is_ok_and(|r| cfg.golden.matches(1, r.serialize())));
        for (w, expect) in bidders_before.iter().enumerate() {
            let t = Instant::now();
            let n = Tracer::root(read_traced, k)
                .span("read", |s| read(&mut session, &bidders(&writer_doc(w)), s));
            let lat = ms(t);
            read_ms.push(lat);
            all += lat;
            let n: Option<i64> = n.ok().and_then(|r| r.serialize().trim().parse().ok());
            out.check(n == Some(expect + writers[w].bidder_tally));
        }
        first_all_ms.push(all);
        let t = Instant::now();
        let warm = read(&mut session, query_text(1), Tracer::root(None, 0));
        warm_q1_ms.push(ms(t));
        out.check(warm.is_ok());
        reopened = Some(db);
    }
    out.check(replays == 0);
    // every acknowledged commit survived the close
    let after_open = reopened.as_ref().and_then(serialize_all);
    out.check(after_open.is_some() && after_open == before_close);
    if let (true, Some(db)) = (cfg.trace, &reopened) {
        // Q1–Q20 on the cold-opened image of auction.xml, which no write
        // touched: every result must match the golden digests
        let pass_tracer = Tracer::new();
        let order = query_order(&mut Rng::new(cfg.seed));
        let pass = layered_pass(db, &order, 0, Some(&cfg.golden), &pass_tracer, &mut out);
        pass_layer_metrics(&pass_tracer, &[pass], &mut out);
        out.keep_spans(&pass_tracer);
    }
    drop(reopened);
    // the rest of the set-ups, so that their samples span the run
    for _ in 0..cfg.setups / 2 {
        setup_s.push(set_up(cfg, &dir).setup_s);
    }

    let first_answer_ms: Vec<f64> = open_ms
        .iter()
        .zip(&first_q1_ms)
        .map(|(o, q)| o + q)
        .collect();
    let writes: Vec<f64> = writers.iter().flat_map(|w| w.plain_ms.clone()).collect();
    let completed: usize = writers.iter().map(|w| w.writes()).sum();
    let rate = completed as f64 / elapsed;
    out.set("setup_s", median(&setup_s));
    out.set("ops_per_s", rate);
    out.set("latency_p50_ms", quantile(&writes, 0.5));
    out.set("latency_p90_ms", quantile(&writes, 0.9));
    out.set("first_answer_ms", median(&first_answer_ms));
    out.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "durable_commit: {completed} commits, {rate:.0} commits/s, cold open {:.1} ms",
        median(&open_ms)
    );

    if cfg.trace {
        load_layer_metrics(
            resident_page_bytes,
            &[loaded.generate_ms],
            &[loaded.auction],
            rss_per_node_b,
            &mut out,
        );
        write_layer_metrics(&tracer, &writers, &mut out);
        let commits = completed as f64;
        let (a, b) = (&stats_run, &stats_before);
        out.set(
            "wal.bytes_per_commit",
            ratio(delta(a, b, |s| s.wal_bytes_written), commits),
        );
        out.set(
            "wal.fsyncs_per_commit",
            ratio(delta(a, b, |s| s.wal_fsyncs), commits),
        );
        out.set(
            "wal.group_batch_mean",
            ratio(
                delta(a, b, |s| s.group_commit_records),
                delta(a, b, |s| s.group_commit_batches),
            ),
        );
        out.set("db.latch_waits", delta(a, b, |s| s.latch_waits));
        out.set("db.latch_conflicts", delta(a, b, |s| s.latch_conflicts));
        let hits = delta(a, b, |s| s.plan_cache_hits);
        let misses = delta(a, b, |s| s.plan_cache_misses);
        out.set("db.plan_cache_hit_rate", ratio(hits, hits + misses));
        out.set("db.plan_cache_misses", misses);
        out.set(
            "durability.checkpoints",
            delta(&stats_end, b, |s| s.checkpoints),
        );
        out.set("durability.checkpoint_ms", checkpoint_ms);
        out.set("durability.cold_open_ms", median(&open_ms));
        out.set("durability.first_query_ms", median(&first_all_ms));
        out.set("durability.recovery_replays", replays as f64);
        out.set(
            "durability.disk_bytes_per_xml_byte",
            ratio(disk_bytes as f64, loaded.xml_bytes as f64),
        );
        out.set(
            "exec.first_query_ms",
            median(&first_q1_ms) - median(&warm_q1_ms),
        );
        let own = read_tracer.self_ms();
        let n = read_ms.len() as f64;
        out.set(
            "exec.read_ms",
            ratio(own.get("exec.read").copied().unwrap_or(0.0), n),
        );
        out.set(
            "serialize.read_ms",
            ratio(own.get("serialize.read").copied().unwrap_or(0.0), n),
        );
        out.set("read.p50_ms", quantile(&read_ms, 0.5));
        out.set("read.p90_ms", quantile(&read_ms, 0.9));
        out.set("trace.unattributed_pct", tracer.unattributed_pct());
        out.keep_spans(&tracer);
        out.keep_spans(&read_tracer);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}
