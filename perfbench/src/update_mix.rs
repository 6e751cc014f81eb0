//! `update_mix`: one reader and one writer session on two threads against
//! an in-memory XMark `auction.xml`.  The reader loops the three reads of
//! the mixed workload; the writer loops the five XQUF statement kinds on
//! seeded random open auctions.  Every write text is unique, so every
//! write pays the compile front end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mxq_xquery::Database;

use crate::common::{
    bidders, count, layered_pass, load_layer_metrics, mixed_reads, ms, pass_layer_metrics,
    query_order, query_string, read, write_layer_metrics, writer_loop, Config, Outcome, Setup,
};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, quantile, ratio, Rng};

/// What the reader thread did.
#[derive(Debug, Default)]
struct ReaderResult {
    plain_ms: Vec<f64>,
    q1_ms: Vec<f64>,
    traced: usize,
    attempted: u64,
    failed: u64,
}

fn reader_loop(
    db: &Arc<Database>,
    cfg: &Config,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> ReaderResult {
    let reads = mixed_reads();
    let mut res = ReaderResult::default();
    let mut session = db.session();
    let mut rng = Rng::new(cfg.seed ^ 0x5eed_0001);
    let mut op: u64 = 0;
    while Instant::now() < deadline {
        let which = rng.below(reads.len());
        let traced = tracer.filter(|_| op % 2 == 1);
        let t = Instant::now();
        let r = Tracer::root(traced, op).span("read", |s| read(&mut session, &reads[which], s));
        let lat = ms(t);
        res.attempted += 1;
        // Q1 reads people, which no write touches; a bidder count is a
        // number; the `current` scan has no fixed answer under writes
        let ok = r.is_ok_and(|r| match which {
            0 => cfg.golden.matches(1, r.serialize()),
            1 => r.serialize().trim().parse::<u64>().is_ok(),
            _ => true,
        });
        res.failed += u64::from(!ok);
        if traced.is_some() {
            res.traced += 1;
        } else {
            res.plain_ms.push(lat);
            if which == 0 {
                res.q1_ms.push(lat);
            }
        }
        op += 1;
    }
    res
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Setup::new(cfg, &mut out);
    let db = setup.db.clone();
    let bidders_before = count(&db, &bidders("auction.xml")).unwrap_or(-1);

    let stats_before = db.stats();
    let tracer = Tracer::new();
    let traced = cfg.trace.then_some(&tracer);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.seconds);
    let (reader, writer) = std::thread::scope(|s| {
        let reader = s.spawn(|| reader_loop(&db, cfg, deadline, traced));
        let writer = s.spawn(|| writer_loop(&db, "auction.xml", cfg.seed, deadline, traced));
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats_after = db.stats();
    out.attempted += reader.attempted + writer.attempted;
    out.failed += reader.failed + writer.failed;

    // every acknowledged write is in the document: the bidder count moved
    // by exactly the tally of the writes' primitives
    let bidders_after = count(&db, &bidders("auction.xml")).unwrap_or(-2);
    out.check(bidders_after == bidders_before + writer.bidder_tally);
    // reshred fixpoint: serialize, shred into a fresh database, serialize
    let fixpoint = query_string(&db, "doc(\"auction.xml\")").and_then(|first| {
        let fresh = Arc::new(Database::new());
        fresh.load_document("auction.xml", &first)?;
        Ok(first == query_string(&fresh, "doc(\"auction.xml\")")?)
    });
    out.check(fixpoint.unwrap_or(false));

    // Q1–Q20 on the updated document: the query layers after splices
    if cfg.trace {
        let pass_tracer = Tracer::new();
        let order = query_order(&mut Rng::new(cfg.seed));
        let pass = layered_pass(&db, &order, 0, None, &pass_tracer, &mut out);
        pass_layer_metrics(&pass_tracer, &[pass], &mut out);
        out.keep_spans(&pass_tracer);
    }
    let resident_page_bytes = db.store().resident_page_bytes();
    drop(db);
    setup.finish(cfg, &mut out);

    let completed = reader.attempted + writer.attempted;
    out.set("setup_s", median(&setup.setup_s));
    out.set("ops_per_s", completed as f64 / elapsed);
    out.set("latency_p50_ms", quantile(&writer.plain_ms, 0.5));
    out.set("latency_p90_ms", quantile(&writer.plain_ms, 0.9));
    out.set("first_answer_ms", median(&setup.first_ms));
    out.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "update_mix: {} reads, {} writes, bidders {bidders_before} -> {bidders_after}",
        reader.attempted, writer.attempted
    );

    if cfg.trace {
        load_layer_metrics(
            resident_page_bytes,
            &setup.generate_ms,
            &setup.load,
            setup.rss_per_node_b,
            &mut out,
        );
        write_layer_metrics(&tracer, std::slice::from_ref(&writer), &mut out);
        let own = tracer.self_ms();
        let per_read =
            |name: &str| ratio(own.get(name).copied().unwrap_or(0.0), reader.traced as f64);
        out.set("exec.read_ms", per_read("exec.read"));
        out.set("serialize.read_ms", per_read("serialize.read"));
        out.set("read.p50_ms", quantile(&reader.plain_ms, 0.5));
        out.set("read.p90_ms", quantile(&reader.plain_ms, 0.9));
        out.set(
            "exec.first_query_ms",
            median(&setup.first_ms) - median(&reader.q1_ms),
        );
        let hits = stats_after.plan_cache_hits - stats_before.plan_cache_hits;
        let misses = stats_after.plan_cache_misses - stats_before.plan_cache_misses;
        out.set(
            "db.plan_cache_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        );
        out.set("db.plan_cache_misses", misses as f64);
        out.set("trace.unattributed_pct", tracer.unattributed_pct());
        out.keep_spans(&tracer);
    }
    out
}
