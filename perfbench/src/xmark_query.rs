//! `xmark_query`: the paper's own unit.  One session on an in-memory
//! database loops Q1–Q20 passes over XMark `auction.xml` in a seeded
//! order, with a warm plan cache, and checks every result against the
//! golden digests.

use std::time::{Duration, Instant};

use mxq_xmark::{query_text, QUERY_IDS};

use crate::common::{
    layered_pass, load_layer_metrics, ms, pass_layer_metrics, query_order, read, Config, Outcome,
    Setup,
};
use crate::trace::Tracer;
use crate::util::{geomean, median, peak_rss_mb, quantile, ratio, Rng};

/// Passes measured at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Setup::new(cfg, &mut out);
    let db = setup.db.clone();
    let mut session = db.session();
    let mut rng = Rng::new(cfg.seed);

    // one unmeasured pass fills the plan cache
    for id in query_order(&mut rng) {
        let r = read(&mut session, query_text(id), Tracer::root(None, 0));
        out.check(r.is_ok_and(|r| cfg.golden.matches(id, r.serialize())));
    }

    let stats_before = db.stats();
    let tracer = Tracer::new();
    let mut layered = Vec::new();
    let mut query_ms: Vec<Vec<f64>> = vec![Vec::new(); QUERY_IDS.len() + 1];
    let mut pass_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let min_passes = if cfg.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    let mut pass = 0;
    while pass < min_passes || Instant::now() < deadline {
        let order = query_order(&mut rng);
        if cfg.trace && pass % 2 == 1 {
            let p = layered_pass(
                &db,
                &order,
                pass as u64,
                Some(&cfg.golden),
                &tracer,
                &mut out,
            );
            layered.push(p);
        } else {
            // a pass's time is the sum of its statements' times: the
            // digest checks between them are not counted
            let mut wall = 0.0;
            for &id in &order {
                let t = Instant::now();
                let r = read(&mut session, query_text(id), Tracer::root(None, 0));
                let lat = ms(t);
                wall += lat;
                query_ms[id].push(lat);
                out.check(r.is_ok_and(|r| cfg.golden.matches(id, r.serialize())));
            }
            pass_ms.push(wall);
        }
        pass += 1;
    }
    let stats_after = db.stats();
    let resident_page_bytes = db.store().resident_page_bytes();
    drop((session, db));
    setup.finish(cfg, &mut out);

    // each query counts once: its median over the passes
    let medians: Vec<f64> = QUERY_IDS.iter().map(|&id| median(&query_ms[id])).collect();
    let pass_median = median(&pass_ms);
    out.set("setup_s", median(&setup.setup_s));
    out.set(
        "ops_per_s",
        ratio(QUERY_IDS.len() as f64 * 1e3, pass_median),
    );
    out.set("latency_p50_ms", quantile(&medians, 0.5));
    out.set("latency_p90_ms", quantile(&medians, 0.9));
    out.set("first_answer_ms", median(&setup.first_ms));
    out.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "xmark_query: {} passes, pass median {pass_median:.1} ms, geomean {:.2} ms",
        pass_ms.len(),
        geomean(&medians)
    );

    if cfg.trace {
        pass_layer_metrics(&tracer, &layered, &mut out);
        // the end-to-end shape of a pass comes from the untraced passes
        out.set("xmark.pass_ms", pass_median);
        out.set("xmark.geomean_ms", geomean(&medians));
        load_layer_metrics(
            resident_page_bytes,
            &setup.generate_ms,
            &setup.load,
            setup.rss_per_node_b,
            &mut out,
        );
        let n = QUERY_IDS.len() as f64;
        let own = tracer.self_ms();
        let per_query = |name: &str| {
            ratio(
                own.get(name).copied().unwrap_or(0.0),
                n * layered.len() as f64,
            )
        };
        out.set("exec.read_ms", per_query("exec"));
        out.set("serialize.read_ms", per_query("serialize"));
        out.set("read.p50_ms", quantile(&medians, 0.5));
        out.set("read.p90_ms", quantile(&medians, 0.9));
        out.set(
            "exec.first_query_ms",
            median(&setup.first_ms) - median(&query_ms[1]),
        );
        let hits = stats_after.plan_cache_hits - stats_before.plan_cache_hits;
        let misses = stats_after.plan_cache_misses - stats_before.plan_cache_misses;
        out.set(
            "db.plan_cache_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        );
        out.set("db.plan_cache_misses", misses as f64);
        // a layered pass also runs the compile front end, which the cached
        // untraced pass skips: compare what both do
        let front = ["parser", "compile", "analysis"]
            .iter()
            .map(|name| own.get(name).copied().unwrap_or(0.0))
            .sum::<f64>()
            / layered.len().max(1) as f64;
        let layered_wall = median(&layered.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
        out.set(
            "trace.overhead_pct",
            100.0 * (ratio(layered_wall - front, pass_median) - 1.0),
        );
        out.set("trace.unattributed_pct", tracer.unattributed_pct());
        out.keep_spans(&tracer);
    }
    out
}
