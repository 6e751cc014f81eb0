//! The repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload xmark_query --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run
//! also writes its spans to `.bench_work/trace-<workload>-seed<n>.jsonl`.
//! `--make-golden` regenerates the golden XMark digests with the naive
//! interpreter (about a minute).

mod common;
mod durable_commit;
mod trace;
mod update_mix;
mod util;
mod xmark_query;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Config, Golden, Outcome, GOLDEN_FILE, SCALE, WRITER_SCALE};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["xmark_query", "update_mix", "durable_commit"];

/// End-to-end metrics (`--trace 0`): every workload reports every one.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("first_answer_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `exec.qNN_ms`: exec time of each XMark query.
pub const EXEC_QUERY_METRICS: [&str; 20] = [
    "exec.q01_ms",
    "exec.q02_ms",
    "exec.q03_ms",
    "exec.q04_ms",
    "exec.q05_ms",
    "exec.q06_ms",
    "exec.q07_ms",
    "exec.q08_ms",
    "exec.q09_ms",
    "exec.q10_ms",
    "exec.q11_ms",
    "exec.q12_ms",
    "exec.q13_ms",
    "exec.q14_ms",
    "exec.q15_ms",
    "exec.q16_ms",
    "exec.q17_ms",
    "exec.q18_ms",
    "exec.q19_ms",
    "exec.q20_ms",
];

/// Per-layer metrics (`--trace 1`) besides [`EXEC_QUERY_METRICS`].  A
/// layer a workload does not run reports 0 (no WAL in memory, no writes
/// in `xmark_query`).
pub const PER_LAYER: [(&str, &str); 52] = [
    ("parser.parse_ms", "ms"),
    ("compile.compile_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("exec.eval_ms", "ms"),
    ("serialize.serialize_ms", "ms"),
    ("serialize.q10_ms", "ms"),
    ("xmark.pass_ms", "ms"),
    ("xmark.geomean_ms", "ms"),
    ("exec.rows_materialized", "count"),
    ("exec.peak_rows", "count"),
    ("exec.ops_evaluated", "count"),
    ("exec.constructed_nodes", "count"),
    ("engine.join_pairs", "count"),
    ("engine.q10_join_pairs", "count"),
    ("engine.q11_join_pairs", "count"),
    ("engine.q12_join_pairs", "count"),
    ("engine.sorts", "count"),
    ("engine.sorts_avoided", "count"),
    ("engine.proven_dict_joins", "count"),
    ("staircase.nodes_scanned", "count"),
    ("staircase.pages_skipped", "count"),
    ("staircase.passes", "count"),
    ("staircase.contexts", "count"),
    ("exec.first_query_ms", "ms"),
    ("xmark.generate_ms", "ms"),
    ("xmldb.shred_ms", "ms"),
    ("xmldb.publish_ms", "ms"),
    ("xmldb.resident_page_bytes", "bytes"),
    ("xmldb.rss_per_node_b", "B/node"),
    ("prepare.write_ms", "ms"),
    ("commit.write_ms", "ms"),
    ("pul.primitives_per_write", "count"),
    ("xmldb.tuples_written_per_write", "count"),
    ("xmldb.pages_touched_per_write", "count"),
    ("xmldb.pages_allocated", "count"),
    ("exec.read_ms", "ms"),
    ("serialize.read_ms", "ms"),
    ("read.p50_ms", "ms"),
    ("read.p90_ms", "ms"),
    ("db.plan_cache_hit_rate", "ratio"),
    ("db.plan_cache_misses", "count"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.group_batch_mean", "count"),
    ("db.latch_waits", "count"),
    ("db.latch_conflicts", "count"),
    ("durability.checkpoints", "count"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.cold_open_ms", "ms"),
    ("durability.first_query_ms", "ms"),
    ("durability.recovery_replays", "count"),
    ("durability.disk_bytes_per_xml_byte", "ratio"),
];

/// Per-layer metrics about the trace itself and the checks.
pub const TRACE_METRICS: [(&str, &str); 3] = [
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("check.error_rate", "ratio"),
];

/// Every per-layer metric with its unit, in reporting order.
pub fn per_layer_metrics() -> Vec<(&'static str, &'static str)> {
    let mut all: Vec<_> = PER_LAYER.to_vec();
    all.extend(EXEC_QUERY_METRICS.iter().map(|n| (*n, "ms")));
    all.extend(TRACE_METRICS);
    all
}

pub fn run_workload(name: &str, cfg: &Config) -> Option<Outcome> {
    Some(match name {
        "xmark_query" => xmark_query::run(cfg),
        "update_mix" => update_mix::run(cfg),
        "durable_commit" => durable_commit::run(cfg),
        _ => return None,
    })
}

/// The result line: the end-to-end metrics, or with `trace` the per-layer
/// ones (a layer the workload does not run reports 0).
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let wanted = if trace {
        per_layer_metrics()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let value = match *name {
                "check.error_rate" => util::ratio(out.failed as f64, out.attempted as f64),
                _ => out.metrics.get(name).copied().unwrap_or(0.0),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    make_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        make_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--make-golden" {
            args.make_golden = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.make_golden && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.make_golden {
        let xml = mxq_xmark::generate_xml(&mxq_xmark::GenParams::with_factor(SCALE));
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_FILE);
        let text = format!(
            "# Q1-Q20 on XMark sf {SCALE}, seed 42, by the naive interpreter: \
             query, result bytes, FNV-1a 64\n{}",
            Golden::oracle(&xml).render()
        );
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    let golden = match Golden::committed() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work_dir = PathBuf::from(".bench_work");
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: SCALE,
        writer_scale: WRITER_SCALE,
        setups: 11,
        cold_opens: 11,
        golden,
        work_dir: work_dir.clone(),
    };
    let out = run_workload(&args.workload, &cfg).expect("workload name was checked");
    if args.trace {
        let path = work_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&path, &out.spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", result_json(&out, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    //! The benchmark's self-check: every workload at a tiny scale, traced
    //! and untraced, reports every metric with its unit, and a wrong
    //! golden digest shows in the failure count.

    use super::*;

    const TINY: f64 = 0.002;

    fn tiny_config(trace: bool, golden: Golden) -> Config {
        Config {
            seed: 7,
            seconds: 0.3,
            trace,
            scale: TINY,
            writer_scale: TINY / 2.0,
            setups: 2,
            cold_opens: 2,
            golden,
            work_dir: std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id())),
        }
    }

    fn tiny_golden() -> Golden {
        Golden::oracle(&mxq_xmark::generate_xml(
            &mxq_xmark::GenParams::with_factor(TINY),
        ))
    }

    fn names_in(json: &str) -> Vec<String> {
        json.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn every_workload_reports_every_metric_and_passes_its_checks() {
        let golden = tiny_golden();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = tiny_config(trace, golden.clone());
                let out = run_workload(workload, &cfg).unwrap();
                assert!(out.attempted > 0, "{workload}");
                assert_eq!(out.failed, 0, "{workload} trace={trace}");
                let line = result_json(&out, trace);
                let wanted = if trace {
                    per_layer_metrics()
                } else {
                    END_TO_END.to_vec()
                };
                for (name, unit) in wanted {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    let at = line
                        .find(&entry)
                        .unwrap_or_else(|| panic!("{workload}: {name}"));
                    let rest = &line[at + entry.len()..];
                    let value: f64 = rest[..rest.find(',').unwrap()].parse().unwrap();
                    assert!(value.is_finite(), "{workload}: {name}");
                    assert!(rest.contains(&format!("\"unit\": \"{unit}\"")));
                    if !trace {
                        assert!(value > 0.0, "{workload}: {name} = {value}");
                    }
                }
                if trace {
                    assert!(!out.spans.is_empty(), "{workload}");
                }
            }
        }
    }

    #[test]
    fn a_wrong_golden_digest_is_an_error() {
        let mut golden = tiny_golden();
        golden.corrupt(1);
        for workload in WORKLOADS {
            let out = run_workload(workload, &tiny_config(false, golden.clone())).unwrap();
            assert!(out.failed > 0, "{workload} missed a wrong Q1 result");
            assert!(result_json(&out, true).contains("\"correct\": false"));
        }
        let mut golden = tiny_golden();
        golden.corrupt(11);
        let out = xmark_query::run(&tiny_config(false, golden));
        assert!(out.failed > 0, "a wrong Q11 result went unnoticed");
    }

    #[test]
    fn committed_golden_parses() {
        assert!(Golden::committed().is_ok());
    }

    #[test]
    fn benchmark_json_names_every_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names = names_in(&json);
        let mut expected: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(per_layer_metrics().iter().map(|(n, _)| n.to_string()));
        assert_eq!(names, expected);
    }
}
