//! The hetero-spmm benchmark: one workload against the serve layer,
//! in-process, with every reply checked against a cold oracle.
//!
//! ```text
//! perfbench --workload <serve-cold|serve-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the same
//! requests through a traced copy of the request path and prints the
//! per-layer metrics. The last stdout line is the result object; the line
//! before it is a report with sample counts, provenance and guard results.
//! See `README.md` beside this file.

mod metrics;
mod probes;
mod procfs;
mod session;
mod stats;
mod trace;
mod workload;

use hetero_spmm::serve::json::Json;
use hetero_spmm::sparse::CsrMatrix;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use probes::Samples;
use session::{
    closed_loop, failures, guard_violations, oracle, Outcome, Ran, Request, Session, StatsDelta,
    Threads, Truth, Window,
};
use stats::{median, percentile, MIN_SAMPLES};
use trace::{RequestTrace, Tracer};
use workload::{Plan, Workload};

/// Timed set-ups per untraced run, each followed by an equal share of the
/// timed window; `setup_s` is their median. Spreading the set-ups over the
/// run lets their median see the same machine as the window does.
const SEGMENTS: usize = 7;
/// Samples of each probe per traced run.
const PROBE_ROUNDS: usize = 5;
/// Fewest requests of each half (traced, untraced) of a trace-mode window:
/// enough for a median under the percentile rule.
const TRACE_MIN_REQUESTS: usize = 2 * stats::MIN_BEYOND;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// One printed metric: its value and how many samples it came from.
struct Reading {
    def: &'static MetricDef,
    value: f64,
    samples: usize,
    source: &'static str,
}

fn reading(name: &str, value: f64, samples: usize, source: &'static str) -> Reading {
    Reading {
        def: metrics::find(name),
        value,
        samples,
        source,
    }
}

/// Everything one run prints.
struct RunResult {
    readings: Vec<Reading>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    extra: Vec<(&'static str, Json)>,
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn per_product(plan: &Plan, requests: &[Request]) -> Json {
    Json::Arr(
        plan.products
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let ms: Vec<f64> = requests
                    .iter()
                    .filter(|r| r.product == i)
                    .map(|r| r.ms)
                    .collect();
                Json::obj(vec![
                    ("product", p.label.as_str().into()),
                    ("samples", ms.len().into()),
                    ("median_ms", median(&ms).map_or(Json::Null, num)),
                ])
            })
            .collect(),
    )
}

fn window_json<T>(w: &Window<T>, plan: &Plan) -> Json {
    Json::obj(vec![
        ("requests", w.requests.len().into()),
        ("cycles", (w.requests.len() / plan.products.len()).into()),
        ("wall_s", num(w.wall_s)),
        ("cpu_s", num(w.cpu_s)),
        ("steal_s", num(w.steal_s)),
        ("per_product", per_product(plan, &w.requests)),
    ])
}

/// One segment of an untraced run: its set-up and its share of the window.
fn segment_json<T>(setup_s: f64, peak_rss_mb: f64, w: &Window<T>) -> Json {
    let n = w.requests.len();
    Json::obj(vec![
        ("setup_s", num(setup_s)),
        ("requests", n.into()),
        ("p50_ms", median(&w.latency_ms()).map_or(Json::Null, num)),
        ("rps", num(n as f64 / w.wall_s)),
        ("cpu_ms_per_req", num(w.cpu_s * 1e3 / n.max(1) as f64)),
        ("steal_s", num(w.steal_s)),
        ("clients", w.clients.into()),
        ("peak_inflight", w.peak_inflight.into()),
        ("peak_rss_mb", num(peak_rss_mb)),
    ])
}

/// The segments of an untraced run as one window.
fn joined<T>(segments: Vec<Window<T>>) -> Window<T> {
    let mut all = Window {
        requests: Vec::new(),
        results: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        steal_s: 0.0,
        clients: usize::MAX,
        peak_inflight: 0,
    };
    for w in segments {
        all.requests.extend(w.requests);
        all.results.extend(w.results);
        all.wall_s += w.wall_s;
        all.cpu_s += w.cpu_s;
        all.steal_s += w.steal_s;
        all.clients = all.clients.min(w.clients);
        all.peak_inflight = all.peak_inflight.max(w.peak_inflight);
    }
    all
}

fn count_failures(outcomes: &[Outcome], truth: &Result<Vec<Truth>, String>) -> Vec<String> {
    match truth {
        Ok(truth) => failures(outcomes, truth),
        // without an oracle no reply can be checked: all count as failed
        Err(_) => outcomes
            .iter()
            .map(|o| format!("product {}: unchecked", o.product))
            .collect(),
    }
}

fn untraced(args: &Args, plan: &Plan, inputs: &[CsrMatrix<f64>], threads: Threads) -> RunResult {
    let mut warm_up = |s: &Session<'_>, p| Outcome::from_reply(p, &s.serve(p));
    // The process's first set-up also pays for first touch of its heap and
    // threads; it is checked but not timed.
    let (first, _, mut warm_outcomes) = Session::set_up(plan, inputs, threads, &mut warm_up);
    drop(first);
    let mut setup_times = Vec::new();
    let mut peaks = Vec::new();
    let mut segments = Vec::new();
    let mut ran = Vec::new();
    let mut delta = StatsDelta::default();
    for _ in 0..SEGMENTS {
        procfs::reset_peak_rss();
        let (session, secs, outs) = Session::set_up(plan, inputs, threads, &mut warm_up);
        setup_times.push(secs);
        warm_outcomes.extend(outs);
        let before = session.service.stats();
        let window = closed_loop(
            plan,
            threads.clients,
            args.seconds / SEGMENTS as f64,
            MIN_SAMPLES.div_ceil(SEGMENTS),
            |p, _| session.serve(p),
            |p, reply| Outcome::from_reply(p, &reply),
        );
        // read before the next set-up, the oracle and the guards allocate
        peaks.push(procfs::peak_rss_mb());
        delta = delta.plus(StatsDelta::between(&before, &session.service.stats()));
        ran.push(Ran::of(&session, &window));
        segments.push(window);
        // the service is gone before the next set-up is timed
    }
    let segments_json = Json::Arr(
        (0..SEGMENTS)
            .map(|i| segment_json(setup_times[i], peaks[i], &segments[i]))
            .collect(),
    );
    let window = joined(segments);

    let truth = oracle(plan, inputs, threads);
    let timed_failures = count_failures(&window.results, &truth);
    let mut problems = count_failures(&warm_outcomes, &truth);
    problems.extend(timed_failures.iter().cloned());
    if let Err(e) = &truth {
        problems.push(format!("oracle: {e}"));
    }
    let n = window.requests.len();
    problems.extend(guard_violations(plan, threads, &ran, n, &delta));

    let ms = window.latency_ms();
    let p50 = percentile(&ms, 0.5).expect("window holds MIN_SAMPLES requests");
    let p90 = percentile(&ms, 0.9).expect("window holds MIN_SAMPLES requests");
    let readings = vec![
        reading(
            "setup_s",
            median(&setup_times).expect("set-ups ran"),
            setup_times.len(),
            "setup",
        ),
        reading("latency_p50_ms", p50, n, "window"),
        reading("latency_p90_ms", p90, n, "window"),
        reading("throughput_rps", n as f64 / window.wall_s, n, "window"),
        reading("cpu_ms_per_req", window.cpu_s * 1e3 / n as f64, n, "window"),
        reading(
            "peak_rss_mb",
            median(&peaks).expect("segments ran"),
            peaks.len(),
            "VmHWM",
        ),
    ];
    RunResult {
        readings,
        attempted: n,
        failed: timed_failures.len(),
        problems,
        extra: vec![
            ("window", window_json(&window, plan)),
            ("segments", segments_json),
            ("stats_delta", delta_json(&delta)),
        ],
    }
}

fn delta_json(delta: &StatsDelta) -> Json {
    Json::obj(vec![
        ("artifact_hits", (delta.artifact_hits as usize).into()),
        ("artifact_misses", (delta.artifact_misses as usize).into()),
        ("registry_evictions", (delta.evictions as usize).into()),
        ("rejected", (delta.rejected as usize).into()),
    ])
}

/// Span layer → per-layer metric and the ns divisor of its unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("wire.decode", "wire.decode_us", 1e3),
    ("registry.resolve", "registry.resolve_us", 1e3),
    ("artifacts.lookup", "artifacts.lookup_us", 1e3),
    ("context.build", "context.build_ms", 1e6),
    ("phase1.build", "phase1.build_ms", 1e6),
    ("serve.gen", "serve.gen_ms", 1e6),
    ("hhcpu.run", "hhcpu.run_ms", 1e6),
    ("wire.encode", "wire.encode_ms", 1e6),
];

fn span_samples(traces: &[&RequestTrace]) -> Samples {
    let mut samples = Samples::new();
    for tr in traces {
        for &(layer, metric, div) in SPAN_METRICS {
            if let Some(ns) = tr.layer_ns(layer) {
                samples.entry(metric).or_default().push(ns as f64 / div);
            }
        }
        samples
            .entry("request.self_ms")
            .or_default()
            .push(tr.self_ns() as f64 / 1e6);
    }
    samples
}

fn traced(args: &Args, plan: &Plan, inputs: &[CsrMatrix<f64>], threads: Threads) -> RunResult {
    let tracer = Tracer::new(threads.host_threads);
    let mut setup_traces = Vec::new();
    let (session, _, mut warm_outcomes) = Session::set_up(plan, inputs, threads, &mut |s, p| {
        let (reply, tr) = tracer.request(s, p);
        setup_traces.push(tr);
        Outcome::from_reply(p, &reply)
    });
    // the traced warm-up filled the tracer's workspace pool; fill the
    // service's own before its untraced requests are timed
    for p in 0..plan.products.len() {
        warm_outcomes.push(Outcome::from_reply(p, &session.serve(p)));
    }
    // Even cycles run untraced, odd cycles traced: both halves see the same
    // products over the same stretch of time, so the difference of their
    // medians is the tracing overhead and not the machine's drift.
    let k = plan.products.len();
    let min_requests = 2 * k * TRACE_MIN_REQUESTS.div_ceil(k);
    let before = session.service.stats();
    let window = closed_loop(
        plan,
        threads.clients,
        args.seconds,
        min_requests,
        |p, cycle| {
            if cycle % 2 == 0 {
                (session.serve(p), None)
            } else {
                let (reply, tr) = tracer.request(&session, p);
                (reply, Some(tr))
            }
        },
        |p, (reply, tr)| (Outcome::from_reply(p, &reply), tr),
    );
    let delta = StatsDelta::between(&before, &session.service.stats());
    let ran = [Ran::of(&session, &window)];
    drop(session);
    let probed = probes::run(plan, inputs, threads, PROBE_ROUNDS);

    let truth = oracle(plan, inputs, threads);
    let outcomes: Vec<Outcome> = window.results.iter().map(|(o, _)| o.clone()).collect();
    let timed_failures = count_failures(&outcomes, &truth);
    let mut problems = count_failures(&warm_outcomes, &truth);
    problems.extend(timed_failures.iter().cloned());
    for err in [truth.as_ref().err(), probed.as_ref().err()]
        .into_iter()
        .flatten()
    {
        problems.push(err.clone());
    }
    let traces: Vec<&RequestTrace> = window
        .results
        .iter()
        .filter_map(|(_, tr)| tr.as_ref())
        .collect();
    let n = window.requests.len();
    problems.extend(guard_violations(plan, threads, &ran, n, &delta));

    let mut samples = span_samples(&traces);
    if !samples.contains_key("phase1.build_ms") {
        // every timed request hit the artifact cache: the builds happened
        // in the set-up warm-up
        let setup_refs: Vec<&RequestTrace> = setup_traces.iter().collect();
        samples.insert(
            "phase1.build_ms",
            span_samples(&setup_refs)["phase1.build_ms"].clone(),
        );
    }
    let mut sources: std::collections::BTreeMap<&str, &'static str> =
        samples.keys().map(|&k| (k, "span")).collect();
    if let Ok(probed) = probed {
        for (k, v) in probed {
            sources.insert(k, "probe");
            samples.insert(k, v);
        }
    }

    let mut readings = Vec::new();
    for def in PER_LAYER {
        if let Some(v) = samples.get(def.name) {
            let value = median(v).expect("non-empty samples");
            readings.push(reading(def.name, value, v.len(), sources[def.name]));
        }
    }
    let med = |k: &str| samples.get(k).and_then(|v| median(v));
    if let (Some(gen), Some(raw)) = (med("serve.gen_ms"), med("scalefree.gen_ms")) {
        let count = samples["serve.gen_ms"]
            .len()
            .min(samples["scalefree.gen_ms"].len());
        readings.push(reading("registry.insert_ms", gen - raw, count, "derived"));
    }
    readings.push(reading(
        "registry.evictions_per_req",
        delta.evictions as f64 / n as f64,
        n,
        "stats",
    ));
    readings.push(reading(
        "artifacts.hit_ratio",
        delta.hit_ratio(),
        n,
        "stats",
    ));
    // exact per-product counts, summed over the distinct products
    let mut first: Vec<Option<&Outcome>> = vec![None; plan.products.len()];
    for o in &outcomes {
        first[o.product].get_or_insert(o);
    }
    let seen: Vec<&Outcome> = first.into_iter().flatten().collect();
    let k = seen.len();
    let sum = |f: &dyn Fn(&Outcome) -> f64| seen.iter().map(|o| f(o)).sum::<f64>();
    readings.push(reading("hhcpu.c_nnz", sum(&|o| o.c_nnz as f64), k, "reply"));
    readings.push(reading(
        "hhcpu.tuples_merged",
        sum(&|o| o.tuples_merged as f64),
        k,
        "reply",
    ));
    readings.push(reading(
        "hhcpu.sim_total_ms",
        sum(&|o| o.sim_ns / 1e6),
        k,
        "reply",
    ));
    if let Ok(truth) = &truth {
        let flops: u64 = truth.iter().map(|t| t.flops).sum();
        readings.push(reading(
            "hhcpu.flops",
            flops as f64,
            truth.len(),
            "reference",
        ));
    }
    let half_p50 = |traced: bool| {
        let ms: Vec<f64> = window
            .requests
            .iter()
            .zip(&window.results)
            .filter(|(_, (_, tr))| tr.is_some() == traced)
            .map(|(r, _)| r.ms)
            .collect();
        percentile(&ms, 0.5).expect("each half holds TRACE_MIN_REQUESTS requests")
    };
    let (plain_p50, traced_p50) = (half_p50(false), half_p50(true));
    readings.push(reading(
        "trace.overhead_pct",
        (traced_p50 - plain_p50) / plain_p50 * 100.0,
        traces.len(),
        "derived",
    ));

    // every per-layer metric, in table order
    let mut ordered = Vec::new();
    for def in PER_LAYER {
        match readings.iter().position(|r| r.def.name == def.name) {
            Some(i) => ordered.push(readings.swap_remove(i)),
            None => problems.push(format!("no samples for {}", def.name)),
        }
    }
    RunResult {
        readings: ordered,
        attempted: n,
        failed: timed_failures.len(),
        problems,
        extra: vec![
            ("window", window_json(&window, plan)),
            ("untraced_p50_ms", num(plain_p50)),
            ("traced_p50_ms", num(traced_p50)),
            ("stats_delta", delta_json(&delta)),
        ],
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    let threads = Threads::of(args.workload);
    let inputs = plan.generate();
    let result = if args.trace {
        traced(&args, &plan, &inputs, threads)
    } else {
        untraced(&args, &plan, &inputs, threads)
    };
    let wanted: &[MetricDef] = if args.trace { PER_LAYER } else { END_TO_END };
    let complete = result.readings.len() == wanted.len();
    let correct = complete && result.problems.is_empty();
    for p in &result.problems {
        eprintln!("perfbench: INVALID: {p}");
    }

    let detail = Json::obj(
        result
            .readings
            .iter()
            .map(|r| {
                (
                    r.def.name,
                    Json::obj(vec![
                        ("value", num(r.value)),
                        ("unit", r.def.unit.into()),
                        (
                            "better",
                            if r.def.higher_is_better {
                                "higher"
                            } else {
                                "lower"
                            }
                            .into(),
                        ),
                        ("clock", r.def.clock.label().into()),
                        ("samples", r.samples.into()),
                        ("source", r.source.into()),
                    ]),
                )
            })
            .collect(),
    );
    let mut report = vec![
        ("workload", args.workload.name().into()),
        ("seed", Json::Str(args.seed.to_string())),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.into()),
        ("nproc", threads.nproc.into()),
        ("clients", threads.clients.into()),
        ("host_threads", threads.host_threads.into()),
        (
            "operands",
            Json::Arr(
                plan.operands
                    .iter()
                    .map(|op| {
                        let c = &op.config;
                        format!(
                            "{} {}x{} nnz~{} 1/{}",
                            op.label, c.nrows, c.ncols, c.target_nnz, op.scale
                        )
                        .into()
                    })
                    .collect(),
            ),
        ),
        (
            "revision",
            std::env::var("PERFBENCH_REV")
                .unwrap_or_else(|_| "unknown".into())
                .into(),
        ),
        ("correct", correct.into()),
        (
            "problems",
            Json::Arr(
                result
                    .problems
                    .iter()
                    .take(20)
                    .map(|p| p.as_str().into())
                    .collect(),
            ),
        ),
        ("metrics", detail),
    ];
    report.extend(result.extra);
    println!("{}", Json::obj(vec![("report", Json::obj(report))]).dump());

    let metrics = Json::obj(
        result
            .readings
            .iter()
            .map(|r| {
                (
                    r.def.name,
                    Json::obj(vec![("value", num(r.value)), ("unit", r.def.unit.into())]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        Json::obj(vec![
            ("correct", correct.into()),
            ("attempted", result.attempted.into()),
            ("failed", result.failed.into()),
            ("metrics", metrics),
        ])
        .dump()
    );
}
