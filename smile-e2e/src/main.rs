//! `smile-e2e`: one wall-clock benchmark of the SMILE platform, driven
//! through its public API, with a per-layer ledger from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path smile-e2e/Cargo.toml -- \
//!     --workload paper-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every repetition of a workload runs in a child process (this binary
//! with `--rep`), so each starts from a fresh heap. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`. `README.md` next to
//! this package documents every metric and workload.

mod rep;
mod stats;
mod trace;
mod workloads;

use rep::{ratio, run_rep, RepKind, Summary};
use stats::{mean, median, sorted, tail, FailLedger};
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::Workload;

/// Fewest repetitions (setups) in an untraced run; `setup_s` is their
/// median.
const MIN_REPS: usize = 2;
/// Share of a traced repetition's wall time its spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Runs one repetition in a child process and waits for it.
fn spawn_rep(
    w: Workload,
    seed: u64,
    workers: usize,
    traced: bool,
    kind: RepKind,
) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--rep", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--workers", &workers.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--kind", kind.name()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} repetition exited with {}",
            w.name(),
            out.status
        ));
    }
    Ok(Summary::parse(&String::from_utf8_lossy(&out.stdout)))
}

/// One metric of the result line.
type Metric = (String, f64, String);

fn metric(name: &str, v: f64, unit: &str) -> Metric {
    (name.to_string(), v, unit.to_string())
}

/// A workload's outcome: the result-line fields plus an info object.
struct Outcome {
    correct: bool,
    fails: FailLedger,
    metrics: Vec<Metric>,
    info: Vec<(String, String)>,
}

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn jstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn jmetric(v: f64, unit: &str) -> String {
    format!("{{\"value\":{},\"unit\":{}}}", jnum(v), jstr(unit))
}

fn ledger(reps: &[&Summary]) -> FailLedger {
    let mut fails = FailLedger::default();
    for r in reps {
        fails.absorb(FailLedger {
            attempted: r.num("attempted") as u64,
            failed: r.num("failed") as u64,
        });
    }
    fails
}

/// The simulated outcome of a driven repetition, which repeats exactly
/// for a seed: the determinism digest, SLA violations, staleness, cost,
/// the fail share and the MVs that differ from ground truth.
fn sim_info(info: &mut Vec<(String, String)>, d: &Summary) {
    info.push(("sim_digest".into(), jstr(d.word("sim_digest"))));
    for (key, unit) in [
        ("sla_violations", "count"),
        ("mean_staleness_s", "sim_s"),
        ("dollars_per_sharing_hour", "USD/sharing-h"),
    ] {
        info.push((key.into(), jmetric(d.num(key), unit)));
    }
    info.push(("fail_share".into(), jmetric(ledger(&[d]).share(), "ratio")));
    info.push(("drain_ticks".into(), jnum(d.num("drain_ticks"))));
    info.push(("drained_quiet".into(), d.word("drained_quiet").to_string()));
    info.push(("mvs_checked".into(), jnum(d.num("mvs_checked"))));
    let names: Vec<String> = d.words("mvs_mismatched").iter().map(|s| jstr(s)).collect();
    info.push(("mvs_mismatched".into(), format!("[{}]", names.join(","))));
}

/// The simulated outcome two driven repetitions must share exactly: the
/// digest (tuples moved, violations, push records, MV contents) and the
/// mean staleness.
const REPEATS_EXACTLY: [&str; 2] = ["sim_digest", "mean_staleness_s"];

/// Whether every driven repetition repeats the first one's simulated
/// outcome, and whether their dollar totals agree to the last digit.
/// Dollars are reported apart: the platform sums SLA penalties as floats
/// over a `HashMap`, so their last digits follow its iteration order.
fn repeats(driven: &[&Summary]) -> (bool, bool) {
    let same = |key: &str| driven.iter().all(|r| r.word(key) == driven[0].word(key));
    (
        REPEATS_EXACTLY.iter().all(|k| same(k)),
        same("dollars_per_sharing_hour"),
    )
}

/// An untraced run: the first repetition drives; further repetitions
/// (driven too where the workload's drive is short) run until there are
/// at least `MIN_REPS` and `seconds` of wall time have passed.
fn end_to_end(w: Workload, seed: u64, workers: usize, seconds: u64) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs() < seconds {
        let kind = match reps.len() {
            0 => RepKind::Check,
            _ if w.drive_every_rep() => RepKind::Drive,
            _ => RepKind::Setup,
        };
        reps.push(spawn_rep(w, seed, workers, false, kind)?);
    }
    let driven: Vec<&Summary> = reps
        .iter()
        .filter(|r| r.num("drive_s").is_finite())
        .collect();
    let setups = sorted(reps.iter().map(|r| r.num("setup_s")).collect());
    let admits = sorted(reps.iter().flat_map(|r| r.nums("admit_us")).collect());
    let ticks = sorted(driven.iter().flat_map(|r| r.nums("tick_ms")).collect());
    let push_ticks = sorted(driven.iter().flat_map(|r| r.nums("push_tick_ms")).collect());
    let rates = sorted(
        driven
            .iter()
            .map(|r| r.num("ingest.entries") / r.num("drive_s"))
            .collect(),
    );
    let (tick_tail, tick_pct) = tail(&ticks).unwrap_or((f64::NAN, f64::NAN));
    let push_p50 = if push_ticks.is_empty() {
        f64::NAN
    } else {
        median(&push_ticks)
    };
    let peak_rss = reps
        .iter()
        .map(|r| r.num("peak_rss_mb"))
        .fold(0.0, f64::max);
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("admit_mean_us", mean(&admits), "us"),
        metric("drive_entries_per_s", median(&rates), "1/s"),
        metric("tick_p99_ms", tick_tail, "ms"),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ];
    let mut info = vec![
        ("repetitions".into(), reps.len().to_string()),
        ("driven_repetitions".into(), driven.len().to_string()),
        ("setup_samples_s".into(), format!("{setups:?}")),
        ("admissions".into(), admits.len().to_string()),
        ("ticks".into(), ticks.len().to_string()),
        ("push_ticks".into(), push_ticks.len().to_string()),
        ("tick_tail_percentile".into(), jnum(tick_pct)),
        ("push_tick_p50_ms".into(), jmetric(push_p50, "ms")),
        ("admit_p50_us".into(), jmetric(median(&admits), "us")),
    ];
    if w == Workload::AdmissionScale {
        // Only a population of >= 1000 admissions leaves >= 10 beyond p99.
        let p99 = tail(&admits).map_or(f64::NAN, |t| t.0);
        info.push(("admit_p99_us".into(), jmetric(p99, "us")));
    }
    sim_info(&mut info, driven[0]);
    let (deterministic, dollars_repeat) = repeats(&driven);
    info.push(("deterministic".into(), deterministic.to_string()));
    info.push(("dollars_repeat".into(), dollars_repeat.to_string()));
    let fails = ledger(&reps.iter().collect::<Vec<_>>());
    let correct = fails.failed == 0
        && deterministic
        && driven.iter().all(|r| r.word("drained_quiet") == "true")
        && metrics.iter().all(|m| m.1.is_finite());
    Ok(Outcome {
        correct,
        fails,
        metrics,
        info,
    })
}

/// Per-layer counts read straight from the traced repetition's summary:
/// (metric, summary key).
const LAYER_COUNTS: [(&str, &str); 8] = [
    ("workload.entries", "ingest.entries"),
    ("submit.rejected", "submit.rejected"),
    ("ingest.calls", "ingest.calls"),
    ("ingest.entries", "ingest.entries"),
    ("step.calls", "step.calls"),
    ("live.calls", "live.calls"),
    ("retire.calls", "retire.calls"),
    ("verify.mvs_checked", "mvs_checked"),
];

/// Per-layer busy time, the self time of the layer's spans:
/// (metric, span name).
const LAYER_SELF: [(&str, &str); 8] = [
    ("workload.gen_s", "workload.gen"),
    ("submit.busy_s", "submit"),
    ("install.busy_s", "install"),
    ("ingest.busy_s", "ingest"),
    ("step.busy_s", "step"),
    ("live.busy_s", "live"),
    ("retire.busy_s", "retire"),
    ("verify.busy_s", "verify"),
];

/// A traced run: a traced repetition for the per-layer ledger, then an
/// untraced one at one worker for the single-threaded baseline and the
/// determinism check.
fn traced(w: Workload, seed: u64, workers: usize) -> Result<Outcome, String> {
    let a = spawn_rep(w, seed, workers, true, RepKind::Check)?;
    let c = spawn_rep(w, seed, 1, false, RepKind::Drive)?;
    // A layer the workload never called has no spans: zero busy time.
    let busy = |span: &str| {
        let v = a.num(&format!("self.{span}"));
        if v.is_nan() {
            0.0
        } else {
            v
        }
    };
    let mut metrics: Vec<Metric> = LAYER_SELF
        .iter()
        .map(|(name, span)| metric(name, busy(span), "s"))
        .collect();
    metrics.extend(
        LAYER_COUNTS
            .iter()
            .map(|(name, key)| metric(name, a.num(key), "count")),
    );
    metrics.extend([
        metric("submit.calls", a.nums("admit_us").len() as f64, "count"),
        metric(
            "step.push_ticks",
            a.nums("push_tick_ms").len() as f64,
            "count",
        ),
        metric(
            "verify.mvs_mismatched",
            a.words("mvs_mismatched").len() as f64,
            "count",
        ),
    ]);
    for key in a.keys_with("layer.") {
        let vs = a.words(key);
        let v = vs[0].parse().unwrap_or(f64::NAN);
        metrics.push(metric(&key["layer.".len()..], v, &vs[1]));
    }
    let wave_busy = a.num("layer.executor.wave_busy_s");
    let coverage = a.num("trace.coverage");
    let (drive_s, workers1_s) = (a.num("drive_s"), c.num("drive_s"));
    metrics.extend([
        metric(
            "executor.parallelism",
            ratio(wave_busy, busy("step")),
            "ratio",
        ),
        metric("trace.coverage", coverage, "ratio"),
        metric("trace.spans", a.num("trace.spans"), "count"),
        metric(
            "trace.overhead_share",
            a.num("trace.overhead_s") / a.num("wall_s"),
            "ratio",
        ),
        metric("baseline.drive_s", drive_s, "s"),
        metric("baseline.workers1_drive_s", workers1_s, "s"),
        metric("baseline.speedup", workers1_s / drive_s, "ratio"),
    ]);
    let (deterministic, dollars_repeat) = repeats(&[&a, &c]);
    let mut info = vec![
        ("workers1_sim_digest".into(), jstr(c.word("sim_digest"))),
        ("deterministic".into(), deterministic.to_string()),
        ("dollars_repeat".into(), dollars_repeat.to_string()),
        ("traced_wall_s".into(), jnum(a.num("wall_s"))),
        ("tracing_overhead_s".into(), jnum(a.num("trace.overhead_s"))),
        ("trace_file".into(), jstr(a.word("trace_file"))),
    ];
    sim_info(&mut info, &a);
    let self_json: Vec<String> = a
        .keys_with("self.")
        .map(|k| format!("{}:{}", jstr(&k["self.".len()..]), jnum(a.num(k))))
        .collect();
    info.push(("self_s".into(), format!("{{{}}}", self_json.join(","))));
    let fails = ledger(&[&a, &c]);
    let correct = fails.failed == 0
        && deterministic
        && coverage >= MIN_COVERAGE
        && a.word("trace.written") == "true"
        && [&a, &c].iter().all(|r| r.word("drained_quiet") == "true");
    Ok(Outcome {
        correct,
        fails,
        metrics,
        info,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                jstr(name),
                jnum(*v),
                jstr(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Command-line flags. A run takes `--workload`; a child repetition takes
/// `--rep` plus `--workers`, `--trace` and `--kind`.
struct Args {
    workloads: Vec<Workload>,
    rep: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
    kind: RepKind,
}

fn parse_args() -> Result<Args, String> {
    let workload = |v: &str| Workload::parse(v).ok_or(format!("unknown workload {v}"));
    let flag = |v: &str| match v {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("expected 0 or 1, got {v}")),
    };
    let mut a = Args {
        workloads: Vec::new(),
        rep: None,
        seed: 1,
        seconds: 10,
        trace: false,
        workers: 1,
        kind: RepKind::Check,
    };
    let mut it = std::env::args().skip(1);
    while let Some(name) = it.next() {
        let v = it.next().ok_or(format!("{name} needs a value"))?;
        match name.as_str() {
            "--workload" if v == "all" => a.workloads = Workload::ALL.to_vec(),
            "--workload" => a.workloads = vec![workload(&v)?],
            "--rep" => a.rep = Some(workload(&v)?),
            "--seed" => a.seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = flag(&v)?,
            "--workers" => a.workers = v.parse().map_err(|e| format!("--workers: {e}"))?,
            "--kind" => a.kind = RepKind::parse(&v).ok_or(format!("unknown --kind {v}"))?,
            _ => return Err(format!("unknown flag {name}")),
        }
    }
    if a.workloads.is_empty() && a.rep.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "smile-e2e: {e}\nusage: smile-e2e --workload \
             <paper-steady|admission-scale|churn-burst|live-churn|all> --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    if let Some(w) = args.rep {
        print!(
            "{}",
            run_rep(w, args.seed, args.workers, args.trace, args.kind).render()
        );
        return;
    }
    // The executor's worker count is pinned to the host's cores, never
    // taken from the environment.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all = Outcome {
        correct: true,
        fails: FailLedger::default(),
        metrics: Vec::new(),
        info: Vec::new(),
    };
    for &w in &args.workloads {
        let out = if args.trace {
            traced(w, args.seed, nproc)
        } else {
            end_to_end(w, args.seed, nproc, args.seconds)
        };
        let out = out.unwrap_or_else(|e| {
            eprintln!("smile-e2e: {e}");
            std::process::exit(1);
        });
        let info: Vec<String> = out
            .info
            .iter()
            .map(|(k, v)| format!("{}:{v}", jstr(k)))
            .collect();
        println!(
            "{{\"workload\":{},\"seed\":{},\"nproc\":{nproc},\"trace\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"metrics\":{},\"info\":{{{}}}}}",
            jstr(w.name()),
            args.seed,
            args.trace as u8,
            out.correct,
            out.fails.attempted,
            out.fails.failed,
            metrics_json(&out.metrics),
            info.join(",")
        );
        all.correct &= out.correct;
        all.fails.absorb(out.fails);
        if args.workloads.len() == 1 {
            all.metrics = out.metrics;
        } else {
            all.metrics.extend(
                out.metrics
                    .into_iter()
                    .map(|(n, v, u)| (format!("{}.{n}", w.name()), v, u)),
            );
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        all.correct,
        all.fails.attempted,
        all.fails.failed,
        metrics_json(&all.metrics)
    );
}
