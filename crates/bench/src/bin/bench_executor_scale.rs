//! BENCH_0007 — executor scale-out: push-calendar scheduling vs. the
//! per-tick scan baseline, *executing* (not just admitting) 1k → 100k
//! sharings under a gardenhose-style ingest trace.
//!
//! Two questions, two arms:
//!
//! * **calendar** (scale arm) — the event-driven scheduler: idle sharings
//!   sleep on a timer wheel at their projected fire tick, cached affine
//!   critical paths replace the per-tick plan walk, and a tick costs
//!   O(due + invalidated). Swept to 100k resident sharings with the
//!   platform fully live: heartbeats, ingest, snapshot audits and real
//!   pushes from a 1-in-200 interactive-SLA minority all running. The rest
//!   of the population carries minutes-long staggered SLAs, so the due set
//!   is mostly idle — the regime the acceptance bar names.
//! * **scan** — the baseline `plan_batch`: every tick reconsiders every
//!   sharing and recomputes `critical_path` from the full merged plan, so
//!   a tick costs O(N · V(N)). Too slow to sweep to 100k; it runs to a cap
//!   and a least-squares line through its per-tick p99 *as a function of
//!   x = N·V(N)* (the actual work term: each of N sharings walks a
//!   V(N)-vertex topo order) extrapolates `modeled_scan_p99_us_at_top` —
//!   the same modeled-metric convention BENCH_0003/0005 use.
//!
//! Latencies are the executor's own `sched.host_tick_us` log (drain +
//! heartbeats + planning, execution excluded), windowed past the first
//! `WARMUP_TICKS` ticks so the deliberately O(N) install-tick spike does
//! not own the percentile.
//!
//! A third **fig5** section answers "did event-driven scheduling cost any
//! end-to-end throughput at paper scale": the standard 6-machine /
//! 25-sharing Twitter setup (the BENCH_0006 columnar arm's scale) is driven
//! through both schedulers and must move the *same* tuples at a wall-clock
//! ratio near 1. BENCH_0006's absolute columnar tuples/s is host-dependent,
//! so the committed reference is reported for context while the enforced
//! bar is the in-process calendar/scan ratio.
//!
//! Headline metrics, validated by `--validate`:
//! * `sched_speedup_at_top` = modeled scan p99 ÷ measured calendar p99 at
//!   the top of the sweep (≥ 20 required in full mode, ≥ 5 in quick);
//! * `executed_sharings` ≥ 100_000 in full mode, with
//!   `calendar_tuples_moved_top` > 0 (the fleet really pushed at scale);
//! * `fig5_throughput_ratio` = calendar ÷ scan end-to-end tuples/s at
//!   paper scale (≥ 0.9 required in full mode, ≥ 0.5 in quick), with both
//!   arms moving byte-identical tuple counts.

use smile_bench::{drive, get_num};
use smile_core::catalog::BaseStats;
use smile_core::platform::{Smile, SmileConfig};
use smile_storage::delta::DeltaEntry;
use smile_storage::join::JoinOn;
use smile_storage::{DeltaBatch, Predicate, SpjQuery};
use smile_types::{tuple, Column, ColumnType, MachineId, RelationId, Schema, SimDuration};
use smile_workload::rates::{RateIntegrator, RateTrace};
use smile_workload::sharings::paper_sharings;
use smile_workload::twitter::{standard_setup, TwitterConfig};
use std::time::Instant;

const MACHINES: usize = 6;
const RELATIONS: u32 = 6;
const SHAPES: u32 = 4;
/// Effectively unlimited admission capacity: the sweep measures scheduler
/// mechanics, not rejection behaviour, so every sharing must admit.
const CAPACITY: f64 = 1e12;
/// Ticks excluded from the percentile window: the install tick schedules
/// all N slots (deliberately O(N)) and the first consider pass parks or
/// beds down the whole population.
const WARMUP_TICKS: usize = 5;
const GARDENHOSE_MEAN: f64 = 100.0;
const SEED: u64 = 7;

struct Config {
    mode: &'static str,
    /// Calendar (scale) arm checkpoints (resident sharing counts).
    calendar_ns: &'static [usize],
    /// Scan arm checkpoints; the last is the scan cap.
    scan_ns: &'static [usize],
    /// Executed ticks per scale-arm run (1 simulated second each).
    ticks: usize,
    /// Simulated seconds of the fig5-scale throughput comparison.
    fig5_secs: u64,
}

impl Config {
    fn full() -> Self {
        Self {
            mode: "full",
            calendar_ns: &[1000, 10_000, 100_000],
            scan_ns: &[500, 1000, 2000],
            ticks: 60,
            fig5_secs: 240,
        }
    }

    fn quick() -> Self {
        Self {
            mode: "quick",
            calendar_ns: &[200, 1000],
            scan_ns: &[100, 200, 1000],
            ticks: 30,
            fig5_secs: 45,
        }
    }
}

/// SLA of the i-th sharing. A 1-in-200 interactive minority (30–59 s,
/// staggered) keeps real pushes firing inside the measured window; the
/// bulk carries 5–15 minute SLAs, so at any tick almost every sharing is
/// asleep — the mostly-idle due set of the acceptance bar.
fn sla_secs(i: usize) -> u64 {
    if i.is_multiple_of(200) {
        30 + (i / 200 % 30) as u64
    } else {
        300 + (i % 600) as u64
    }
}

/// The i-th sharing of the sweep: the BENCH_0005 workload shape. Four
/// two-way join shapes over six base relations with an `isqrt(i)` equality
/// literal, so distinct plan structures appear at a falling ~1/(2√i) rate
/// and later admissions increasingly dedup into resident structures.
fn query(i: usize) -> SpjQuery {
    let shape = (i as u32) % SHAPES;
    let k = (i as f64).sqrt().floor() as i64;
    let (a, b) = (shape, (shape + 1) % RELATIONS);
    SpjQuery::scan(RelationId::new(a)).join(
        RelationId::new(b),
        JoinOn::on(1, 0),
        Predicate::eq(2, k),
    )
}

fn build_platform(n: usize, calendar: bool) -> (Smile, Vec<RelationId>, f64) {
    let mut config = SmileConfig::with_machines(MACHINES);
    config.capacity = CAPACITY;
    config.hill_climb = false;
    config.exec.calendar_scheduling = calendar;
    let mut smile = Smile::new(config);
    let mut rels = Vec::new();
    for r in 0..RELATIONS {
        let card = 50_000.0 + 25_000.0 * r as f64;
        let rel = smile
            .register_base(
                &format!("rel{r}"),
                Schema::new(
                    vec![
                        Column::new("id", ColumnType::I64),
                        Column::new("fk", ColumnType::I64),
                        Column::new("g", ColumnType::I64),
                    ],
                    vec![0],
                ),
                MachineId::new(r % MACHINES as u32),
                BaseStats {
                    update_rate: 10.0 + r as f64,
                    cardinality: card,
                    tuple_bytes: 24.0,
                    distinct: vec![card, card / 10.0, 1000.0],
                },
            )
            .expect("register base");
        rels.push(rel);
    }
    let started = Instant::now();
    for i in 0..n {
        smile
            .submit_pinned(
                &format!("S{i}"),
                query(i),
                SimDuration::from_secs(sla_secs(i)),
                0.001,
                Some(MachineId::new(i as u32 % MACHINES as u32)),
            )
            .expect("admission under unlimited capacity");
    }
    smile.install().expect("install");
    (smile, rels, started.elapsed().as_secs_f64())
}

struct ScaleRun {
    n: usize,
    vertices: usize,
    edges: usize,
    sched_p50_us: f64,
    sched_p99_us: f64,
    tuples_moved: u64,
    pushes: usize,
    install_secs: f64,
    drive_secs: f64,
}

/// Executes `ticks` one-second ticks at population `n` under gardenhose
/// ingest round-robined over the base relations, and windows the
/// executor's own per-tick scheduling latency log.
fn run_scale(n: usize, calendar: bool, ticks: usize) -> ScaleRun {
    let (mut smile, rels, install_secs) = build_platform(n, calendar);
    let mut integrator = RateIntegrator::new(RateTrace::Gardenhose {
        mean: GARDENHOSE_MEAN,
        seed: SEED,
    });
    let mut seq: i64 = 0;
    let started = Instant::now();
    for _ in 0..ticks {
        let now = smile.now();
        let count = integrator.tick(now, SimDuration::from_secs(1));
        let mut per_rel: Vec<Vec<DeltaEntry>> = vec![Vec::new(); RELATIONS as usize];
        for _ in 0..count {
            let r = (seq % RELATIONS as i64) as usize;
            per_rel[r].push(DeltaEntry::insert(tuple![seq, seq % 977, seq % 1000], now));
            seq += 1;
        }
        for (r, entries) in per_rel.into_iter().enumerate() {
            if !entries.is_empty() {
                let batch: DeltaBatch = entries.into_iter().collect();
                smile.ingest(rels[r], batch).expect("ingest");
            }
        }
        smile.step().expect("step");
    }
    let drive_secs = started.elapsed().as_secs_f64();
    let ex = smile.executor.as_ref().expect("installed");
    let mut window: Vec<u64> = ex.sched_host_us.iter().skip(WARMUP_TICKS).copied().collect();
    window.sort_unstable();
    let g = smile.global_plan().expect("installed");
    ScaleRun {
        n,
        vertices: g.plan.vertex_count(),
        edges: g.plan.edges().len(),
        sched_p50_us: pct_us(&window, 0.50),
        sched_p99_us: pct_us(&window, 0.99),
        tuples_moved: ex.tuples_moved,
        pushes: ex.push_records.len(),
        install_secs,
        drive_secs,
    }
}

fn pct_us(sorted: &[u64], q: f64) -> f64 {
    smile_bench::percentile_sorted(sorted, q)
}

struct Fig5Run {
    tuples_moved: u64,
    wall_secs: f64,
    tuples_per_sec: f64,
    sched_p99_us: f64,
}

/// The paper's standard 6-machine / 25-sharing Twitter setup driven
/// through one scheduler: end-to-end tuples/s over the drive phase.
fn run_fig5(calendar: bool, secs: u64) -> Fig5Run {
    let mut config = SmileConfig::with_machines(MACHINES);
    config.exec.calendar_scheduling = calendar;
    let mut smile = Smile::new(config);
    let mut workload = standard_setup(
        &mut smile,
        TwitterConfig {
            assumed_tweet_rate: GARDENHOSE_MEAN,
            ..TwitterConfig::default()
        },
        5_000,
    )
    .expect("twitter setup");
    for (pin, s) in paper_sharings(&workload.rels()).iter().enumerate() {
        smile
            .submit_pinned(
                s.app,
                s.query.clone(),
                SimDuration::from_secs(45),
                0.001,
                Some(MachineId::new(pin as u32 % MACHINES as u32)),
            )
            .expect("paper sharing admits");
    }
    smile.install().expect("install");
    let started = Instant::now();
    drive(
        &mut smile,
        &mut workload,
        RateTrace::Gardenhose {
            mean: GARDENHOSE_MEAN,
            seed: SEED,
        },
        SimDuration::from_secs(secs),
    )
    .expect("drive");
    let wall_secs = started.elapsed().as_secs_f64();
    let ex = smile.executor.as_ref().expect("installed");
    let mut window: Vec<u64> = ex.sched_host_us.iter().skip(WARMUP_TICKS).copied().collect();
    window.sort_unstable();
    Fig5Run {
        tuples_moved: ex.tuples_moved,
        wall_secs,
        tuples_per_sec: ex.tuples_moved as f64 / wall_secs.max(1e-9),
        sched_p99_us: pct_us(&window, 0.99),
    }
}

/// Least-squares `p99 = slope·x + intercept` over `(x, p99)` points.
fn fit(points: &[(f64, f64)]) -> (f64, f64) {
    let k = points.len() as f64;
    let sx: f64 = points.iter().map(|(x, _)| *x).sum();
    let sy: f64 = points.iter().map(|(_, y)| *y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let slope = (k * sxy - sx * sy) / (k * sxx - sx * sx);
    (slope, (sy - slope * sx) / k)
}

#[allow(clippy::too_many_arguments)]
fn emit_json(
    cfg: &Config,
    cal: &[ScaleRun],
    scan: &[ScaleRun],
    slope: f64,
    intercept: f64,
    modeled_scan_p99_at_top: f64,
    measured_at: Option<(usize, f64)>,
    fig5_cal: &Fig5Run,
    fig5_scan: &Fig5Run,
) -> String {
    let first = cal.first().unwrap();
    let top = cal.last().unwrap();
    let cal_rows: Vec<String> = cal
        .iter()
        .map(|c| {
            format!(
                "      {{ \"n\": {}, \"vertices\": {}, \"edges\": {}, \"sched_p50_us\": {:.1}, \"sched_p99_us\": {:.1}, \"tuples_moved\": {}, \"pushes\": {}, \"install_secs\": {:.2}, \"drive_secs\": {:.2} }}",
                c.n, c.vertices, c.edges, c.sched_p50_us, c.sched_p99_us, c.tuples_moved,
                c.pushes, c.install_secs, c.drive_secs
            )
        })
        .collect();
    let scan_rows: Vec<String> = scan
        .iter()
        .map(|c| {
            format!(
                "      {{ \"scan_n\": {}, \"scan_vertices\": {}, \"scan_x\": {:.0}, \"scan_p99_us\": {:.1}, \"scan_tuples_moved\": {} }}",
                c.n,
                c.vertices,
                c.n as f64 * c.vertices as f64,
                c.sched_p99_us,
                c.tuples_moved
            )
        })
        .collect();
    let (measured_n, measured_speedup) = measured_at.unwrap_or((0, 0.0));
    format!(
        r#"{{
  "bench_id": "BENCH_0007",
  "config": {{
    "mode": "{mode}",
    "machines": {machines},
    "relations": {relations},
    "shapes": {shapes},
    "ticks": {ticks},
    "warmup_ticks": {warmup},
    "capacity": {capacity:e},
    "gardenhose_mean": {mean:.1}
  }},
  "calendar": {{
    "executed_sharings": {top_n},
    "sched_p50_us_top": {p50_top:.1},
    "sched_p99_us_top": {p99_top:.1},
    "sched_p99_growth_ratio": {growth:.3},
    "calendar_tuples_moved_top": {tuples_top},
    "pushes_top": {pushes_top},
    "checkpoints": [
{cal_rows}
    ]
  }},
  "scan": {{
    "sharings_cap": {scan_cap},
    "slope_us_per_vertex_visit": {slope:.6},
    "intercept_us": {intercept:.1},
    "modeled_scan_p99_us_at_top": {modeled:.1},
    "scan_p99_us_at_cap": {scan_at_cap:.1},
    "scan_checkpoints": [
{scan_rows}
    ]
  }},
  "sched_speedup_at_top": {speedup:.1},
  "measured_speedup_n": {measured_n},
  "measured_speedup": {measured_speedup:.2},
  "fig5": {{
    "duration_secs": {fig5_secs},
    "sharings": 25,
    "calendar_tuples_per_sec": {f5c_tps:.1},
    "scan_tuples_per_sec": {f5s_tps:.1},
    "fig5_throughput_ratio": {ratio:.3},
    "fig5_calendar_tuples_moved": {f5c_tuples},
    "fig5_scan_tuples_moved": {f5s_tuples},
    "calendar_wall_secs": {f5c_wall:.2},
    "scan_wall_secs": {f5s_wall:.2},
    "calendar_sched_p99_us": {f5c_p99:.1},
    "scan_sched_p99_us": {f5s_p99:.1},
    "bench_0006_columnar_tuples_per_sec_ref": 5528672.6
  }}
}}
"#,
        mode = cfg.mode,
        machines = MACHINES,
        relations = RELATIONS,
        shapes = SHAPES,
        ticks = cfg.ticks,
        warmup = WARMUP_TICKS,
        capacity = CAPACITY,
        mean = GARDENHOSE_MEAN,
        top_n = top.n,
        p50_top = top.sched_p50_us,
        p99_top = top.sched_p99_us,
        growth = top.sched_p99_us / first.sched_p99_us.max(1.0),
        tuples_top = top.tuples_moved,
        pushes_top = top.pushes,
        cal_rows = cal_rows.join(",\n"),
        scan_cap = scan.last().unwrap().n,
        slope = slope,
        intercept = intercept,
        modeled = modeled_scan_p99_at_top,
        scan_at_cap = scan.last().unwrap().sched_p99_us,
        scan_rows = scan_rows.join(",\n"),
        speedup = modeled_scan_p99_at_top / top.sched_p99_us.max(1.0),
        measured_n = measured_n,
        measured_speedup = measured_speedup,
        fig5_secs = cfg.fig5_secs,
        f5c_tps = fig5_cal.tuples_per_sec,
        f5s_tps = fig5_scan.tuples_per_sec,
        ratio = fig5_cal.tuples_per_sec / fig5_scan.tuples_per_sec.max(1e-9),
        f5c_tuples = fig5_cal.tuples_moved,
        f5s_tuples = fig5_scan.tuples_moved,
        f5c_wall = fig5_cal.wall_secs,
        f5s_wall = fig5_scan.wall_secs,
        f5c_p99 = fig5_cal.sched_p99_us,
        f5s_p99 = fig5_scan.sched_p99_us,
    )
}

fn validate(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if !json.contains("\"bench_id\": \"BENCH_0007\"") {
        return Err("missing or wrong bench_id".into());
    }
    let full = json.contains("\"mode\": \"full\"");
    let num = |key: &str| get_num(&json, key).ok_or_else(|| format!("missing numeric {key}"));
    // `sched_p50_us_top` is exempt from the positivity sweep: the calendar
    // median tick is routinely 0 µs (below timer resolution).
    for key in [
        "machines",
        "executed_sharings",
        "sched_p99_us_top",
        "modeled_scan_p99_us_at_top",
        "scan_p99_us_at_cap",
        "calendar_tuples_moved_top",
        "measured_speedup",
        "calendar_tuples_per_sec",
        "scan_tuples_per_sec",
        "fig5_calendar_tuples_moved",
    ] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    if full && num("executed_sharings")? < 100_000.0 {
        return Err("full mode must execute >= 100k concurrent sharings".into());
    }
    let speedup = num("sched_speedup_at_top")?;
    let speedup_bar = if full { 20.0 } else { 5.0 };
    if speedup < speedup_bar {
        return Err(format!(
            "sched_speedup_at_top is {speedup:.1}, below the {speedup_bar}x acceptance bar"
        ));
    }
    let ratio = num("fig5_throughput_ratio")?;
    let ratio_bar = if full { 0.9 } else { 0.5 };
    if ratio < ratio_bar {
        return Err(format!(
            "fig5_throughput_ratio is {ratio:.3}, below the {ratio_bar} bar: \
             calendar scheduling cost end-to-end throughput"
        ));
    }
    // Both schedulers must have moved byte-identical work at fig5 scale —
    // the throughput comparison is only meaningful on equal output.
    let (ct, st) = (
        num("fig5_calendar_tuples_moved")?,
        num("fig5_scan_tuples_moved")?,
    );
    if ct != st {
        return Err(format!(
            "fig5 arms diverged: calendar moved {ct} tuples, scan moved {st}"
        ));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args.get(i + 1).expect("--validate needs a path");
        match validate(path) {
            Ok(()) => println!("{path}: schema OK"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let cfg = if quick { Config::quick() } else { Config::full() };
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|j| args.get(j + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_0007.json".to_string());

    eprintln!(
        "executor scale sweep ({}): calendar to {} sharings, scan to {}, {} ticks each ...",
        cfg.mode,
        cfg.calendar_ns.last().unwrap(),
        cfg.scan_ns.last().unwrap(),
        cfg.ticks,
    );
    let mut cal = Vec::new();
    for &n in cfg.calendar_ns {
        let r = run_scale(n, true, cfg.ticks);
        eprintln!(
            "  calendar n={n}: p50 {:.0} us, p99 {:.0} us, {} pushes, {} tuples (install {:.1}s, drive {:.1}s)",
            r.sched_p50_us, r.sched_p99_us, r.pushes, r.tuples_moved, r.install_secs, r.drive_secs
        );
        cal.push(r);
    }
    let mut scan = Vec::new();
    for &n in cfg.scan_ns {
        let r = run_scale(n, false, cfg.ticks);
        eprintln!(
            "  scan n={n}: p99 {:.0} us over x = {:.0} vertex visits/tick (drive {:.1}s)",
            r.sched_p99_us,
            n as f64 * r.vertices as f64,
            r.drive_secs
        );
        scan.push(r);
    }
    // Scan cost per tick is O(N·V(N)): every sharing's critical-path
    // recomputation walks the full merged plan. Fit against that work term
    // and read the line at the calendar arm's top population.
    let points: Vec<(f64, f64)> = scan
        .iter()
        .map(|r| (r.n as f64 * r.vertices as f64, r.sched_p99_us))
        .collect();
    let (slope, intercept) = fit(&points);
    let top = cal.last().unwrap();
    let x_top = top.n as f64 * top.vertices as f64;
    let modeled = slope * x_top + intercept;
    // Apples-to-apples measured ratio at the largest population both arms
    // actually ran.
    let measured_at = scan
        .iter()
        .rev()
        .find_map(|s| {
            cal.iter()
                .find(|c| c.n == s.n)
                .map(|c| (s.n, s.sched_p99_us / c.sched_p99_us.max(1.0)))
        });
    eprintln!(
        "  sched speedup at {}: {:.1}x (modeled scan / measured calendar)",
        top.n,
        modeled / top.sched_p99_us.max(1.0)
    );

    eprintln!("  fig5-scale throughput ({}s, 25 sharings) ...", cfg.fig5_secs);
    let fig5_cal = run_fig5(true, cfg.fig5_secs);
    let fig5_scan = run_fig5(false, cfg.fig5_secs);
    eprintln!(
        "  fig5: calendar {:.0} tuples/s vs scan {:.0} tuples/s (ratio {:.3})",
        fig5_cal.tuples_per_sec,
        fig5_scan.tuples_per_sec,
        fig5_cal.tuples_per_sec / fig5_scan.tuples_per_sec.max(1e-9)
    );

    let json = emit_json(
        &cfg, &cal, &scan, slope, intercept, modeled, measured_at, &fig5_cal, &fig5_scan,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, json).expect("write BENCH json");
    println!("wrote {out}");
}
