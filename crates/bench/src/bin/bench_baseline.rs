//! Emits the `BENCH_0002.json` baseline: delta-apply throughput through the
//! arrangement-backed join hot path versus the legacy scan-rebuild path,
//! fig5-scale platform tick latency, and the arrangement hit-rate counters.
//!
//! With `--workers` it instead emits the `BENCH_0003.json` parallel-push
//! sweep: a fig5-scale fleet (8 machines, 8 cross-machine join sharings)
//! driven once per worker count, asserting the results are identical and
//! reporting both wall clock and the `WaveMeter` modeled makespan — the
//! schedule replayed through an N-core host, which is the headline number
//! because CI hosts may have a single core.
//!
//! With `--trace` it instead emits the `BENCH_0004.json` telemetry
//! overhead ablation: the same fig5-scale fleet driven with telemetry on
//! and off (min wall clock over several interleaved reps), asserting the
//! span ring stays empty in the off runs, plus a Perfetto-loadable Chrome
//! trace artifact exported from an instrumented run.
//!
//! With `--throughput` it instead emits the `BENCH_0006.json` storage
//! hot-path benchmark: the fig5-scale delta-apply workload driven through
//! the columnar path (one-pass frame encode from the borrowed window,
//! zero-copy validated landing, batched key probing) versus the legacy
//! per-tuple row path, with peak RSS recorded. `--validate` on the emitted
//! file enforces the ≥10× wall-clock bar over the committed BENCH_0002
//! baseline and the RSS ceiling on full-scale runs (quick runs are
//! schema-checked only — CI hosts are too noisy for a wall-clock bar).
//!
//! Usage:
//!   bench_baseline [--out PATH] [--quick]   measure and write BENCH_0002
//!   bench_baseline --workers 1,2,4,8 [--out PATH] [--quick]
//!                                           measure and write BENCH_0003
//!   bench_baseline --trace [PATH] [--out PATH] [--quick]
//!                                           measure and write BENCH_0004
//!                                           plus the trace artifact
//!   bench_baseline --throughput [--out PATH] [--quick]
//!                                           measure and write BENCH_0006
//!   bench_baseline --validate PATH          schema-check an emitted JSON
//!                                           (BENCH_0006: also enforce the
//!                                           10x + RSS acceptance bars)
//!   bench_baseline --validate-trace PATH    schema-check a Chrome trace
//!
//! The JSON is hand-rolled (the container has no serde); `--validate`
//! re-reads it with a matching hand-rolled extractor so CI can smoke-test
//! both the emitter and the schema.

use std::collections::HashMap;
use std::time::Instant;

use smile_bench::get_num;
use smile_core::catalog::BaseStats;
use smile_core::platform::{Smile, SmileConfig};
use smile_storage::delta::{DeltaBatch, DeltaEntry};
use smile_storage::join::JoinOn;
use smile_storage::{wal, Database, Frame, Predicate, SpjQuery};
use smile_telemetry::HistogramSnapshot;
use smile_types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SimDuration, Timestamp, Tuple, Value,
};

const REL: RelationId = RelationId(0);
const KEYS: i64 = 977;

/// The committed BENCH_0002 fig5-scale arrangement throughput — the
/// pre-refactor engine's hot-path wall clock that BENCH_0006 is measured
/// against.
const BASELINE_0002_TPS: f64 = 266_734.6;

/// BENCH_0006 acceptance bar: the columnar hot path must clear this factor
/// over [`BASELINE_0002_TPS`] at fig5 scale.
const THROUGHPUT_TARGET: f64 = 10.0;

/// BENCH_0006 peak-RSS ceiling at fig5 scale, in kilobytes. The workload's
/// resident set is dominated by the 50k-row table plus its arrangement
/// (tens of MB); the ceiling catches a hot path that silently trades
/// memory blowup for speed.
const RSS_CEILING_KB: u64 = 524_288;

/// Fleet size for the fig5-scale ring workload (BENCH_0003 / BENCH_0004).
const FLEET_MACHINES: usize = 8;

/// The telemetry overhead budget enforced by `--validate` on BENCH_0004,
/// in percent of the uninstrumented wall clock.
const OVERHEAD_BUDGET_PCT: f64 = 3.0;

struct Config {
    rows: i64,
    batch: usize,
    batches: usize,
    ticks: u64,
}

impl Config {
    fn fig5() -> Self {
        // Fig. 5 calibrates per-operator costs on ~50k-row relations; the
        // baseline replays that scale with 256-entry delta batches.
        Config {
            rows: 50_000,
            batch: 256,
            batches: 64,
            ticks: 120,
        }
    }

    fn quick() -> Self {
        Config {
            rows: 5_000,
            batch: 256,
            batches: 8,
            ticks: 20,
        }
    }
}

fn schema2() -> Schema {
    Schema::new(
        vec![
            Column::new("k", ColumnType::I64),
            Column::new("v", ColumnType::I64),
        ],
        vec![],
    )
}

fn filled_db(rows: i64, indexed: bool) -> Database {
    let mut db = Database::new();
    db.create_relation(REL, schema2()).unwrap();
    let batch: DeltaBatch = (0..rows)
        .map(|i| DeltaEntry::insert(tuple![i % KEYS, i], Timestamp::from_secs(1)))
        .collect();
    db.ingest(REL, batch).unwrap();
    if indexed {
        db.ensure_index(REL, &[0]).unwrap();
    }
    db
}

fn delta_window(n: usize, offset: i64, ts: u64) -> DeltaBatch {
    (0..n as i64)
        .map(|i| DeltaEntry::insert(tuple![(offset + i) % KEYS, offset + i], Timestamp::from_secs(ts)))
        .collect()
}

/// One batch through the scan path: rebuild a snapshot-side index, probe
/// it, then land the delta (no arrangement to maintain).
fn scan_apply(db: &mut Database, batch: DeltaBatch) -> usize {
    let win = batch.to_zset();
    let mut produced = 0usize;
    {
        let table = &db.relation(REL).unwrap().table;
        let mut scan_index: HashMap<Tuple, Vec<(&Tuple, i64)>> = HashMap::new();
        for (row, w) in table.rows().iter() {
            let key = Tuple::new(vec![row.values()[0].clone()]);
            scan_index.entry(key).or_default().push((row, w));
        }
        for (t, w) in win.iter() {
            let key = Tuple::new(vec![t.values()[0].clone()]);
            if let Some(matches) = scan_index.get(&key) {
                for &(row, rw) in matches {
                    std::hint::black_box((row, w * rw));
                    produced += 1;
                }
            }
        }
    }
    db.ingest(REL, batch).unwrap();
    produced
}

/// One batch through the arrangement path: probe the persistent index,
/// then land the delta (maintaining the arrangement in place).
fn probe_apply(db: &mut Database, batch: DeltaBatch) -> usize {
    let win = batch.to_zset();
    let mut produced = 0usize;
    {
        let table = &db.relation(REL).unwrap().table;
        for (t, w) in win.iter() {
            let key = Tuple::new(vec![t.values()[0].clone()]);
            if let Some(matches) = table.probe_index(&[0], &key) {
                for (row, &rw) in matches {
                    std::hint::black_box((row, w * rw));
                    produced += 1;
                }
            }
        }
    }
    db.ingest(REL, batch).unwrap();
    produced
}

/// What the BENCH_0006 storage hot-path run measured.
struct ThroughputStats {
    /// Delta batches moved through the ship→land→apply pipeline.
    batches: usize,
    /// Tuples moved end to end (the throughput denominator).
    tuples: u64,
    columnar_tps: f64,
    legacy_tps: f64,
    /// Wire bytes shipped (identical in both arms — asserted).
    wire_bytes: u64,
    /// Batched-vs-per-tuple arrangement probing, keys probed per second.
    probe_keys: u64,
    batched_keys_per_sec: f64,
    per_tuple_keys_per_sec: f64,
    max_rss_kb: u64,
}

/// Wall-clock passes per timed arm; the fastest pass is reported.
const PASSES: usize = 5;

/// Peak resident set of this process in kB, from `/proc/self/status`
/// `VmHWM` (0 when unavailable, e.g. off Linux).
fn max_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// A source database whose delta log carries the whole throughput workload
/// — `batches` windows of `cfg.batch` entries, one per timestamp second so
/// each window selects exactly one batch.
fn throughput_source(cfg: &Config, batches: usize) -> Database {
    let mut db = Database::new();
    db.create_relation(REL, schema2()).unwrap();
    for b in 0..batches {
        let off = (b * cfg.batch) as i64;
        db.append_delta(REL, delta_window(cfg.batch, off, 2 + b as u64))
            .unwrap();
    }
    db
}

/// Drives the fig5-scale ship→land→apply pipeline — the tentpole's hot
/// path end to end. Per batch, the columnar arm encodes the wire frame in
/// one pass straight from the borrowed delta-log slice, lands it as a
/// zero-copy validated [`Frame`] straight into the destination log, and
/// applies; the legacy arm clones the window into a `DeltaBatch`, encodes,
/// decodes back into per-tuple rows, appends and applies. Wire bytes and
/// the final destination relation must be identical (asserted) — only the
/// wall clock may differ.
fn storage_throughput(cfg: &Config) -> ThroughputStats {
    // Best-of-N wall clock: each pass replays the whole workload against a
    // fresh destination (built off the clock), and the fastest pass is the
    // reported figure — the standard defense against scheduler and page-
    // fault noise in millisecond-scale timing windows.
    let batches = cfg.batches;
    let total = (cfg.batch * batches) as u64;
    let through = |b: usize| Timestamp::from_secs(2 + b as u64);
    let src = throughput_source(cfg, batches);

    // Legacy arm: materialize, re-serialize, materialize again.
    let mut legacy_best = f64::INFINITY;
    let mut legacy_wire = 0u64;
    let mut legacy_dst = None;
    for _ in 0..PASSES {
        let mut dst = filled_db(cfg.rows, false);
        let mut wire = 0u64;
        let start = Instant::now();
        for b in 0..batches {
            let lo = Timestamp::from_secs(1 + b as u64);
            let raw = src.delta_window(REL, lo, through(b)).unwrap();
            let bytes = wal::encode(&raw);
            wire += bytes.len() as u64;
            let batch = wal::decode(bytes).unwrap();
            dst.append_delta_dedup(REL, batch, b as u64, 0, through(b))
                .unwrap();
            dst.apply_pending(REL, through(b)).unwrap();
        }
        legacy_best = legacy_best.min(start.elapsed().as_secs_f64());
        legacy_wire = wire;
        legacy_dst = Some(dst);
    }
    let legacy_dst = legacy_dst.unwrap();
    let legacy_tps = total as f64 / legacy_best;

    // Columnar arm: borrow the window, ship one frame, land it zero-copy.
    let mut columnar_best = f64::INFINITY;
    let mut wire_bytes = 0u64;
    let mut columnar_dst = None;
    for _ in 0..PASSES {
        let mut dst = filled_db(cfg.rows, false);
        let mut wire = 0u64;
        let start = Instant::now();
        for b in 0..batches {
            let lo = Timestamp::from_secs(1 + b as u64);
            let bytes = src
                .delta_window_encode(REL, lo, through(b), &Predicate::True, None)
                .unwrap();
            wire += bytes.len() as u64;
            let frame = Frame::parse(bytes).expect("self-encoded frame must parse");
            dst.append_frame_dedup(REL, &frame, b as u64, 0, through(b))
                .unwrap();
            dst.apply_pending(REL, through(b)).unwrap();
        }
        columnar_best = columnar_best.min(start.elapsed().as_secs_f64());
        wire_bytes = wire;
        columnar_dst = Some(dst);
    }
    let dst = columnar_dst.unwrap();
    let columnar_tps = total as f64 / columnar_best;

    // Differential conformance inside the bench itself: both arms must have
    // moved identical bytes and produced identical destination relations.
    assert_eq!(wire_bytes, legacy_wire, "wire formats diverged across arms");
    {
        let a = dst.relation(REL).unwrap();
        let b = legacy_dst.relation(REL).unwrap();
        assert_eq!(
            a.table.rows().sorted_entries(),
            b.table.rows().sorted_entries(),
            "columnar and legacy pipelines landed different relations"
        );
        assert_eq!(a.table.byte_size(), b.table.byte_size());
    }

    // Batched key probing vs per-tuple probing against the fig5 relation:
    // same keys, same buckets (asserted via total match count), one
    // flattened pass vs one key `Tuple` allocation per probe.
    let probe_db = filled_db(cfg.rows, true);
    let probe_keys = 200_000u64.min(total * PASSES as u64);
    let key_tuples: Vec<Tuple> = (0..probe_keys as i64).map(|i| tuple![i % KEYS]).collect();
    let (per_tuple_keys_per_sec, matches_per_tuple) = {
        let table = &probe_db.relation(REL).unwrap().table;
        let mut best = f64::INFINITY;
        let mut matches = 0u64;
        for _ in 0..PASSES {
            matches = 0;
            let start = Instant::now();
            for t in &key_tuples {
                let key = t.project(&[0]);
                matches += table.probe_index(&[0], &key).unwrap().len() as u64;
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        (probe_keys as f64 / best, matches)
    };
    let (batched_keys_per_sec, matches_batched) = {
        let table = &probe_db.relation(REL).unwrap().table;
        let arr = table.arrangement(&[0]).unwrap();
        let mut best = f64::INFINITY;
        let mut matches = 0u64;
        let mut keys_flat: Vec<Value> = Vec::with_capacity(key_tuples.len());
        for _ in 0..PASSES {
            matches = 0;
            keys_flat.clear();
            let start = Instant::now();
            for t in &key_tuples {
                keys_flat.push(t.values()[0].clone());
            }
            for bucket in arr.probe_batch(&keys_flat, 1, key_tuples.len()) {
                matches += bucket.len() as u64;
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        (probe_keys as f64 / best, matches)
    };
    assert_eq!(
        matches_per_tuple, matches_batched,
        "batched probing matched different rows"
    );

    ThroughputStats {
        batches,
        tuples: total,
        columnar_tps,
        legacy_tps,
        wire_bytes,
        probe_keys,
        batched_keys_per_sec,
        per_tuple_keys_per_sec,
        max_rss_kb: max_rss_kb(),
    }
}

fn emit_throughput_json(cfg: &Config, t: &ThroughputStats) -> String {
    format!(
        r#"{{
  "bench_id": "BENCH_0006",
  "workload": {{
    "relation_rows": {rows},
    "batch_entries": {batch},
    "batches": {batches},
    "passes": {passes},
    "tuples": {tuples},
    "wire_bytes": {wire}
  }},
  "throughput": {{
    "columnar_tuples_per_sec": {col:.1},
    "legacy_tuples_per_sec": {leg:.1},
    "speedup_vs_legacy": {svl:.2},
    "baseline_0002_tuples_per_sec": {base:.1},
    "speedup_vs_baseline": {svb:.2},
    "target_speedup": {target:.1}
  }},
  "probe": {{
    "keys": {keys},
    "batched_keys_per_sec": {bk:.1},
    "per_tuple_keys_per_sec": {pk:.1},
    "probe_speedup": {ps:.2}
  }},
  "memory": {{
    "max_rss_kb": {rss},
    "rss_ceiling_kb": {ceiling}
  }}
}}
"#,
        rows = cfg.rows,
        batch = cfg.batch,
        batches = t.batches,
        passes = PASSES,
        tuples = t.tuples,
        wire = t.wire_bytes,
        col = t.columnar_tps,
        leg = t.legacy_tps,
        svl = t.columnar_tps / t.legacy_tps,
        base = BASELINE_0002_TPS,
        svb = t.columnar_tps / BASELINE_0002_TPS,
        target = THROUGHPUT_TARGET,
        keys = t.probe_keys,
        bk = t.batched_keys_per_sec,
        pk = t.per_tuple_keys_per_sec,
        ps = t.batched_keys_per_sec / t.per_tuple_keys_per_sec,
        rss = t.max_rss_kb,
        ceiling = RSS_CEILING_KB,
    )
}

/// Schema + acceptance check for the BENCH_0006 storage hot path. On
/// full-scale (fig5) runs the ≥10× bar over the committed BENCH_0002
/// baseline and the RSS ceiling are *enforced*; quick runs (smaller
/// relation) are schema-checked only, because CI wall clocks are noise.
fn validate_0006(json: &str) -> Result<(), String> {
    let num = |key: &str| get_num(json, key).ok_or_else(|| format!("missing numeric {key}"));
    for key in [
        "relation_rows",
        "batch_entries",
        "batches",
        "tuples",
        "wire_bytes",
        "columnar_tuples_per_sec",
        "legacy_tuples_per_sec",
        "speedup_vs_legacy",
        "baseline_0002_tuples_per_sec",
        "speedup_vs_baseline",
        "target_speedup",
        "keys",
        "batched_keys_per_sec",
        "per_tuple_keys_per_sec",
        "probe_speedup",
    ] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    let col = num("columnar_tuples_per_sec")?;
    let base = num("baseline_0002_tuples_per_sec")?;
    let svb = num("speedup_vs_baseline")?;
    if (svb - col / base).abs() > 0.05 * svb {
        return Err(format!(
            "speedup_vs_baseline {svb} inconsistent with {col}/{base}"
        ));
    }
    let rss = num("max_rss_kb")?;
    let ceiling = num("rss_ceiling_kb")?;
    if num("relation_rows")? >= 50_000.0 {
        let target = num("target_speedup")?;
        if svb < target {
            return Err(format!(
                "speedup_vs_baseline is {svb:.2}, below the {target:.1}x acceptance bar"
            ));
        }
        if rss > 0.0 && rss > ceiling {
            return Err(format!(
                "max_rss_kb {rss:.0} exceeds the {ceiling:.0} kB ceiling"
            ));
        }
    }
    Ok(())
}

fn delta_apply_throughput(cfg: &Config, indexed: bool) -> f64 {
    let mut db = filled_db(cfg.rows, indexed);
    let total = cfg.batch * cfg.batches;
    let start = Instant::now();
    for b in 0..cfg.batches {
        let off = cfg.rows + (b * cfg.batch) as i64;
        let batch = delta_window(cfg.batch, off, 2);
        if indexed {
            probe_apply(&mut db, batch);
        } else {
            scan_apply(&mut db, batch);
        }
    }
    total as f64 / start.elapsed().as_secs_f64()
}

struct TickStats {
    p50_us: f64,
    p95_us: f64,
    max_us: f64,
    ticks: u64,
    probes: u64,
    hits: u64,
    misses: u64,
    maintained: u64,
    hit_rate: f64,
    arrangements: u64,
}

/// Drives a two-machine platform with a cross-machine joined sharing and
/// records the wall-clock latency of each `step()` plus the arrangement
/// counters the run accumulated.
fn tick_latency(cfg: &Config) -> TickStats {
    let mut smile = Smile::new(SmileConfig::with_machines(2));
    let stats = || BaseStats {
        update_rate: 5.0,
        cardinality: cfg.rows as f64,
        tuple_bytes: 16.0,
        distinct: vec![KEYS as f64, cfg.rows as f64],
    };
    let a = smile
        .register_base("a", schema2(), MachineId::new(0), stats())
        .unwrap();
    let b = smile
        .register_base("b", schema2(), MachineId::new(1), stats())
        .unwrap();
    let q = SpjQuery::scan(a).join(b, JoinOn::on(0, 0), Predicate::True);
    smile
        .submit("bench", q, SimDuration::from_secs(30), 0.01)
        .unwrap();
    smile.install().unwrap();

    let mut lat_us = Vec::with_capacity(cfg.ticks as usize);
    for s in 0..cfg.ticks {
        let now = smile.now();
        let k = (s % 64) as i64;
        smile
            .ingest(
                a,
                DeltaBatch {
                    entries: vec![DeltaEntry::insert(tuple![k, s as i64], now)],
                },
            )
            .unwrap();
        smile
            .ingest(
                b,
                DeltaBatch {
                    entries: vec![DeltaEntry::insert(tuple![k, (s * 7) as i64], now)],
                },
            )
            .unwrap();
        let start = Instant::now();
        smile.step().unwrap();
        lat_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    smile.run_idle(SimDuration::from_secs(60)).unwrap();

    lat_us.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let pct = |p: f64| smile_bench::percentile_sorted_f64(&lat_us, p);
    let meter = smile.arrangement_meter();
    TickStats {
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        max_us: *lat_us.last().unwrap(),
        ticks: cfg.ticks,
        probes: meter.counters.probes,
        hits: meter.counters.hits,
        misses: meter.counters.misses,
        maintained: meter.counters.maintained,
        hit_rate: meter.hit_rate(),
        arrangements: meter.arrangements,
    }
}

/// One worker count's measurement in the parallel-push sweep.
struct SweepPoint {
    workers: usize,
    wall_secs: f64,
    modeled_makespan_nanos: u128,
}

struct WaveStats {
    machines: usize,
    sharings: usize,
    ticks: u64,
    waves: u64,
    jobs: u64,
    busy_nanos: u128,
    tuples_moved: u64,
    points: Vec<SweepPoint>,
}

/// Drives the fig5-scale ring fleet once — `FLEET_MACHINES` machines,
/// every machine's base joined with its neighbor's, so each sharing ships
/// deltas both ways — and returns the platform plus the wall-clock seconds
/// of the driven portion.
fn drive_fleet(cfg: &Config, workers: usize, telemetry_on: bool) -> (Smile, f64) {
    let mut config = SmileConfig::with_machines(FLEET_MACHINES);
    config.exec.workers = workers;
    config.telemetry.enabled = telemetry_on;
    let mut smile = Smile::new(config);
    let rels: Vec<RelationId> = (0..FLEET_MACHINES)
        .map(|m| {
            smile
                .register_base(
                    &format!("r{m}"),
                    schema2(),
                    MachineId::new(m as u32),
                    BaseStats {
                        update_rate: 32.0,
                        cardinality: cfg.rows as f64,
                        tuple_bytes: 16.0,
                        distinct: vec![KEYS as f64, cfg.rows as f64],
                    },
                )
                .unwrap()
        })
        .collect();
    for m in 0..FLEET_MACHINES {
        let q = SpjQuery::scan(rels[m]).join(
            rels[(m + 1) % FLEET_MACHINES],
            JoinOn::on(0, 0),
            Predicate::True,
        );
        smile
            .submit(&format!("s{m}"), q, SimDuration::from_secs(30), 0.01)
            .unwrap();
    }
    smile.install().unwrap();
    let start = Instant::now();
    for s in 0..cfg.ticks {
        let now = smile.now();
        for (m, &rel) in rels.iter().enumerate() {
            let batch: DeltaBatch = (0..32)
                .map(|i| {
                    let k = ((s as i64) * 32 + i + m as i64) % KEYS;
                    DeltaEntry::insert(tuple![k, s as i64], now)
                })
                .collect();
            smile.ingest(rel, batch).unwrap();
        }
        smile.step().unwrap();
    }
    smile.run_idle(SimDuration::from_secs(60)).unwrap();
    let wall = start.elapsed().as_secs_f64();
    (smile, wall)
}

/// Drives the ring fleet once per worker count. Results must be
/// byte-identical (asserted on the tuples-moved meter); the workers=1
/// run's wave profile is the reference schedule replayed through
/// `WaveMeter::makespan_nanos`.
fn push_wave_sweep(cfg: &Config, workers: &[usize]) -> WaveStats {
    let mut points = Vec::new();
    let mut reference: Option<(smile_sim::WaveMeter, u64)> = None;
    for &w in workers {
        let (smile, wall) = drive_fleet(cfg, w, true);
        let meter = smile.wave_meter();
        let tuples = smile.executor.as_ref().unwrap().tuples_moved;
        if let Some((_, ref_tuples)) = &reference {
            assert_eq!(
                tuples, *ref_tuples,
                "workers={w} moved a different tuple count — nondeterminism"
            );
        } else {
            reference = Some((meter, tuples));
        }
        points.push(SweepPoint {
            workers: w,
            wall_secs: wall,
            modeled_makespan_nanos: 0,
        });
    }
    let (meter, tuples_moved) = reference.expect("at least one worker count");
    for p in &mut points {
        p.modeled_makespan_nanos = meter.makespan_nanos(p.workers);
    }
    WaveStats {
        machines: FLEET_MACHINES,
        sharings: FLEET_MACHINES,
        ticks: cfg.ticks,
        waves: meter.waves,
        jobs: meter.jobs,
        busy_nanos: meter.busy_nanos,
        tuples_moved,
        points,
    }
}

fn emit_wave_json(w: &WaveStats) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let serial = w
        .points
        .iter()
        .find(|p| p.workers == 1)
        .map(|p| p.modeled_makespan_nanos)
        .unwrap_or(w.busy_nanos);
    let sweep: Vec<String> = w
        .points
        .iter()
        .map(|p| {
            format!(
                r#"    {{
      "workers": {w},
      "wall_secs": {wall:.3},
      "modeled_makespan_nanos": {mk},
      "modeled_speedup": {sp:.2}
    }}"#,
                w = p.workers,
                wall = p.wall_secs,
                mk = p.modeled_makespan_nanos,
                sp = serial as f64 / p.modeled_makespan_nanos.max(1) as f64,
            )
        })
        .collect();
    let at4 = w
        .points
        .iter()
        .find(|p| p.workers == 4)
        .map(|p| serial as f64 / p.modeled_makespan_nanos.max(1) as f64)
        .unwrap_or(0.0);
    format!(
        r#"{{
  "bench_id": "BENCH_0003",
  "workload": {{
    "machines": {machines},
    "sharings": {sharings},
    "ticks": {ticks}
  }},
  "push_wave": {{
    "waves": {waves},
    "jobs": {jobs},
    "busy_nanos": {busy},
    "tuples_moved": {tuples},
    "host_parallelism": {host},
    "modeled_speedup_at_4": {at4:.2}
  }},
  "sweep": [
{sweep}
  ]
}}
"#,
        machines = w.machines,
        sharings = w.sharings,
        ticks = w.ticks,
        waves = w.waves,
        jobs = w.jobs,
        busy = w.busy_nanos,
        tuples = w.tuples_moved,
        host = host,
        at4 = at4,
        sweep = sweep.join(",\n"),
    )
}

/// What the telemetry ablation measured.
struct TraceStats {
    ticks: u64,
    reps: usize,
    on_wall_secs: f64,
    off_wall_secs: f64,
    overhead_pct: f64,
    spans_retained: usize,
    spans_dropped: u64,
    trace_events: usize,
    /// All sharings' staleness-headroom histograms merged.
    headroom: HistogramSnapshot,
    sla_missed: u64,
    /// The exported Chrome trace from the final instrumented run.
    trace: String,
}

/// Telemetry overhead ablation: the ring fleet driven `reps` times with
/// spans off and `reps` times with spans on (interleaved, min wall clock
/// per mode so scheduler noise cancels), at one worker so the measurement
/// is not confounded by thread scheduling. Every off run must leave the
/// span ring empty — quiet mode is load-bearing, not best-effort.
fn telemetry_ablation(cfg: &Config, reps: usize) -> TraceStats {
    let mut off_wall = f64::INFINITY;
    let mut on_wall = f64::INFINITY;
    let mut last_on: Option<Smile> = None;
    for _ in 0..reps {
        let (smile, wall) = drive_fleet(cfg, 1, false);
        assert_eq!(
            smile.telemetry().spans_len(),
            0,
            "quiet mode recorded spans"
        );
        assert_eq!(
            smile.telemetry().spans_dropped(),
            0,
            "quiet mode dropped spans"
        );
        off_wall = off_wall.min(wall);
        let (smile, wall) = drive_fleet(cfg, 1, true);
        on_wall = on_wall.min(wall);
        last_on = Some(smile);
    }
    let smile = last_on.expect("at least one rep");
    assert!(smile.telemetry().spans_len() > 0, "instrumented run has no spans");

    let snap = smile.telemetry_snapshot();
    // Fleet-wide headroom rollup: one histogram regardless of sharing count.
    let headroom = snap
        .histogram("push.staleness_headroom_us")
        .cloned()
        .unwrap_or_else(HistogramSnapshot::empty);
    assert!(headroom.count > 0, "no staleness-headroom samples recorded");
    let sla_missed = snap.counter("push.sla_missed").unwrap_or(0);
    let trace = smile.export_trace();
    TraceStats {
        ticks: cfg.ticks,
        reps,
        on_wall_secs: on_wall,
        off_wall_secs: off_wall,
        overhead_pct: ((on_wall - off_wall) / off_wall * 100.0).max(0.0),
        spans_retained: smile.telemetry().spans_len(),
        spans_dropped: smile.telemetry().spans_dropped(),
        trace_events: trace.matches("\"ph\"").count(),
        headroom,
        sla_missed,
        trace,
    }
}

fn emit_trace_json(t: &TraceStats) -> String {
    format!(
        r#"{{
  "bench_id": "BENCH_0004",
  "workload": {{
    "machines": {machines},
    "sharings": {sharings},
    "ticks": {ticks},
    "reps": {reps}
  }},
  "telemetry": {{
    "on_wall_secs": {on:.4},
    "off_wall_secs": {off:.4},
    "overhead_pct": {ov:.2},
    "overhead_budget_pct": {budget:.1},
    "spans_retained": {retained},
    "spans_dropped": {dropped},
    "trace_events": {events}
  }},
  "staleness_headroom_us": {{
    "pushes": {pushes},
    "min": {min},
    "max": {max},
    "p50": {p50},
    "p99": {p99},
    "sla_missed": {missed}
  }}
}}
"#,
        machines = FLEET_MACHINES,
        sharings = FLEET_MACHINES,
        ticks = t.ticks,
        reps = t.reps,
        on = t.on_wall_secs,
        off = t.off_wall_secs,
        ov = t.overhead_pct,
        budget = OVERHEAD_BUDGET_PCT,
        retained = t.spans_retained,
        dropped = t.spans_dropped,
        events = t.trace_events,
        pushes = t.headroom.count,
        min = t.headroom.min,
        max = t.headroom.max,
        p50 = t.headroom.quantile(0.50),
        p99 = t.headroom.quantile(0.99),
        missed = t.sla_missed,
    )
}

fn emit_json(cfg: &Config, arr_tps: f64, scan_tps: f64, t: &TickStats) -> String {
    format!(
        r#"{{
  "bench_id": "BENCH_0002",
  "workload": {{
    "relation_rows": {rows},
    "batch_entries": {batch},
    "batches": {batches}
  }},
  "delta_apply": {{
    "arrangement_tuples_per_sec": {arr:.1},
    "scan_tuples_per_sec": {scan:.1},
    "speedup": {speedup:.2}
  }},
  "tick_latency": {{
    "ticks": {ticks},
    "p50_us": {p50:.1},
    "p95_us": {p95:.1},
    "max_us": {max:.1}
  }},
  "arrangement": {{
    "arrangements": {arrs},
    "probes": {probes},
    "hits": {hits},
    "misses": {misses},
    "maintained": {maintained},
    "hit_rate": {hr:.4}
  }}
}}
"#,
        rows = cfg.rows,
        batch = cfg.batch,
        batches = cfg.batches,
        arr = arr_tps,
        scan = scan_tps,
        speedup = arr_tps / scan_tps,
        ticks = t.ticks,
        p50 = t.p50_us,
        p95 = t.p95_us,
        max = t.max_us,
        arrs = t.arrangements,
        probes = t.probes,
        hits = t.hits,
        misses = t.misses,
        maintained = t.maintained,
        hr = t.hit_rate,
    )
}

/// Schema check for the BENCH_0003 parallel-push sweep. The ≥2× modeled
/// speedup at four workers is the acceptance bar for the wave engine: the
/// recorded schedule, replayed through four machine-partitioned workers,
/// must at least halve the serial makespan.
fn validate_0003(json: &str) -> Result<(), String> {
    let num = |key: &str| get_num(json, key).ok_or_else(|| format!("missing numeric {key}"));
    for key in [
        "machines",
        "sharings",
        "ticks",
        "waves",
        "jobs",
        "busy_nanos",
        "tuples_moved",
        "host_parallelism",
    ] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    let at4 = num("modeled_speedup_at_4")?;
    if at4 < 2.0 {
        return Err(format!(
            "modeled_speedup_at_4 is {at4:.2}, below the 2.0 acceptance bar"
        ));
    }
    if !json.contains("\"workers\": 1") || !json.contains("\"workers\": 4") {
        return Err("sweep must include workers 1 and 4".into());
    }
    Ok(())
}

/// Schema check for the BENCH_0004 telemetry ablation. The overhead budget
/// is the acceptance bar: full span + histogram instrumentation must cost
/// less than `OVERHEAD_BUDGET_PCT` of the uninstrumented wall clock.
fn validate_0004(json: &str) -> Result<(), String> {
    let num = |key: &str| get_num(json, key).ok_or_else(|| format!("missing numeric {key}"));
    for key in [
        "machines",
        "sharings",
        "ticks",
        "reps",
        "spans_retained",
        "trace_events",
        "pushes",
    ] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    for key in ["on_wall_secs", "off_wall_secs"] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    let ov = num("overhead_pct")?;
    if !(0.0..OVERHEAD_BUDGET_PCT).contains(&ov) {
        return Err(format!(
            "overhead_pct is {ov:.2}, outside [0, {OVERHEAD_BUDGET_PCT}) — \
             telemetry blew its budget"
        ));
    }
    for key in ["min", "max", "p50", "p99", "sla_missed", "spans_dropped"] {
        if num(key)? < 0.0 {
            return Err(format!("{key} must be non-negative"));
        }
    }
    if num("min")? > num("max")? {
        return Err("headroom min exceeds max".into());
    }
    Ok(())
}

/// Schema check for an exported Chrome `trace_event` file: the JSON shape
/// Perfetto expects, the lane metadata, and at least one span of each
/// lifecycle kind an instrumented fleet run must produce.
fn validate_trace(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if !json.starts_with("{\"traceEvents\": [") {
        return Err("not a traceEvents object".into());
    }
    if !json.trim_end().ends_with("]}") {
        return Err("unterminated traceEvents array".into());
    }
    for needle in [
        "\"ph\": \"M\"",
        "\"process_name\"",
        "\"smile-sim\"",
        "\"thread_name\"",
        "\"coordinator\"",
        "\"machine-0\"",
        "\"ph\": \"X\"",
    ] {
        if !json.contains(needle) {
            return Err(format!("missing {needle}"));
        }
    }
    for kind in ["tick", "plan_batch", "wave", "edge_job", "mv_apply"] {
        if !json.contains(&format!("\"name\": \"{kind}\"")) {
            return Err(format!("no {kind} span in trace"));
        }
    }
    // Every complete event needs a timestamp and duration; spot-check the
    // counts line up.
    let complete = json.matches("\"ph\": \"X\"").count();
    let durs = json.matches("\"dur\": ").count();
    if durs < complete {
        return Err(format!("{complete} complete events but only {durs} durations"));
    }
    Ok(())
}

fn validate(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if json.contains("\"bench_id\": \"BENCH_0006\"") {
        return validate_0006(&json);
    }
    if json.contains("\"bench_id\": \"BENCH_0004\"") {
        return validate_0004(&json);
    }
    if json.contains("\"bench_id\": \"BENCH_0003\"") {
        return validate_0003(&json);
    }
    if !json.contains("\"bench_id\": \"BENCH_0002\"") {
        return Err("missing or wrong bench_id".into());
    }
    let num = |key: &str| get_num(&json, key).ok_or_else(|| format!("missing numeric {key}"));
    for key in ["relation_rows", "batch_entries", "batches", "ticks", "arrangements"] {
        if num(key)? <= 0.0 {
            return Err(format!("{key} must be positive"));
        }
    }
    let arr = num("arrangement_tuples_per_sec")?;
    let scan = num("scan_tuples_per_sec")?;
    let speedup = num("speedup")?;
    if arr <= 0.0 || scan <= 0.0 {
        return Err("throughputs must be positive".into());
    }
    if (speedup - arr / scan).abs() > 0.05 * speedup {
        return Err(format!(
            "speedup {speedup} inconsistent with {arr}/{scan}"
        ));
    }
    for key in ["p50_us", "p95_us", "max_us", "probes", "hits", "misses", "maintained"] {
        if num(key)? < 0.0 {
            return Err(format!("{key} must be non-negative"));
        }
    }
    let hr = num("hit_rate")?;
    if !(0.0..=1.0).contains(&hr) {
        return Err(format!("hit_rate {hr} outside [0, 1]"));
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

    if let Some(i) = args.iter().position(|a| a == "--validate-trace") {
        let path = args.get(i + 1).expect("--validate-trace needs a path");
        match validate_trace(path) {
            Ok(()) => println!("{path}: trace schema OK"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let cfg = if quick { Config::quick() } else { Config::fig5() };

    if args.iter().any(|a| a == "--throughput") {
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|j| args.get(j + 1).cloned())
            .unwrap_or_else(|| "results/BENCH_0006.json".to_string());
        eprintln!(
            "storage hot path: {} batches of {} against {} rows, columnar vs legacy...",
            cfg.batches, cfg.batch, cfg.rows
        );
        let stats = storage_throughput(&cfg);
        eprintln!(
            "  columnar {:.0} tuples/s, legacy {:.0} tuples/s ({:.1}x), \
             {:.1}x over the committed BENCH_0002 baseline (bar {THROUGHPUT_TARGET}x)",
            stats.columnar_tps,
            stats.legacy_tps,
            stats.columnar_tps / stats.legacy_tps,
            stats.columnar_tps / BASELINE_0002_TPS,
        );
        eprintln!(
            "  probes: batched {:.0} keys/s vs per-tuple {:.0} keys/s ({:.2}x)",
            stats.batched_keys_per_sec,
            stats.per_tuple_keys_per_sec,
            stats.batched_keys_per_sec / stats.per_tuple_keys_per_sec,
        );
        eprintln!(
            "  peak RSS {} kB (ceiling {RSS_CEILING_KB} kB), {} wire bytes shipped",
            stats.max_rss_kb, stats.wire_bytes
        );
        let json = emit_throughput_json(&cfg, &stats);
        if let Some(dir) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
        std::fs::write(&out, &json).expect("write BENCH json");
        println!("wrote {out}");
        return;
    }

    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let trace_out = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "results/trace_example.json".to_string());
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|j| args.get(j + 1).cloned())
            .unwrap_or_else(|| "results/BENCH_0004.json".to_string());
        let reps = if quick { 5 } else { 3 };
        eprintln!(
            "telemetry ablation: {FLEET_MACHINES} machines, {FLEET_MACHINES} sharings, \
             {} ticks, {reps} reps per mode...",
            cfg.ticks
        );
        let stats = telemetry_ablation(&cfg, reps);
        eprintln!(
            "  off {:.3}s, on {:.3}s, overhead {:.2}% (budget {OVERHEAD_BUDGET_PCT}%)",
            stats.off_wall_secs, stats.on_wall_secs, stats.overhead_pct
        );
        eprintln!(
            "  {} spans retained ({} dropped), {} trace events, headroom p50 {} us over {} pushes",
            stats.spans_retained,
            stats.spans_dropped,
            stats.trace_events,
            stats.headroom.quantile(0.50),
            stats.headroom.count,
        );
        for path in [&trace_out, &out] {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir).expect("create output dir");
            }
        }
        std::fs::write(&trace_out, &stats.trace).expect("write trace");
        std::fs::write(&out, emit_trace_json(&stats)).expect("write BENCH json");
        println!("wrote {out} and {trace_out}");
        return;
    }

    if let Some(i) = args.iter().position(|a| a == "--workers") {
        let list = args.get(i + 1).expect("--workers needs a comma list");
        let workers: Vec<usize> = list
            .split(',')
            .map(|w| w.trim().parse().expect("worker counts must be integers"))
            .collect();
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|j| args.get(j + 1).cloned())
            .unwrap_or_else(|| "results/BENCH_0003.json".to_string());
        eprintln!(
            "push-wave sweep: 8 machines, 8 sharings, {} ticks, workers {list}...",
            cfg.ticks
        );
        let stats = push_wave_sweep(&cfg, &workers);
        for p in &stats.points {
            eprintln!(
                "  workers={} wall {:.2}s modeled makespan {:.1} ms",
                p.workers,
                p.wall_secs,
                p.modeled_makespan_nanos as f64 / 1e6
            );
        }
        let json = emit_wave_json(&stats);
        if let Some(dir) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
        std::fs::write(&out, &json).expect("write BENCH json");
        println!("wrote {out}");
        return;
    }

    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_0002.json".to_string());

    eprintln!(
        "delta-apply: {} batches of {} against {} rows...",
        cfg.batches, cfg.batch, cfg.rows
    );
    let arr_tps = delta_apply_throughput(&cfg, true);
    let scan_tps = delta_apply_throughput(&cfg, false);
    eprintln!(
        "  arrangement {arr_tps:.0} tuples/s, scan {scan_tps:.0} tuples/s ({:.1}x)",
        arr_tps / scan_tps
    );
    eprintln!("tick latency: {} platform ticks...", cfg.ticks);
    let ticks = tick_latency(&cfg);
    eprintln!(
        "  p50 {:.0} us, p95 {:.0} us, hit rate {:.3}",
        ticks.p50_us, ticks.p95_us, ticks.hit_rate
    );

    let json = emit_json(&cfg, arr_tps, scan_tps, &ticks);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, &json).expect("write BENCH json");
    println!("wrote {out}");
}
