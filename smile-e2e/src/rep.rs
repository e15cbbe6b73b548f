//! One repetition of a workload, run in a child process so every
//! repetition starts from a fresh heap: instrumented calls into each
//! platform layer, the timed drive, the drain and the MV check. The
//! repetition reports a [`Summary`] the parent aggregates.

use crate::stats::{is_push_tick, Digest, FailLedger};
use crate::trace::{replay_cost, Tracer};
use crate::workloads::{drive_inputs, setup, Built, LiveOp, Workload, LIVE_KEEP, PENALTY};
use smile::storage::{DeltaBatch, SpjQuery};
use smile::types::{MachineId, RelationId, SharingId, SimDuration, SmileError};
use smile::Smile;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{Display, Write as _};
use std::time::Instant;

/// Where a traced repetition writes its Chrome trace (relative to the
/// working directory).
const TRACE_DIR: &str = ".bench_out";
/// Longest drain before the MV check, in ticks (simulated seconds).
const DRAIN_MAX_TICKS: u64 = 600;

/// A repetition's results as named value lists, one `name<TAB>values`
/// line each on the child's standard output.
#[derive(Default, Debug)]
pub struct Summary(BTreeMap<String, Vec<String>>);

impl Summary {
    fn put(&mut self, key: &str, v: impl Display) {
        self.0.insert(key.to_string(), vec![v.to_string()]);
    }

    fn put_all(&mut self, key: &str, vs: &[impl Display]) {
        self.0
            .insert(key.to_string(), vs.iter().map(|v| v.to_string()).collect());
    }

    /// The summary as text lines.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(k, vs)| format!("{k}\t{}\n", vs.join(" ")))
            .collect()
    }

    /// Parses [`Summary::render`] output.
    pub fn parse(text: &str) -> Summary {
        Summary(
            text.lines()
                .filter_map(|l| l.split_once('\t'))
                .map(|(k, v)| {
                    (
                        k.to_string(),
                        v.split_whitespace().map(String::from).collect(),
                    )
                })
                .collect(),
        )
    }

    /// The values under `key` (empty when absent).
    pub fn words(&self, key: &str) -> &[String] {
        self.0.get(key).map_or(&[], |v| v.as_slice())
    }

    /// The first value under `key` (empty when absent).
    pub fn word(&self, key: &str) -> &str {
        self.words(key).first().map_or("", |s| s.as_str())
    }

    /// The values under `key` as numbers.
    pub fn nums(&self, key: &str) -> Vec<f64> {
        self.words(key)
            .iter()
            .filter_map(|s| s.parse().ok())
            .collect()
    }

    /// The first value under `key` as a number (NaN when absent).
    pub fn num(&self, key: &str) -> f64 {
        self.word(key).parse().unwrap_or(f64::NAN)
    }

    /// Keys with a `prefix`, in order.
    pub fn keys_with<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a String> + 'a {
        self.0.keys().filter(move |k| k.starts_with(prefix))
    }
}

/// Instrumented calls into the platform's layers: a fail ledger, counts,
/// the per-call samples the end-to-end metrics need, and (when traced)
/// one span per call.
pub struct Instr {
    /// Bench-side span recorder (disabled in untraced runs).
    pub tracer: Tracer,
    /// Attempted and failed operations.
    fails: FailLedger,
    /// Wall microseconds of every `submit_pinned` call.
    admit_us: Vec<f64>,
    submit_rejected: u64,
    ingest_calls: u64,
    ingest_entries: u64,
    step_calls: u64,
    live_calls: u64,
    retire_calls: u64,
    tick: Option<u64>,
}

impl Instr {
    fn new(traced: bool) -> Self {
        Self {
            tracer: Tracer::new(traced),
            fails: FailLedger::default(),
            admit_us: Vec::new(),
            submit_rejected: 0,
            ingest_calls: 0,
            ingest_entries: 0,
            step_calls: 0,
            live_calls: 0,
            retire_calls: 0,
            tick: None,
        }
    }

    /// Admits one sharing pinned to `machine`.
    pub fn submit(
        &mut self,
        smile: &mut Smile,
        name: &str,
        query: SpjQuery,
        sla: SimDuration,
        machine: MachineId,
    ) {
        let span = self.tracer.open("submit", None);
        let started = Instant::now();
        let r = smile.submit_pinned(name, query, sla, PENALTY, Some(machine));
        self.admit_us.push(started.elapsed().as_secs_f64() * 1e6);
        self.tracer.close(span);
        if matches!(
            r,
            Err(SmileError::Inadmissible { .. } | SmileError::CapacityExhausted { .. })
        ) {
            self.submit_rejected += 1;
        }
        self.fails.check(r);
    }

    /// Loads base data before install.
    pub fn prepopulate(&mut self, smile: &mut Smile, rel: RelationId, batch: DeltaBatch) {
        let span = self.tracer.open("prepopulate", None);
        let r = smile.ingest(rel, batch);
        self.tracer.close(span);
        self.fails.check(r);
    }

    /// Installs the admitted plans.
    pub fn install(&mut self, smile: &mut Smile) {
        let span = self.tracer.open("install", None);
        let r = smile.install();
        self.tracer.close(span);
        self.fails.check(r);
    }

    fn ingest(&mut self, smile: &mut Smile, rel: RelationId, batch: DeltaBatch) {
        self.ingest_calls += 1;
        self.ingest_entries += batch.entries.len() as u64;
        let span = self.tracer.open("ingest", self.tick);
        let r = smile.ingest(rel, batch);
        self.tracer.close(span);
        self.fails.check(r);
    }

    fn step(&mut self, smile: &mut Smile) {
        self.step_calls += 1;
        let span = self.tracer.open("step", self.tick);
        let r = smile.step();
        self.tracer.close(span);
        self.fails.check(r);
    }

    fn live(&mut self, smile: &mut Smile, op: LiveOp) -> Option<SharingId> {
        self.live_calls += 1;
        let span = self.tracer.open("live", self.tick);
        let r = smile.submit_live(&op.name, op.query, op.sla, PENALTY, Some(op.machine));
        self.tracer.close(span);
        self.fails.check(r)
    }

    fn retire(&mut self, smile: &mut Smile, id: SharingId) {
        self.retire_calls += 1;
        let span = self.tracer.open("retire", self.tick);
        let r = smile.retire(id);
        self.tracer.close(span);
        self.fails.check(r);
    }
}

/// What one repetition does after setup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepKind {
    /// Setup only.
    Setup,
    /// Setup, timed drive, drain and MV digest.
    Drive,
    /// As `Drive`, plus the MV check against ground truth.
    Check,
}

impl RepKind {
    /// The kind's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            RepKind::Setup => "setup",
            RepKind::Drive => "drive",
            RepKind::Check => "check",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<RepKind> {
        [RepKind::Setup, RepKind::Drive, RepKind::Check]
            .into_iter()
            .find(|k| k.name() == s)
    }
}

/// Runs one repetition in this process and returns its summary. A traced
/// repetition also writes its spans as a Chrome trace.
pub fn run_rep(w: Workload, seed: u64, workers: usize, traced: bool, kind: RepKind) -> Summary {
    let mut ins = Instr::new(traced);
    let started = Instant::now();
    let root = ins.tracer.open("run", None);
    let span = ins.tracer.open("setup", None);
    let mut built = setup(w, seed, workers, &mut ins);
    ins.tracer.close(span);
    let setup_s = started.elapsed().as_secs_f64();
    let mut out = Summary::default();
    if kind != RepKind::Setup {
        drive_rep(
            w,
            seed,
            &mut built,
            &mut ins,
            kind == RepKind::Check,
            &mut out,
        );
    }
    ins.tracer.close(root);
    let wall_s = started.elapsed().as_secs_f64();
    drop(built);

    out.put("setup_s", setup_s);
    out.put("wall_s", wall_s);
    out.put("peak_rss_mb", peak_rss_mb());
    out.put_all("admit_us", &ins.admit_us);
    out.put("attempted", ins.fails.attempted);
    out.put("failed", ins.fails.failed);
    out.put("submit.rejected", ins.submit_rejected);
    out.put("ingest.calls", ins.ingest_calls);
    out.put("ingest.entries", ins.ingest_entries);
    out.put("step.calls", ins.step_calls);
    out.put("live.calls", ins.live_calls);
    out.put("retire.calls", ins.retire_calls);
    if traced {
        let spans = ins.tracer.spans();
        let self_s = ins.tracer.self_seconds();
        out.put("trace.spans", spans.len());
        out.put(
            "trace.coverage",
            1.0 - self_s["run"] / (spans[0].dur_us / 1e6),
        );
        out.put("trace.overhead_s", replay_cost(spans));
        for (name, s) in &self_s {
            out.put(&format!("self.{name}"), s);
        }
        let path = format!("{TRACE_DIR}/{}-seed{seed}.trace.json", w.name());
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|_| std::fs::write(&path, ins.tracer.chrome_json()));
        out.put("trace.written", written.is_ok());
        out.put("trace_file", path);
    }
    out
}

/// The drive, drain and MV digest (and check, when `verify`) of one
/// repetition, recorded into `out`.
fn drive_rep(
    w: Workload,
    seed: u64,
    built: &mut Built,
    ins: &mut Instr,
    verify: bool,
    out: &mut Summary,
) {
    let span = ins.tracer.open("workload.gen", None);
    let inputs = drive_inputs(w, seed, built);
    ins.tracer.close(span);

    let smile = &mut built.smile;
    let jobs = smile.telemetry().registry().counter("wave.jobs");
    let mut tick_ms = Vec::with_capacity(inputs.len());
    let mut push_tick_ms = Vec::new();
    let mut churn: VecDeque<SharingId> = VecDeque::new();
    let span = ins.tracer.open("drive", None);
    let drive_started = Instant::now();
    for (i, input) in inputs.into_iter().enumerate() {
        ins.tick = Some(i as u64);
        let tick_span = ins.tracer.open("tick", ins.tick);
        let tick_started = Instant::now();
        let jobs_before = jobs.get();
        for (rel, batch) in input.batches {
            ins.ingest(smile, rel, batch);
        }
        if let Some(op) = input.live {
            churn.extend(ins.live(smile, op));
            if churn.len() > LIVE_KEEP {
                let oldest = churn.pop_front().expect("non-empty");
                ins.retire(smile, oldest);
            }
        }
        ins.step(smile);
        let ms = tick_started.elapsed().as_secs_f64() * 1e3;
        tick_ms.push(ms);
        if is_push_tick(jobs_before, jobs.get()) {
            push_tick_ms.push(ms);
        }
        ins.tracer.close(tick_span);
    }
    out.put("drive_s", drive_started.elapsed().as_secs_f64());
    ins.tracer.close(span);
    ins.tick = None;
    out.put_all("tick_ms", &tick_ms);
    out.put_all("push_tick_ms", &push_tick_ms);

    let span = ins.tracer.open("account", None);
    for (name, v, unit) in platform_counts(smile) {
        out.put_all(&format!("layer.{name}"), &[v.to_string(), unit.to_string()]);
    }
    let records = &smile.snapshot.records;
    let audited: Vec<f64> = records
        .iter()
        .flat_map(|r| r.sharings.iter().map(|s| s.staleness.as_secs_f64()))
        .collect();
    out.put(
        "mean_staleness_s",
        audited.iter().sum::<f64>() / audited.len().max(1) as f64,
    );
    let hours = match (records.first(), records.last()) {
        (Some(a), Some(b)) => (b.at - a.at).as_secs_f64() / 3600.0,
        _ => 0.0,
    };
    let sharings = smile.sharings().len().max(1) as f64;
    out.put(
        "dollars_per_sharing_hour",
        smile.total_dollars() / (hours.max(1e-9) * sharings),
    );
    out.put("sla_violations", smile.snapshot.violations_total());
    ins.tracer.close(span);

    // Drain in-flight pushes so no MV is compared half applied: idle one
    // tick at a time until no push is in flight, for at most
    // `DRAIN_MAX_TICKS`.
    let span = ins.tracer.open("drain", None);
    let mut drained = 0;
    let quiet = loop {
        let r = smile.run_idle(smile.config.exec.tick);
        drained += 1;
        if ins.fails.check(r).is_none() {
            break false;
        }
        let executor = smile.executor.as_ref().expect("installed");
        if !smile.sharings().iter().any(|s| executor.in_flight(s.id)) {
            break true;
        }
        if drained >= DRAIN_MAX_TICKS {
            break false;
        }
    };
    ins.tracer.close(span);
    out.put("drain_ticks", drained);
    out.put("drained_quiet", quiet);

    let mut digest = Digest::new();
    let executor = smile.executor.as_ref().expect("installed");
    digest.u64(executor.tuples_moved);
    digest.u64(smile.snapshot.violations_total() as u64);
    digest.u64(executor.push_records.len() as u64);
    // The MV check: every live sharing's MV against ground truth. A
    // repetition that only re-measures digests its MVs without the check.
    let mut mismatched = Vec::new();
    let ids: Vec<(SharingId, String)> = smile
        .sharings()
        .iter()
        .map(|s| (s.id, s.name.clone()))
        .collect();
    for (id, name) in &ids {
        let span = ins.tracer.open("digest", None);
        let got = smile.mv_contents(*id).map(|z| z.sorted_entries());
        let _ = write!(digest, "{id}:{:?}", got.as_ref().ok());
        ins.tracer.close(span);
        if !verify {
            continue;
        }
        let span = ins.tracer.open("verify", None);
        let want = smile.expected_mv_contents(*id).map(|z| z.sorted_entries());
        ins.tracer.close(span);
        let ok = matches!((&got, &want), (Ok(g), Ok(e)) if g == e);
        ins.fails.record(ok);
        if !ok {
            mismatched.push(name.clone());
        }
    }
    out.put("sim_digest", digest.hex());
    out.put("mvs_checked", if verify { ids.len() } else { 0 });
    out.put_all("mvs_mismatched", &mismatched);
}

/// Counts the platform keeps itself, read once after the drive.
fn platform_counts(smile: &Smile) -> Vec<(&'static str, f64, &'static str)> {
    let snap = smile.telemetry_snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let gauge = |n: &str| snap.gauge(n).unwrap_or(0.0);
    let (hits, misses) = (counter("catalog.hits"), counter("catalog.misses"));
    let hc = smile.hc_report.as_ref();
    let executor = smile.executor.as_ref().expect("installed");
    let wave = smile.wave_meter();
    let wal = smile.wal_meter();
    let arr = smile.arrangement_meter();
    let sched_us = snap.histogram("sched.host_tick_us").map_or(0, |h| h.sum);
    vec![
        (
            "merge_catalog.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        (
            "multi.hc_applied",
            hc.map_or(0, |r| r.applied.len()) as f64,
            "count",
        ),
        (
            "multi.hc_iterations",
            hc.map_or(0, |r| r.trajectory.len().saturating_sub(1)) as f64,
            "count",
        ),
        ("plan.vertices", gauge("plan.vertices"), "count"),
        ("plan.edges", gauge("plan.edges"), "count"),
        (
            "executor.pushes",
            executor.push_records.len() as f64,
            "count",
        ),
        ("executor.waves", wave.waves as f64, "count"),
        ("executor.jobs", wave.jobs as f64, "count"),
        (
            "executor.tuples_moved",
            executor.tuples_moved as f64,
            "count",
        ),
        ("executor.wave_busy_s", wave.busy_nanos as f64 / 1e9, "s"),
        ("executor.sched_s", sched_us as f64 / 1e6, "s"),
        (
            "storage.wal_bytes_shipped",
            wal.bytes_shipped as f64,
            "bytes",
        ),
        (
            "storage.wal_batches_shipped",
            wal.batches_shipped as f64,
            "count",
        ),
        ("storage.arr_probes", arr.counters.probes as f64, "count"),
        ("storage.arr_hit_ratio", arr.hit_rate(), "ratio"),
        (
            "storage.arr_built_rows",
            arr.counters.built_rows as f64,
            "count",
        ),
    ]
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
