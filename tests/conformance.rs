//! Cross-suite differential conformance harness for the push engine.
//!
//! The executor ships every delta as a columnar WAL frame, lands it
//! zero-copy and probes arrangements with batched key hashing. Two
//! execution choices must never change what that engine computes: the
//! worker count (one worker runs the wave engine inline; more run it on
//! threads) and the scheduler (the event-driven push calendar, or the full
//! per-tick scan kept as its baseline). Running the **same seeded
//! workload** through `(calendar, scan) × (workers 1, 4) × (faults off,
//! chaos)` must produce byte-identical observable state on every axis: MV
//! contents, fault attribution, the PUSH record stream, billing, the
//! exported Perfetto trace, and the logical metrics snapshot. The adaptive
//! axis adds closed-loop actuation and checks it is worker-deterministic.

use smile::core::catalog::BaseStats;
use smile::core::executor::PushRecord;
use smile::core::platform::{FaultReport, Smile, SmileConfig};
use smile::sim::FaultProfile;
use smile::storage::delta::{DeltaBatch, DeltaEntry};
use smile::storage::join::JoinOn;
use smile::storage::predicate::CmpOp;
use smile::storage::{Predicate, SpjQuery};
use smile::types::{
    tuple, Column, ColumnType, MachineId, RelationId, Schema, SharingId, SimDuration, Value,
};

fn schema(cols: &[(&str, ColumnType)], key: Vec<usize>) -> Schema {
    Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(), key)
}

/// One cell of the conformance matrix.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    /// Event-driven push-calendar scheduling vs the full per-tick scan.
    calendar: bool,
    workers: usize,
    chaos: bool,
    /// Closed-loop actuation: the control loop drains alerts into
    /// re-planning, live migration and budgeted elasticity.
    adaptive: bool,
    /// Staleness SLA; the adaptive axis tightens it so the burn-rate
    /// monitor actually pages and the actuator has something to do.
    sla: SimDuration,
}

/// Everything observable about a run that must not depend on the scheduler,
/// the worker count or the fault schedule replay.
struct RunResult {
    mv: String,
    expected: String,
    report: FaultReport,
    pushes: Vec<PushRecord>,
    tuples_moved: u64,
    dollars: String,
    /// Exported Chrome trace — sim-time only, canonical order.
    trace: String,
    /// Metrics snapshot with host wall-clock lines (`host_` marker)
    /// filtered out; the rest is logical and must be mode-independent.
    metrics: String,
    /// Burn-rate monitor alert stream, Debug-formatted.
    alerts: String,
    /// Typed control-loop action stream, Debug-formatted. Empty in static
    /// runs; in adaptive runs it must be byte-identical across workers.
    actions: String,
    /// `Smile::explain` report for the sharing — assembled only from
    /// deterministic state, so its bytes are a conformance surface too.
    explain: String,
}

impl Scenario {
    /// Two machines, one cross-machine joined sharing with a real ship-side
    /// filter (so the filtered frame encoder is on the hot path), seeded
    /// chaos when requested. Inserts *and* deletes feed both bases so
    /// negative weights cross the wire.
    fn run(self) -> RunResult {
        let mut config = SmileConfig::with_machines(2);
        config.exec.calendar_scheduling = self.calendar;
        config.exec.workers = self.workers;
        if self.chaos {
            config.faults = FaultProfile::chaos(4242);
        }
        if self.adaptive {
            config.adaptive.enabled = true;
            // Two machines, no budget headroom: the actuator can only
            // migrate between the machines it already has.
            config.adaptive.budget_dollars_per_hour = 0.0;
        }
        let mut smile = Smile::new(config);
        let a = smile
            .register_base(
                "a",
                schema(&[("k", ColumnType::I64)], vec![0]),
                MachineId::new(0),
                BaseStats {
                    update_rate: 5.0,
                    cardinality: 100.0,
                    tuple_bytes: 16.0,
                    distinct: vec![100.0],
                },
            )
            .unwrap();
        let b = smile
            .register_base(
                "b",
                schema(&[("k", ColumnType::I64), ("v", ColumnType::I64)], vec![0]),
                MachineId::new(1),
                BaseStats {
                    update_rate: 5.0,
                    cardinality: 100.0,
                    tuple_bytes: 16.0,
                    distinct: vec![100.0, 50.0],
                },
            )
            .unwrap();
        let q = SpjQuery::scan(a).join(
            b,
            JoinOn::on(0, 0),
            Predicate::Cmp {
                col: 0,
                op: CmpOp::Lt,
                value: Value::I64(18),
            },
        );
        let id: SharingId = smile.submit("conf", q, self.sla, 0.01).unwrap();
        smile.install().unwrap();
        feed(&mut smile, a, b, 200);
        smile.run_idle(SimDuration::from_secs(60)).unwrap();

        let trace = smile.export_trace();
        let metrics = smile
            .telemetry_snapshot()
            .to_text()
            .lines()
            .filter(|l| !l.contains("host_"))
            .collect::<Vec<_>>()
            .join("\n");
        let alerts = format!("{:?}", smile.alerts());
        let actions = format!("{:?}", smile.actions());
        let explain = smile.explain(id).unwrap();
        let executor = smile.executor.as_ref().unwrap();
        RunResult {
            mv: format!("{:?}", smile.mv_contents(id).unwrap().sorted_entries()),
            expected: format!(
                "{:?}",
                smile.expected_mv_contents(id).unwrap().sorted_entries()
            ),
            report: smile.fault_report(),
            pushes: executor.push_records.clone(),
            tuples_moved: executor.tuples_moved,
            dollars: format!("{:.9}", smile.total_dollars()),
            trace,
            metrics,
            alerts,
            actions,
            explain,
        }
    }
}

/// One insert into each base per tick, a trailing delete every fourth tick
/// (weight −1 crosses the ship edge), then a platform tick.
fn feed(smile: &mut Smile, a: RelationId, b: RelationId, ticks: u64) {
    for s in 0..ticks {
        let now = smile.now();
        let k = (s % 20) as i64;
        let mut entries = vec![DeltaEntry::insert(tuple![k], now)];
        if s % 4 == 3 {
            entries.push(DeltaEntry::delete(tuple![(s.saturating_sub(2) % 20) as i64], now));
        }
        smile.ingest(a, DeltaBatch { entries }).unwrap();
        smile
            .ingest(
                b,
                DeltaBatch {
                    entries: vec![DeltaEntry::insert(tuple![k, s as i64], now)],
                },
            )
            .unwrap();
        smile.step().unwrap();
    }
}

/// Asserts byte-identical observable state between two runs, labelling any
/// divergence with the matrix cell that produced it.
fn assert_identical(base: &RunResult, other: &RunResult, cell: &str) {
    assert_eq!(other.mv, base.mv, "MV bytes differ: {cell}");
    assert_eq!(other.expected, base.expected, "ground truth differs: {cell}");
    assert_eq!(other.report, base.report, "fault report differs: {cell}");
    assert_eq!(other.pushes, base.pushes, "PUSH records differ: {cell}");
    assert_eq!(
        other.tuples_moved, base.tuples_moved,
        "tuples-moved meter differs: {cell}"
    );
    assert_eq!(other.dollars, base.dollars, "billing differs: {cell}");
    assert_eq!(other.trace, base.trace, "exported trace differs: {cell}");
    assert_eq!(other.metrics, base.metrics, "logical metrics differ: {cell}");
    assert_eq!(other.alerts, base.alerts, "alert stream differs: {cell}");
    assert_eq!(other.actions, base.actions, "action stream differs: {cell}");
    assert_eq!(
        other.explain, base.explain,
        "explain() report differs: {cell}"
    );
}

#[test]
fn one_worker_equals_four_across_faults() {
    // The worker axis: the inline engine (one worker) and the threaded
    // wave engine (four workers) must agree byte for byte, with and
    // without chaos.
    for chaos in [false, true] {
        let cell = |workers: usize| {
            Scenario {
                calendar: true,
                workers,
                chaos,
                adaptive: false,
                sla: SimDuration::from_secs(20),
            }
            .run()
        };
        let inline = cell(1);
        let threaded = cell(4);
        assert_identical(
            &inline,
            &threaded,
            &format!("workers=4 vs workers=1 chaos={chaos}"),
        );
        if chaos {
            // The comparison must not be vacuous: the fault machinery
            // actually fired in both runs (reports already compared).
            assert!(
                inline.report.crashes + inline.report.deltas_dropped + inline.report.pushes_retried
                    >= 1,
                "chaos profile injected nothing: {:?}",
                inline.report
            );
        }
    }
}

#[test]
fn push_engine_matches_ground_truth_fault_free() {
    let r = Scenario {
        calendar: true,
        workers: 1,
        chaos: false,
        adaptive: false,
        sla: SimDuration::from_secs(20),
    }
    .run();
    assert_eq!(r.mv, r.expected, "MV diverged from ground truth");
    assert!(!r.pushes.is_empty(), "no pushes completed");
}

#[test]
fn modes_agree_under_chaos_with_recovery_exercised() {
    // The single most adversarial cell, pinned on its own so a failure
    // names it directly: chaos, with both execution axes flipped at once —
    // the inline engine under the full per-tick scan against the threaded
    // engine under the push calendar.
    let cell = |calendar: bool, workers: usize| {
        Scenario {
            calendar,
            workers,
            chaos: true,
            adaptive: false,
            sla: SimDuration::from_secs(20),
        }
        .run()
    };
    let baseline = cell(false, 1);
    assert!(
        baseline.report.crashes >= 1 || baseline.report.pushes_retried >= 1,
        "chaos run exercised no recovery: {:?}",
        baseline.report
    );
    let fast = cell(true, 4);
    assert_identical(&baseline, &fast, "chaos calendar+workers=4 vs scan+workers=1");
}

#[test]
fn calendar_equals_scan_across_workers_and_faults() {
    // The scheduling axis: the event-driven push calendar must plan the
    // same batches the full per-tick scan does, so every observable —
    // MV bytes, fault attribution, PUSH records, billing, trace, logical
    // metrics — is byte-identical under chaos and at any worker count.
    for chaos in [false, true] {
        for workers in [1usize, 4] {
            let scan = Scenario {
                calendar: false,
                workers,
                chaos,
                adaptive: false,
                sla: SimDuration::from_secs(20),
            }
            .run();
            let calendar = Scenario {
                calendar: true,
                workers,
                chaos,
                adaptive: false,
                sla: SimDuration::from_secs(20),
            }
            .run();
            assert_identical(
                &scan,
                &calendar,
                &format!("calendar vs scan at workers={workers} chaos={chaos}"),
            );
            if chaos {
                assert!(
                    scan.report.crashes + scan.report.deltas_dropped + scan.report.pushes_retried
                        >= 1,
                    "chaos profile injected nothing: {:?}",
                    scan.report
                );
            }
        }
    }
}

#[test]
fn adaptive_axis_is_worker_deterministic_and_preserves_semantics() {
    // The actuation axis: a tight SLA under chaos pages the burn-rate
    // monitor, and the adaptive control loop re-plans and live-migrates
    // the alerted sharing. Every control decision is made coordinator-side
    // from deterministic state, so the full observable surface — action
    // and alert streams included — must be byte-identical at any worker
    // count; and because the actuator only moves work (never changes the
    // query), the sharing's ground truth must match the static run's.
    let cell = |workers: usize, adaptive: bool| {
        Scenario {
            calendar: true,
            workers,
            chaos: true,
            adaptive,
            sla: SimDuration::from_secs(1),
        }
        .run()
    };
    let static_run = cell(1, false);
    let base = cell(1, true);
    for workers in [2usize, 8] {
        let other = cell(workers, true);
        assert_identical(
            &base,
            &other,
            &format!("adaptive workers={workers} vs workers=1"),
        );
    }
    // The axis is not vacuous: the monitor paged and the actuator acted.
    assert_ne!(base.alerts, "[]", "tight-SLA chaos run raised no alert");
    assert!(
        base.actions.contains("MigrationStarted"),
        "adaptive run never attempted a migration: {}",
        base.actions
    );
    assert_eq!(static_run.actions, "[]", "static run must take no actions");
    // Actuation moves the MV; it must not change what the sharing computes.
    assert_eq!(
        base.expected, static_run.expected,
        "adaptive run changed the sharing's ground truth"
    );
}
