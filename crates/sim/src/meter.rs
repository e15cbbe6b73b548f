//! Resource usage accounting, attributed per sharing.
//!
//! The provider "pays for the resources (CPU, Disk, Network) consumed in the
//! cloud" (§1) and the multi-sharing optimizer amortizes that cost: when an
//! edge of the global plan serves several sharings, its resource consumption
//! is split equally among them. The [`UsageLedger`] implements that
//! attribution and is the source of every dollars-per-sharing-hour figure in
//! the evaluation.

use smile_types::{SharingId, SimDuration};
use std::collections::{BTreeMap, HashMap};

/// Re-exported so meter consumers read arrangement statistics through one
/// module.
pub use smile_storage::ArrangementCounters;
/// Re-exported so meter consumers read WAL traffic statistics through one
/// module (aggregated fleet-wide by `Cluster::wal_meter`).
pub use smile_storage::wal::WalCounters;

/// Fleet-wide arrangement statistics, aggregated across every machine's
/// database. Pairs with the dollar ledger: probe-served snapshot rows are
/// read in place and intentionally absent from the "tuples moved" metric,
/// so this meter is where that traffic becomes visible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrangementMeter {
    /// Number of arrangements installed across the fleet.
    pub arrangements: u64,
    /// Summed per-arrangement counters.
    pub counters: ArrangementCounters,
}

impl ArrangementMeter {
    /// Fraction of probes that hit a non-empty bucket (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        self.counters.hit_rate()
    }
}

/// Host-side (wall-clock, not simulated) profile of the parallel push
/// engine: how many wave-jobs ran, how much real CPU time they cost, and how
/// that work was spread over machines. Because jobs are partitioned by
/// machine (`machine index % workers`), the meter can replay the measured
/// per-machine busy time through any worker count and report the modeled
/// makespan — the number an N-core host would observe for the same schedule.
/// Since the telemetry layer landed, the scalar totals (`waves`, `jobs`,
/// `busy_nanos`) live in the telemetry registry and this struct is a *view*
/// assembled on demand by `Smile::wave_meter()` via
/// [`WaveMeter::from_parts`]; only the per-wave profile (needed for the
/// makespan replay) is kept as structured data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WaveMeter {
    /// Waves executed.
    pub waves: u64,
    /// Edge jobs executed across all waves.
    pub jobs: u64,
    /// Host nanoseconds of per-job work, summed — the serial (workers = 1)
    /// makespan of the executed schedule.
    pub busy_nanos: u128,
    /// Per-wave, per-machine host busy nanoseconds, as recorded when each
    /// wave ran. Machines that did nothing in a wave are absent.
    pub wave_machine_nanos: Vec<HashMap<u32, u128>>,
}

impl WaveMeter {
    /// Assembles a view from registry-held totals plus the per-wave
    /// profile. The caller is responsible for the parts agreeing (they all
    /// come from the same recording site in the executor).
    pub fn from_parts(
        waves: u64,
        jobs: u64,
        busy_nanos: u128,
        wave_machine_nanos: Vec<HashMap<u32, u128>>,
    ) -> Self {
        Self {
            waves,
            jobs,
            busy_nanos,
            wave_machine_nanos,
        }
    }

    /// Records one executed wave from its per-machine busy profile.
    pub fn record_wave(&mut self, machine_nanos: HashMap<u32, u128>) {
        self.waves += 1;
        self.jobs += machine_nanos.len() as u64;
        self.busy_nanos += machine_nanos.values().sum::<u128>();
        self.wave_machine_nanos.push(machine_nanos);
    }

    /// Records one executed wave where several jobs may share a machine.
    pub fn record_wave_jobs(&mut self, jobs: &[(u32, u128)]) {
        let mut per_machine: HashMap<u32, u128> = HashMap::new();
        for &(machine, nanos) in jobs {
            *per_machine.entry(machine).or_default() += nanos;
        }
        self.waves += 1;
        self.jobs += jobs.len() as u64;
        self.busy_nanos += per_machine.values().sum::<u128>();
        self.wave_machine_nanos.push(per_machine);
    }

    /// Modeled makespan of the recorded schedule on a host with `workers`
    /// cores: within each wave, machine `m` is owned by worker
    /// `m % workers`, the workers run their machines' jobs concurrently, and
    /// the wave ends when the busiest worker finishes (the coordinator
    /// barrier). Workers = 1 reproduces `busy_nanos` exactly.
    pub fn makespan_nanos(&self, workers: usize) -> u128 {
        let workers = workers.max(1);
        self.wave_machine_nanos
            .iter()
            .map(|wave| {
                let mut per_worker = vec![0u128; workers];
                for (&machine, &nanos) in wave {
                    per_worker[machine as usize % workers] += nanos;
                }
                per_worker.into_iter().max().unwrap_or(0)
            })
            .sum()
    }
}

/// Accumulated resource consumption.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceUsage {
    /// CPU busy time.
    pub cpu: SimDuration,
    /// Bytes shipped over the network.
    pub net_bytes: u64,
    /// Disk occupancy integral in byte-seconds (bytes held × seconds held);
    /// priced per GB-month.
    pub disk_byte_secs: f64,
}

impl ResourceUsage {
    /// Zero usage.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, other: &ResourceUsage) {
        self.cpu += other.cpu;
        self.net_bytes += other.net_bytes;
        self.disk_byte_secs += other.disk_byte_secs;
    }

    /// Usage scaled by `1/n` — the per-sharing share of an operation that
    /// served `n` sharings.
    pub fn split(&self, n: usize) -> ResourceUsage {
        let n = n.max(1) as u64;
        ResourceUsage {
            cpu: self.cpu / n,
            net_bytes: self.net_bytes / n,
            disk_byte_secs: self.disk_byte_secs / n as f64,
        }
    }
}

/// Per-sharing and total resource ledger.
#[derive(Clone, Debug, Default)]
pub struct UsageLedger {
    total: ResourceUsage,
    per_sharing: HashMap<SharingId, ResourceUsage>,
    /// SLA penalty dollars accrued per sharing (violations × pens). Ordered,
    /// so [`UsageLedger::total_penalties`] sums in one fixed order and the
    /// float total is reproducible.
    penalties: BTreeMap<SharingId, f64>,
}

impl UsageLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `usage` to the given sharings, split equally; the total is
    /// charged once. An empty sharing list charges only the total (platform
    /// overhead such as heartbeats).
    pub fn charge(&mut self, usage: ResourceUsage, sharings: &[SharingId]) {
        self.total.add(&usage);
        if sharings.is_empty() {
            return;
        }
        let share = usage.split(sharings.len());
        for &s in sharings {
            self.per_sharing.entry(s).or_default().add(&share);
        }
    }

    /// Records an SLA penalty payment for a sharing.
    pub fn charge_penalty(&mut self, sharing: SharingId, dollars: f64) {
        *self.penalties.entry(sharing).or_default() += dollars;
    }

    /// Total usage across all sharings.
    pub fn total(&self) -> &ResourceUsage {
        &self.total
    }

    /// Usage attributed to one sharing.
    pub fn sharing(&self, s: SharingId) -> ResourceUsage {
        self.per_sharing.get(&s).copied().unwrap_or_default()
    }

    /// Penalty dollars accrued by one sharing.
    pub fn penalty(&self, s: SharingId) -> f64 {
        self.penalties.get(&s).copied().unwrap_or(0.0)
    }

    /// Sum of all penalties.
    pub fn total_penalties(&self) -> f64 {
        self.penalties.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(cpu_ms: u64, net: u64) -> ResourceUsage {
        ResourceUsage {
            cpu: SimDuration::from_millis(cpu_ms),
            net_bytes: net,
            disk_byte_secs: 0.0,
        }
    }

    #[test]
    fn charge_splits_equally() {
        let mut l = UsageLedger::new();
        let (a, b) = (SharingId::new(1), SharingId::new(2));
        l.charge(usage(100, 1000), &[a, b]);
        assert_eq!(l.sharing(a).cpu, SimDuration::from_millis(50));
        assert_eq!(l.sharing(b).net_bytes, 500);
        assert_eq!(l.total().cpu, SimDuration::from_millis(100));
    }

    #[test]
    fn unattributed_charge_hits_total_only() {
        let mut l = UsageLedger::new();
        l.charge(usage(10, 0), &[]);
        assert_eq!(l.total().cpu, SimDuration::from_millis(10));
        assert_eq!(l.sharing(SharingId::new(0)), ResourceUsage::zero());
    }

    #[test]
    fn amortization_reduces_per_sharing_cost() {
        // The core claim of multi-sharing optimization: the same work charged
        // to two sharings costs each half as much as working alone.
        let mut alone = UsageLedger::new();
        alone.charge(usage(100, 100), &[SharingId::new(1)]);
        let mut shared = UsageLedger::new();
        shared.charge(usage(100, 100), &[SharingId::new(1), SharingId::new(2)]);
        assert!(shared.sharing(SharingId::new(1)).cpu < alone.sharing(SharingId::new(1)).cpu);
    }

    #[test]
    fn wave_makespan_models_worker_partitioning() {
        let mut w = WaveMeter::default();
        // Wave 0: machines 0..4 each busy 100ns; wave 1: only machine 1.
        w.record_wave_jobs(&[(0, 100), (1, 100), (2, 100), (3, 100)]);
        w.record_wave_jobs(&[(1, 50), (1, 25)]);
        assert_eq!(w.waves, 2);
        assert_eq!(w.jobs, 6);
        assert_eq!(w.busy_nanos, 475);
        // Serial host: the whole busy time, one wave after another.
        assert_eq!(w.makespan_nanos(1), 475);
        // 2 workers: wave 0 splits {0,2} vs {1,3} = 200; wave 1 all on
        // worker 1 = 75.
        assert_eq!(w.makespan_nanos(2), 275);
        // 4 workers: wave 0 fully parallel = 100; wave 1 unchanged.
        assert_eq!(w.makespan_nanos(4), 175);
        // More workers than machines changes nothing.
        assert_eq!(w.makespan_nanos(16), 175);
    }

    #[test]
    fn penalties_accumulate() {
        let mut l = UsageLedger::new();
        let s = SharingId::new(3);
        l.charge_penalty(s, 0.001);
        l.charge_penalty(s, 0.002);
        assert!((l.penalty(s) - 0.003).abs() < 1e-12);
        assert!((l.total_penalties() - 0.003).abs() < 1e-12);
    }

    /// The penalty total must not depend on the order sharings were
    /// charged in: float addition is not associative, so a hash-ordered
    /// sum would differ in its low bits between two equal ledgers.
    #[test]
    fn penalty_total_is_independent_of_charge_order() {
        let charges: Vec<(SharingId, f64)> = (0..1_000u32)
            .map(|i| {
                let magnitude = 10f64.powi((i % 9) as i32 - 4);
                (SharingId::new(i), magnitude * (1.0 + f64::from(i) / 7.0))
            })
            .collect();
        let mut forward = UsageLedger::new();
        for &(s, d) in &charges {
            forward.charge_penalty(s, d);
        }
        let mut reverse = UsageLedger::new();
        for &(s, d) in charges.iter().rev() {
            reverse.charge_penalty(s, d);
        }
        assert_eq!(
            forward.total_penalties().to_bits(),
            reverse.total_penalties().to_bits()
        );
    }
}
