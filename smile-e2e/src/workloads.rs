//! The four workloads. Each is built from a seed: `setup` takes a fresh
//! platform to the end of `install`, and `drive_inputs` pre-generates
//! every driven tick's input before the timed drive starts.

use crate::rep::Instr;
use crate::stats::order_batches;
use smile::core::catalog::BaseStats;
use smile::storage::delta::DeltaEntry;
use smile::storage::join::JoinOn;
use smile::storage::{DeltaBatch, Predicate, SpjQuery};
use smile::types::{tuple, Column, ColumnType, MachineId, RelationId, Schema, SimDuration};
use smile::workload::rates::{RateIntegrator, RateTrace};
use smile::workload::sharings::paper_sharings;
use smile::workload::twitter::{TwitterConfig, TwitterWorkload, UpdateRatios};
use smile::{Smile, SmileConfig};

/// Machines in every workload's fleet (the paper's testbed).
const MACHINES: usize = 6;
/// Penalty dollars per stale tuple, as in the paper experiments.
pub const PENALTY: f64 = 0.001;
/// Seeds of the gardenhose rate traces. A trace is fixed, like the paper's
/// recording; `--seed` varies the tuples, not the load shape. Trace 7 (the
/// executor-scale bench's) has no burst in its first minutes; trace 14
/// bursts to 7x the mean during its fifth minute.
const ADMISSION_TRACE_SEED: u64 = 7;
const CHURN_TRACE_SEED: u64 = 14;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §9 ecosystem at fig6 default scale.
    PaperSteady,
    /// Thousands of two-way-join sharings; admission is the work.
    AdmissionScale,
    /// The ecosystem under Mix SLAs, bursty ingest, retractions and churn.
    ChurnBurst,
    /// As `ChurnBurst`, at the paper's update ratios (few retractions).
    LiveChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSteady,
        Workload::AdmissionScale,
        Workload::ChurnBurst,
        Workload::LiveChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSteady => "paper-steady",
            Workload::AdmissionScale => "admission-scale",
            Workload::ChurnBurst => "churn-burst",
            Workload::LiveChurn => "live-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether every repetition of an untraced run drives, not only the
    /// first: true where the drive is short next to the setup, so the
    /// drive metrics pool over several drives at little cost, and on
    /// live-churn, whose tick tail would otherwise fall between its live
    /// admissions and its largest pushes.
    pub fn drive_every_rep(self) -> bool {
        self != Workload::ChurnBurst
    }

    /// Whether the drive admits and retires sharings live.
    pub fn churns(self) -> bool {
        matches!(self, Workload::ChurnBurst | Workload::LiveChurn)
    }

    /// Simulated seconds of the timed drive (one-second ticks).
    pub fn drive_secs(self) -> u64 {
        match self {
            Workload::PaperSteady => 300,
            Workload::AdmissionScale | Workload::ChurnBurst | Workload::LiveChurn => 600,
        }
    }
}

/// Sharings of the admission-scale population.
const ADMISSION_SHARINGS: usize = 1000;
const ADM_RELATIONS: u32 = 6;
const ADM_SHAPES: u32 = 4;

/// One live admission in a churning drive.
pub struct LiveOp {
    /// Sharing name.
    pub name: String,
    /// Its query.
    pub query: SpjQuery,
    /// Its SLA.
    pub sla: SimDuration,
    /// MV machine pin.
    pub machine: MachineId,
}

/// Everything one driven tick feeds the platform.
pub struct TickInput {
    /// Delta batches, in ingest order.
    pub batches: Vec<(RelationId, DeltaBatch)>,
    /// A live admission (and retirement of an older live sharing).
    pub live: Option<LiveOp>,
}

/// Input generator state left by setup.
pub enum Generator {
    /// The Twitter stream generator after prepopulation.
    Twitter(TwitterWorkload),
    /// The admission-scale synthetic relations.
    Synthetic(Vec<RelationId>),
}

/// A platform at the end of `install`, plus its input generator.
pub struct Built {
    /// The installed platform.
    pub smile: Smile,
    /// The drive-input generator.
    pub gen: Generator,
}

/// The paper's "mix" SLAs: S1–S7 → 10 s, S8–S15 → 40 s, S16–S25 → 60 s.
fn mix_sla(index: usize) -> SimDuration {
    SimDuration::from_secs(match index {
        0..=7 => 10,
        8..=15 => 40,
        _ => 60,
    })
}

/// Admission-scale SLA of the i-th sharing: a 1-in-200 interactive
/// minority (30–59 s) among 5–15 minute SLAs.
fn adm_sla(i: usize) -> SimDuration {
    SimDuration::from_secs(if i.is_multiple_of(200) {
        30 + (i / 200 % 30) as u64
    } else {
        300 + (i % 600) as u64
    })
}

/// Admission-scale query i: four two-way join shapes over six relations
/// with an `isqrt(i)` equality literal (heavy structural dedup).
fn adm_query(i: usize) -> SpjQuery {
    let shape = (i as u32) % ADM_SHAPES;
    let k = (i as f64).sqrt().floor() as i64;
    let (a, b) = (shape, (shape + 1) % ADM_RELATIONS);
    SpjQuery::scan(RelationId::new(a)).join(
        RelationId::new(b),
        JoinOn::on(1, 0),
        Predicate::eq(2, k),
    )
}

fn twitter_config(w: Workload, seed: u64) -> TwitterConfig {
    match w {
        Workload::ChurnBurst => TwitterConfig {
            seed,
            assumed_tweet_rate: 100.0,
            ratios: UpdateRatios {
                loc: 0.5,
                ..UpdateRatios::default()
            },
            ..TwitterConfig::default()
        },
        Workload::LiveChurn => TwitterConfig {
            seed,
            assumed_tweet_rate: 100.0,
            ..TwitterConfig::default()
        },
        _ => TwitterConfig {
            seed,
            assumed_tweet_rate: 300.0,
            ..TwitterConfig::default()
        },
    }
}

fn rate_trace(w: Workload) -> RateTrace {
    match w {
        Workload::PaperSteady => RateTrace::Constant(300.0),
        Workload::AdmissionScale => RateTrace::Gardenhose {
            mean: 100.0,
            seed: ADMISSION_TRACE_SEED,
        },
        Workload::ChurnBurst | Workload::LiveChurn => RateTrace::Gardenhose {
            mean: 100.0,
            seed: CHURN_TRACE_SEED,
        },
    }
}

/// The platform configuration: defaults, with the executor's worker count
/// pinned explicitly (never taken from the environment).
pub fn platform_config(w: Workload, workers: usize) -> SmileConfig {
    let mut config = SmileConfig::with_machines(MACHINES);
    config.exec.workers = workers;
    if w == Workload::AdmissionScale {
        // As in the executor-scale population: every sharing must admit,
        // and hill climbing does not finish at this size.
        config.capacity = 1e12;
        config.hill_climb = false;
    }
    config
}

/// Builds the workload from an empty platform to the end of `install`.
pub fn setup(w: Workload, seed: u64, workers: usize, ins: &mut Instr) -> Built {
    let mut smile = Smile::new(platform_config(w, workers));
    let gen = match w {
        Workload::AdmissionScale => {
            let span = ins.tracer.open("catalog", None);
            let rels = register_synthetic(&mut smile);
            ins.tracer.close(span);
            for i in 0..ADMISSION_SHARINGS {
                ins.submit(
                    &mut smile,
                    &format!("S{i}"),
                    adm_query(i),
                    adm_sla(i),
                    MachineId::new(i as u32 % MACHINES as u32),
                );
            }
            Generator::Synthetic(rels)
        }
        Workload::PaperSteady | Workload::ChurnBurst | Workload::LiveChurn => {
            let span = ins.tracer.open("catalog", None);
            let mut tw = TwitterWorkload::register(&mut smile, twitter_config(w, seed))
                .expect("register the Twitter relations");
            ins.tracer.close(span);
            // The paper starts with tweets already loaded.
            let span = ins.tracer.open("workload.gen", None);
            let batches = order_batches(tw.tweets(5_000, smile.now()));
            ins.tracer.close(span);
            for (rel, batch) in batches {
                ins.prepopulate(&mut smile, rel, batch);
            }
            let span = ins.tracer.open("catalog", None);
            tw.refresh_stats(&mut smile).expect("refresh catalog stats");
            ins.tracer.close(span);
            for (pin, s) in paper_sharings(&tw.rels()).into_iter().enumerate() {
                let sla = if w.churns() {
                    mix_sla(s.index)
                } else {
                    SimDuration::from_secs(45)
                };
                ins.submit(
                    &mut smile,
                    &format!("S{}", s.index),
                    s.query,
                    sla,
                    MachineId::new(pin as u32 % MACHINES as u32),
                );
            }
            Generator::Twitter(tw)
        }
    };
    ins.install(&mut smile);
    Built { smile, gen }
}

fn register_synthetic(smile: &mut Smile) -> Vec<RelationId> {
    (0..ADM_RELATIONS)
        .map(|r| {
            let card = 50_000.0 + 25_000.0 * r as f64;
            smile
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
                .expect("register a synthetic relation")
        })
        .collect()
}

/// SplitMix64: the synthetic tuple stream's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// Pre-generates every driven tick's input from the seed. Batches are in
/// ingest order (ascending relation id).
pub fn drive_inputs(w: Workload, seed: u64, built: &mut Built) -> Vec<TickInput> {
    let tick = built.smile.config.exec.tick;
    assert_eq!(
        tick,
        SimDuration::from_secs(1),
        "drives assume one-second ticks"
    );
    let start = built.smile.now();
    let mut integrator = RateIntegrator::new(rate_trace(w));
    let mut rng = SplitMix(seed ^ 0x5eed_ba7c_4000_0000);
    let mut seq: i64 = 0;
    let live_pool = match &built.gen {
        Generator::Twitter(tw) if w.churns() => paper_sharings(&tw.rels()),
        _ => Vec::new(),
    };
    (0..w.drive_secs())
        .map(|i| {
            let now = start + SimDuration::from_secs(i);
            let count = integrator.tick(now, tick);
            let batches = match &mut built.gen {
                Generator::Twitter(tw) => order_batches(tw.tweets(count, now)),
                Generator::Synthetic(rels) => {
                    let mut per_rel: Vec<Vec<DeltaEntry>> = vec![Vec::new(); rels.len()];
                    for _ in 0..count {
                        let r = (seq % rels.len() as i64) as usize;
                        let (fk, g) = (rng.below(977), rng.below(1000));
                        per_rel[r].push(DeltaEntry::insert(tuple![seq, fk, g], now));
                        seq += 1;
                    }
                    rels.iter()
                        .zip(per_rel)
                        .filter(|(_, e)| !e.is_empty())
                        .map(|(rel, entries)| (*rel, DeltaBatch { entries }))
                        .collect()
                }
            };
            // Churn: every 30 sim-s one paper sharing is admitted live.
            let live = (!live_pool.is_empty() && (i + 1) % 30 == 0).then(|| {
                let k = ((i + 1) / 30) as usize;
                let s = &live_pool[k % live_pool.len()];
                LiveOp {
                    name: format!("L{k}-S{}", s.index),
                    query: s.query.clone(),
                    sla: mix_sla(s.index),
                    machine: MachineId::new((k % MACHINES) as u32),
                }
            });
            TickInput { batches, live }
        })
        .collect()
}

/// Live-admitted sharings kept resident; each further live admission
/// retires the oldest one.
pub const LIVE_KEEP: usize = 2;
