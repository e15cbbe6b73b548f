//! Criterion benchmarks of the sharing optimizer: JOINCOST dynamic
//! programming across join arities and the hill-climbing plumbing pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smile_core::multi::{enumerate_plumbings, hill_climb, GlobalPlan};
use smile_core::optimizer::{Objective, Optimizer};
use smile_core::plan::timecost::TimeCostModel;
use smile_core::platform::{Smile, SmileConfig};
use smile_core::sharing::Sharing;
use smile_sim::PriceSheet;
use smile_types::{MachineId, SharingId, SimDuration};
use smile_workload::sharings::paper_sharings;
use smile_workload::twitter::{TwitterConfig, TwitterWorkload};

/// Builds the standard catalog and returns (platform, sharings by arity).
fn setup() -> (Smile, Vec<Sharing>) {
    let mut smile = Smile::new(SmileConfig::with_machines(6));
    let workload = TwitterWorkload::register(&mut smile, TwitterConfig::default()).unwrap();
    let sharings = paper_sharings(&workload.rels())
        .into_iter()
        .map(|p| {
            Sharing::new(
                SharingId::new(p.index as u32),
                p.app,
                p.query,
                SimDuration::from_secs(45),
                0.001,
            )
        })
        .collect();
    (smile, sharings)
}

fn bench_joincost_dp(c: &mut Criterion) {
    let (smile, sharings) = setup();
    let model = TimeCostModel::paper_defaults();
    let prices = PriceSheet::ec2_cross_zone();
    let mut g = c.benchmark_group("joincost_dp");
    // One representative sharing per join arity: S1 (2-way), S2 (3-way),
    // S11 (4-way), S20 (5-way).
    for (arity, idx) in [(2usize, 0usize), (3, 1), (4, 10), (5, 19)] {
        let sharing = &sharings[idx];
        g.bench_with_input(BenchmarkId::new("dpd", arity), sharing, |b, s| {
            b.iter(|| {
                let opt =
                    Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), &model, &prices);
                opt.plan_with(s, Objective::Dollars).unwrap()
            });
        });
        g.bench_with_input(BenchmarkId::new("dpt", arity), sharing, |b, s| {
            b.iter(|| {
                let opt =
                    Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), &model, &prices);
                opt.plan_with(s, Objective::Time).unwrap()
            });
        });
    }
    g.finish();
}

fn global_plan_for_bench() -> GlobalPlan {
    let (smile, sharings) = setup();
    let model = TimeCostModel::paper_defaults();
    let prices = PriceSheet::ec2_cross_zone();
    let mut global = GlobalPlan::new();
    for (i, s) in sharings.iter().take(12).enumerate() {
        let opt = Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), &model, &prices)
            .with_mv_machine(Some(MachineId::new(i as u32 % 6)));
        let planned = opt.plan_pair(s).unwrap().choose(s).unwrap();
        global.merge(s, &planned).unwrap();
    }
    global
}

fn bench_plumbing(c: &mut Criterion) {
    let global = global_plan_for_bench();
    let model = TimeCostModel::paper_defaults();
    let prices = PriceSheet::ec2_cross_zone();
    let mut g = c.benchmark_group("plumbing");
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(8));
    g.bench_function("enumerate_12_sharings", |b| {
        b.iter(|| enumerate_plumbings(&global));
    });
    g.bench_function("hill_climb_12_sharings", |b| {
        b.iter_batched(
            || global.clone(),
            |mut g2| hill_climb(&mut g2, &model, &prices, 32, true),
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_merge(c: &mut Criterion) {
    let (smile, sharings) = setup();
    let model = TimeCostModel::paper_defaults();
    let prices = PriceSheet::ec2_cross_zone();
    let planned: Vec<_> = sharings
        .iter()
        .take(12)
        .enumerate()
        .map(|(i, s)| {
            let opt = Optimizer::new(&smile.catalog, smile.cluster.machine_ids(), &model, &prices)
                .with_mv_machine(Some(MachineId::new(i as u32 % 6)));
            (s.clone(), opt.plan_pair(s).unwrap().choose(s).unwrap())
        })
        .collect();
    c.bench_function("merge_12_sharings", |b| {
        b.iter(|| {
            let mut global = GlobalPlan::new();
            for (s, p) in &planned {
                global.merge(s, p).unwrap();
            }
            global
        });
    });
}

criterion_group!(benches, bench_joincost_dp, bench_plumbing, bench_merge);
criterion_main!(benches);
