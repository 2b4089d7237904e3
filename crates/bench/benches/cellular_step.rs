//! One cellular generation under each update policy (the E05 ablation:
//! double-buffered parallel synchronous step vs in-place asynchronous
//! sweeps), plus both neighborhood shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pga_cellular::{CellularGa, UpdatePolicy};
use pga_core::ops::{BitFlip, OnePoint};
use pga_core::Engine;
use pga_problems::OneMax;
use pga_topology::CellNeighborhood;

const LEN: usize = 64;

fn grid(policy: UpdatePolicy, nb: CellNeighborhood) -> CellularGa<OneMax> {
    CellularGa::builder(OneMax::new(LEN))
        .grid(32, 32)
        .neighborhood(nb)
        .update_policy(policy)
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(LEN))
        .seed(7)
        .build()
        .expect("valid config")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cellular_step_32x32");
    group.sample_size(20);
    for policy in UpdatePolicy::ALL {
        group.bench_with_input(
            BenchmarkId::new("vonneumann", policy.name()),
            &policy,
            |b, &policy| {
                let mut cga = grid(policy, CellNeighborhood::VonNeumann);
                b.iter(|| cga.step());
            },
        );
    }
    group.bench_function("moore/synchronous", |b| {
        let mut cga = grid(UpdatePolicy::Synchronous, CellNeighborhood::Moore);
        b.iter(|| cga.step());
    });
    group.finish();
}

criterion_group!(cellular_benches, bench);
criterion_main!(cellular_benches);
