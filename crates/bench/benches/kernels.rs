//! Real wall-clock microbenches (criterion) of the hot kernels: the
//! serial Gustavson reference, the parallel sort, the generators, and the
//! power-law fit. These measure *host* performance of
//! the library (not simulated device time) and back the perf claims in the
//! README.

use criterion::{BenchmarkId, Criterion};
use spmm_parallel::{par_sort_by_key, ThreadPool};
use spmm_scalefree::{fit_power_law, scale_free_matrix, GeneratorConfig};
use spmm_sparse::reference;
use spmm_sparse::CsrMatrix;

fn matrix(n: usize, seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(n, n * 5, 2.3, seed))
}

fn main() {
    let mut c = Criterion::default().configure_from_args().sample_size(10);
    let pool = ThreadPool::host();

    for &n in &[2_000usize, 8_000] {
        let a = matrix(n, 42);
        c.bench_with_input(BenchmarkId::new("reference/spmm_rowrow", n), &a, |b, a| {
            b.iter(|| reference::spmm_rowrow(a, a).unwrap())
        });
    }

    let big: Vec<u64> = (0..200_000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
    c.bench_function("parallel/par_sort_by_key/200k", |b| {
        b.iter(|| {
            let mut v = big.clone();
            par_sort_by_key(&mut v, &pool, |&x| x);
            v
        })
    });

    c.bench_function("scalefree/generate/20k", |b| {
        b.iter(|| matrix(20_000, 7))
    });
    let sizes = matrix(50_000, 9).row_sizes();
    c.bench_function("scalefree/fit_power_law/50k", |b| {
        b.iter(|| fit_power_law(std::hint::black_box(&sizes)))
    });

    c.final_summary();
}
