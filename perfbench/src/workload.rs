//! The workloads: their operands, distinct products, request order
//! and request texts. Everything here is a pure function of the workload
//! and the seed.

use hetero_spmm::scalefree::{
    scale_free_matrix, CatalogEntry, Dataset, GeneratorConfig, RowSizeDistribution,
};
use hetero_spmm::sparse::CsrMatrix;
use spmm_rng::{Rng, StdRng};

/// Table I matrices are shrunk by this factor where a workload names no
/// other.
pub const SCALE: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeCold, Workload::ServeWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients. No workload runs more compute threads than
    /// `nproc`.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::ServeWarm => nproc,
            // one client: with two, a `gen` could evict the operand another
            // client is about to multiply
            Workload::ServeCold => 1,
        }
    }

    /// Host threads of the service's engine pool: one on every workload,
    /// so that no request waits for a second vCPU. On a shared VM a request
    /// split over `nproc` engine threads waits whenever the host has taken
    /// any one of them away (steal), and its tail latency followed steal
    /// rather than the program.
    pub fn host_threads(self, _nproc: usize) -> usize {
        1
    }
}

/// One generated operand and the platform scale it is registered with.
#[derive(Clone, Debug)]
pub struct Operand {
    pub label: String,
    pub config: GeneratorConfig,
    pub scale: usize,
}

impl Operand {
    /// Exponent of the operand's row-size law.
    pub fn alpha(&self) -> f64 {
        match self.config.distribution {
            RowSizeDistribution::PowerLaw { alpha }
            | RowSizeDistribution::BulkAndHubs { alpha, .. } => alpha,
            RowSizeDistribution::NearUniform { .. } => unreachable!("no near-uniform operands"),
        }
    }

    /// The power-law config the service's `gen` op builds from this
    /// operand's rows, nnz, exponent and seed.
    pub fn gen_config(&self) -> GeneratorConfig {
        let c = &self.config;
        GeneratorConfig::square_power_law(c.nrows, c.target_nnz, self.alpha(), c.seed)
    }
}

/// One distinct product `operands[a] × operands[b]`.
#[derive(Clone, Debug)]
pub struct Product {
    pub label: String,
    pub a: usize,
    pub b: usize,
}

/// Everything a run of one workload sends, derived from its seed.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub operands: Vec<Operand>,
    pub products: Vec<Product>,
}

/// Seed of stream `stream` of a run; kept below 2^31 so it crosses the
/// JSON wire (numbers are f64) exactly.
fn derive(seed: u64, stream: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64() >> 33
}

fn catalog(name: &str) -> CatalogEntry {
    Dataset::by_name(name)
        .unwrap_or_else(|| panic!("{name} is not in the catalog"))
        .entry()
}

/// A Table I clone at `1/scale` exactly as [`Dataset::generate`] builds
/// it (rows and mean row size of the original, bulk-and-hubs law with the
/// published α), but from this run's seed instead of the catalog's fixed
/// one.
fn catalog_operand(name: &str, scale: usize, seed: u64) -> Operand {
    let entry = catalog(name);
    let rows = (entry.rows / scale).max(64);
    let mean = entry.nnz as f64 / entry.rows as f64;
    let nnz = ((rows as f64 * mean) as usize).clamp(rows, rows * rows);
    let distribution = RowSizeDistribution::BulkAndHubs {
        alpha: entry.alpha,
        hub_fraction: 0.01,
        hub_xmin_factor: 4.0,
    };
    Operand {
        label: format!("{name}#{seed}"),
        config: GeneratorConfig {
            nrows: rows,
            ncols: rows,
            target_nnz: nnz,
            distribution,
            seed,
        },
        scale,
    }
}

/// Distinct seeds `serve-cold` cycles through.
pub const COLD_SEEDS: usize = 8;
/// `serve-cold` uses the most skewed Table I exponent.
const COLD_ALPHA: f64 = 2.1;

/// Operand pairs per `serve-warm` family, each from its own seeds. At these
/// sizes one pair's cost moves by about a tenth from seed to seed; a run's
/// mean over three pairs moves by √3 less.
pub const WARM_PAIRS: usize = 3;

/// `serve-warm` families and their shrink factors. Each of a family's
/// [`WARM_PAIRS`] pairs is multiplied as `A × A` and as `A × B`, with `B` a
/// same-shape matrix of another seed.
///
/// At a common 1/32 (1/4, 1/17 and 1/11 for the three small ones, by the
/// catalog's rule) the products fall into four cost modes of about 7, 9.5,
/// 13.5 and 25 ms, and the median lands in the gap between the second
/// and the third, where it jumps between runs. These factors give every
/// product about the same cost, so the request mix has one cost mode and
/// each percentile sits inside it.
///
/// They also keep a request's working set (operands, C, the engine's
/// accumulators) near one core's 2 MiB L2. On a shared host the last-level
/// cache is shared with other tenants and its speed follows their load;
/// products four times larger (C of about 2.6 MB, 14 ms a request) lived
/// in it, and their median latency spread 0.25 between the quartiles of
/// ten runs. See the benchmark's README.
pub const WARM_FAMILIES: [(&str, usize); 6] = [
    ("wiki-Vote", 12),
    ("email-Enron", 48),
    ("ca-CondMat", 24),
    ("dblp2010", 150),
    ("scircuit", 104),
    ("webbase-1M", 256),
];

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut operands = Vec::new();
        let mut products = Vec::new();
        match workload {
            Workload::ServeCold => {
                // web-Google's 1/32 size under α = 2.1
                let google = catalog("web-Google");
                for i in 0..COLD_SEEDS {
                    let s = derive(seed, i as u64);
                    operands.push(Operand {
                        label: format!("gen#{s}"),
                        config: GeneratorConfig::square_power_law(
                            google.rows / SCALE,
                            google.nnz / SCALE,
                            COLD_ALPHA,
                            s,
                        ),
                        scale: SCALE,
                    });
                    products.push(Product {
                        label: format!("gen#{s}^2"),
                        a: i,
                        b: i,
                    });
                }
            }
            Workload::ServeWarm => {
                for (f, &(name, scale)) in WARM_FAMILIES.iter().enumerate() {
                    for k in 0..WARM_PAIRS {
                        let stream = 2 * (f * WARM_PAIRS + k) as u64;
                        let a = catalog_operand(name, scale, derive(seed, stream));
                        let b = catalog_operand(name, scale, derive(seed, stream + 1));
                        let (ia, ib) = (operands.len(), operands.len() + 1);
                        products.push(Product {
                            label: format!("{name}#{k}^2"),
                            a: ia,
                            b: ia,
                        });
                        products.push(Product {
                            label: format!("{name}#{k}*{name}#{k}'"),
                            a: ia,
                            b: ib,
                        });
                        operands.push(a);
                        operands.push(b);
                    }
                }
            }
        }
        Self {
            workload,
            seed,
            operands,
            products,
        }
    }

    /// Product order of request cycle `c`. Every cycle sends each distinct
    /// product exactly once, so a run that ends on a cycle boundary holds
    /// the same number of samples of every product and its percentiles
    /// cannot slide between products' cost modes.
    pub fn cycle(&self, c: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.products.len()).collect();
        if self.workload == Workload::ServeWarm {
            let mut rng = StdRng::seed_from_u64(derive(self.seed, 1 << 20 | c));
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
        }
        order
    }

    /// The benchmark's own copy of every operand.
    pub fn generate(&self) -> Vec<CsrMatrix<f64>> {
        self.operands
            .iter()
            .map(|op| match self.workload {
                // what the service's `gen` op will build from the same request
                Workload::ServeCold => scale_free_matrix(&op.gen_config()),
                _ => scale_free_matrix(&op.config),
            })
            .collect()
    }

    /// The `gen` request that registers operand `i` (serve-cold only).
    pub fn gen_text(&self, i: usize) -> String {
        let op = &self.operands[i];
        format!(
            r#"{{"op":"gen","nrows":{},"nnz":{},"alpha":{},"seed":{},"scale":{}}}"#,
            op.config.nrows,
            op.config.target_nnz,
            op.alpha(),
            op.config.seed,
            op.scale
        )
    }
}

/// A `multiply` request over registry tokens.
pub fn multiply_text(a: &str, b: &str) -> String {
    format!(r#"{{"op":"multiply","a":"{a}","b":"{b}"}}"#)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(plan: &Plan, cycles: u64) -> Vec<String> {
        (0..cycles)
            .flat_map(|c| plan.cycle(c))
            .map(|p| {
                let prod = &plan.products[p];
                format!(
                    "{}:{}x{}",
                    prod.label, plan.operands[prod.a].label, plan.operands[prod.b].label
                )
            })
            .collect()
    }

    #[test]
    fn request_sequence_is_deterministic_and_follows_the_seed() {
        for w in Workload::ALL {
            let once = sequence(&Plan::new(w, 7), 4);
            assert_eq!(once, sequence(&Plan::new(w, 7), 4), "{}", w.name());
            assert_ne!(once, sequence(&Plan::new(w, 8), 4), "{}", w.name());
        }
    }

    #[test]
    fn warm_cycles_are_shuffled_permutations() {
        let plan = Plan::new(Workload::ServeWarm, 3);
        let mut sorted = plan.cycle(5);
        assert_ne!(plan.cycle(5), plan.cycle(6));
        sorted.sort_unstable();
        assert_eq!(sorted, (0..plan.products.len()).collect::<Vec<_>>());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn no_workload_oversubscribes_or_splits_a_request() {
        for w in Workload::ALL {
            for nproc in [1, 2, 8] {
                let busy = w.clients(nproc) * w.host_threads(nproc);
                assert!((1..=nproc).contains(&busy), "{}", w.name());
                assert_eq!(w.host_threads(nproc), 1, "{}", w.name());
            }
        }
    }

    #[test]
    fn gen_text_carries_seed_exactly() {
        let plan = Plan::new(Workload::ServeCold, u64::MAX);
        let json = hetero_spmm::serve::json::parse(&plan.gen_text(3)).unwrap();
        assert_eq!(
            json.usize_field("seed"),
            Some(plan.operands[3].config.seed as usize)
        );
    }
}
