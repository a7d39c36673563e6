//! Seeded job generation for the workloads.
//!
//! Every job is a [`JobSpec`]; the program sees only the generated jobs.
//! The generator owns its random stream (SplitMix64 below) so that a
//! change to the repository's own RNG can never change the benchmark's
//! inputs.
//!
//! Each workload is built from *rounds*: one round is a seeded permutation
//! of the workload's whole shape pool, so every round (and every run of a
//! workload) holds the same mix of shapes and the seed decides order,
//! trace seeds and the other draws. This keeps run-to-run spread down to
//! the program's own noise instead of the luck of the draw.

use hsyn::core::Objective;
use hsyn::serve::{JobSource, JobSpec};

/// The laxity factors of the paper's Table 3.
pub const LAXITIES: [f64; 3] = [1.2, 2.2, 3.2];

/// Every built-in benchmark: the paper suite, its extensions and the
/// memory tier.
pub const ALL_BENCHES: [&str; 13] = [
    "avenhaus_cascade",
    "lat",
    "dct",
    "iir",
    "hier_paulin",
    "test1",
    "paulin",
    "fft4",
    "wdf5",
    "fir8",
    "matmul",
    "fir_block",
    "conv2d",
];

/// The benchmarks that carry power-objective jobs in `serve_mixed`.
pub const SERVE_POWER_BENCHES: [&str; 3] = ["paulin", "hier_paulin", "fir_block"];

/// LNS iterations carried by one `area_sweep` job in four.
pub const AREA_LNS_ITERS: usize = 16;

/// The workloads the benchmark knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Area-objective jobs, hierarchical and flat, 2-thread sweep.
    AreaSweep,
    /// Short jobs through an in-process `hsyn serve` daemon.
    ServeMixed,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "area_sweep" => Some(Workload::AreaSweep),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AreaSweep => "area_sweep",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// `SynthesisConfig::parallelism` for in-process jobs.
    pub fn parallelism(self) -> Option<usize> {
        match self {
            Workload::AreaSweep => Some(2),
            // The daemon builds its own configs; in-process reruns of
            // served jobs (the output gate) keep the job's defaults.
            Workload::ServeMixed => None,
        }
    }
}

/// SplitMix64: tiny, stable, and good enough for drawing job parameters.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// A trace seed: 32 bits, so it survives the wire's `f64` numbers.
    pub fn trace_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }
}

/// One generated job with the position it holds in its workload.
#[derive(Clone, Debug)]
pub struct Job {
    /// Position in the workload's stream.
    pub index: usize,
    /// The round this job belongs to (0-based).
    pub round: usize,
    /// For `serve_mixed`: the stream index of the earlier job this
    /// submission repeats.
    pub repeat_of: Option<usize>,
    /// The job itself.
    pub spec: JobSpec,
}

impl Job {
    /// The built-in benchmark the job synthesizes.
    pub fn bench(&self) -> &str {
        match &self.spec.source {
            JobSource::Bench(name) => name,
            JobSource::Text(_) => "<text>",
        }
    }
}

fn bench_job(name: &str, objective: Objective, laxity: f64) -> JobSpec {
    let mut spec = JobSpec::new(JobSource::Bench(name.to_owned()));
    spec.objective = objective;
    spec.laxity = laxity;
    spec
}

/// `area_sweep` round `round`: all 13 benchmarks × 3 laxities ×
/// {hierarchical, flat}, area objective, a drawn trace seed, in seeded
/// order. A fixed quarter of the shapes — every fourth in canonical
/// (benchmark, laxity, flat) order — carries `lns_iters = 16`, so the
/// LNS share and its spread over benchmarks are the same in every round.
pub fn area_sweep_round(seed: u64, round: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix::new(seed, 0x4152_0000 + round as u64);
    let mut jobs = Vec::with_capacity(ALL_BENCHES.len() * 6);
    for name in ALL_BENCHES {
        for laxity in LAXITIES {
            for flat in [false, true] {
                let mut spec = bench_job(name, Objective::Area, laxity);
                spec.flat = flat;
                if jobs.len() % 4 == 3 {
                    spec.lns_iters = AREA_LNS_ITERS;
                }
                jobs.push(spec);
            }
        }
    }
    rng.shuffle(&mut jobs);
    for job in &mut jobs {
        job.seed = Some(rng.trace_seed());
    }
    jobs
}

/// `area_sweep` round `round` as indexed [`Job`]s, numbered from
/// `first_index`.
pub fn area_sweep_jobs(seed: u64, round: usize, first_index: usize) -> Vec<Job> {
    area_sweep_round(seed, round)
        .into_iter()
        .enumerate()
        .map(|(k, spec)| Job {
            index: first_index + k,
            round,
            repeat_of: None,
            spec,
        })
        .collect()
}

/// The `serve_mixed` shape pool: area jobs over the whole suite at every
/// laxity, plus power jobs on paulin, hier_paulin and fir_block.
fn serve_shapes() -> Vec<JobSpec> {
    let mut shapes = Vec::new();
    for name in ALL_BENCHES {
        for laxity in LAXITIES {
            shapes.push(bench_job(name, Objective::Area, laxity));
        }
    }
    for name in SERVE_POWER_BENCHES {
        for laxity in LAXITIES {
            shapes.push(bench_job(name, Objective::Power, laxity));
        }
    }
    shapes
}

/// Client threads of `serve_mixed`'s closed loop.
pub const SERVE_CLIENTS: usize = 2;

/// Passes over the shape pool in one `serve_mixed` round.
pub const SERVE_PASSES_PER_ROUND: usize = 2;

/// One client's `serve_mixed` submission stream, generated as it is used.
///
/// Every third position of a client (from its first) is a new job; the two
/// between repeat one of the same client's earlier new jobs, drawn
/// uniformly. A client waits for each answer before its next submission,
/// so every job it repeats has already been answered: every repeat is a
/// job-cache hit and every new job a miss, however fast single jobs run.
///
/// New jobs walk passes over the shape pool, each pass a seeded
/// permutation with fresh trace seeds that the clients share out (pass
/// position `k` goes to client `k % SERVE_CLIENTS`); one new job in four
/// asks for Verilog. A round is [`SERVE_PASSES_PER_ROUND`] passes: a
/// client's round ends at its last new job of those passes, and every
/// position is tagged with its round. Position `p` of client `c` has the
/// workload-wide index `p * SERVE_CLIENTS + c`.
#[derive(Clone, Debug)]
pub struct ClientStream {
    seed: u64,
    client: usize,
    shapes: Vec<JobSpec>,
    draw: SplitMix,
    /// This client's share of the current pass, last first.
    pending: Vec<JobSpec>,
    passes: usize,
    /// Index and spec of every new job this client has submitted.
    news: Vec<(usize, JobSpec)>,
    position: usize,
    round: usize,
}

impl ClientStream {
    /// The stream of client `client` (`< SERVE_CLIENTS`) for `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        ClientStream {
            seed,
            client,
            shapes: serve_shapes(),
            draw: SplitMix::new(seed, 0x5345_0100 + client as u64),
            pending: Vec::new(),
            passes: 0,
            news: Vec::new(),
            position: 0,
            round: 0,
        }
    }

    fn next_pass(&mut self) {
        let mut rr = SplitMix::new(self.seed, 0x5345_1000 + self.passes as u64);
        let mut pass = self.shapes.clone();
        rr.shuffle(&mut pass);
        for (k, job) in pass.iter_mut().enumerate() {
            job.seed = Some(rr.trace_seed());
            job.want_verilog = (k / SERVE_CLIENTS).is_multiple_of(4);
        }
        self.pending = pass
            .into_iter()
            .skip(self.client)
            .step_by(SERVE_CLIENTS)
            .collect();
        self.pending.reverse();
        self.passes += 1;
    }
}

impl Iterator for ClientStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let index = self.position * SERVE_CLIENTS + self.client;
        let round = self.round;
        let (spec, repeat_of) = if self.position.is_multiple_of(3) {
            if self.pending.is_empty() {
                self.next_pass();
            }
            let spec = self.pending.pop().expect("refilled above");
            self.news.push((index, spec.clone()));
            if self.pending.is_empty() && self.passes.is_multiple_of(SERVE_PASSES_PER_ROUND) {
                self.round += 1;
            }
            (spec, None)
        } else {
            let (of, spec) = &self.news[self.draw.below(self.news.len())];
            (spec.clone(), Some(*of))
        };
        self.position += 1;
        Some(Job {
            index,
            round,
            repeat_of,
            spec,
        })
    }
}

/// The new jobs of `serve_mixed`'s first round, every client's, in index
/// order: the jobs whose answers the run's latency, QoR and exact counts
/// are taken over.
pub fn serve_first_round(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..SERVE_CLIENTS)
        .flat_map(|c| ClientStream::new(seed, c).take_while(|j| j.round == 0))
        .filter(|j| j.repeat_of.is_none())
        .collect();
    jobs.sort_by_key(|j| j.index);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(jobs: &[JobSpec]) -> Vec<String> {
        jobs.iter().map(JobSpec::cache_key).collect()
    }

    /// Both clients' first `len` positions, in index order.
    fn serve_jobs(seed: u64, len: usize) -> Vec<Job> {
        let mut all: Vec<Job> = (0..SERVE_CLIENTS)
            .flat_map(|c| ClientStream::new(seed, c).take(len))
            .collect();
        all.sort_by_key(|j| j.index);
        all
    }

    #[test]
    fn jobs_repeat_exactly_for_a_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            for round in 0..2 {
                let a = area_sweep_round(seed, round);
                let b = area_sweep_round(seed, round);
                assert_eq!(a, b);
                assert_eq!(keys(&a), keys(&b));
            }
        }
        let a = serve_jobs(7, 400);
        let b = serve_jobs(7, 400);
        let tags = |s: &[Job]| {
            s.iter()
                .map(|j| (j.index, j.round, j.repeat_of))
                .collect::<Vec<_>>()
        };
        assert_eq!(tags(&a), tags(&b));
        let specs = |s: &[Job]| s.iter().map(|j| j.spec.clone()).collect::<Vec<_>>();
        assert_eq!(specs(&a), specs(&b));
        assert_eq!(keys(&specs(&a)), keys(&specs(&b)));
        assert_ne!(keys(&specs(&a)), keys(&specs(&serve_jobs(8, 400))));
    }

    #[test]
    fn seeds_change_the_draw_but_not_the_shape_mix() {
        let shape = |j: &JobSpec| (j.source.clone(), j.laxity.to_bits(), j.flat, j.lns_iters);
        let mut a: Vec<_> = area_sweep_round(1, 0).iter().map(shape).collect();
        let mut b: Vec<_> = area_sweep_round(2, 0).iter().map(shape).collect();
        assert_ne!(a, b, "order is drawn");
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b, "every round holds the whole pool");
        assert_eq!(a.len(), 78);
        assert_eq!(a.iter().filter(|s| s.3 == AREA_LNS_ITERS).count(), 19);
        assert_ne!(
            keys(&area_sweep_round(1, 0)),
            keys(&area_sweep_round(2, 0)),
            "trace seeds are drawn"
        );
    }

    #[test]
    fn serve_clients_repeat_only_their_own_answered_jobs() {
        let stream = serve_jobs(11, 1500);
        assert_eq!(stream.len(), 3000);
        assert!(stream.iter().enumerate().all(|(i, j)| j.index == i));
        let repeats = stream.iter().filter(|j| j.repeat_of.is_some()).count();
        assert_eq!(repeats, 2000, "two in three positions repeat");
        for j in &stream {
            if let Some(of) = j.repeat_of {
                // Same client, earlier position, and a new job: a client
                // has its answer before it submits again.
                assert!(of < j.index);
                assert_eq!(of % SERVE_CLIENTS, j.index % SERVE_CLIENTS);
                assert!(stream[of].repeat_of.is_none());
                assert_eq!(j.spec, stream[of].spec);
            }
        }
        let verilog = stream
            .iter()
            .filter(|j| j.repeat_of.is_none() && j.spec.want_verilog)
            .count();
        assert_eq!(4 * verilog, 1000, "one new job in four asks for Verilog");
        // Each round holds both clients' shares of its passes: every shape
        // the same number of times, all new jobs distinct.
        let last = stream.iter().map(|j| j.round).max().expect("non-empty");
        assert!(last >= 2, "3000 positions span several rounds");
        let pool = serve_shapes().len();
        for r in 0..last {
            let new: Vec<&JobSpec> = stream
                .iter()
                .filter(|j| j.round == r && j.repeat_of.is_none())
                .map(|j| &j.spec)
                .collect();
            assert_eq!(new.len(), pool * SERVE_PASSES_PER_ROUND, "round {r}");
            let mut distinct: Vec<String> = new.iter().map(|s| s.cache_key()).collect();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), new.len(), "new jobs are distinct");
            for shape in serve_shapes() {
                let n = new
                    .iter()
                    .filter(|s| {
                        s.source == shape.source
                            && s.objective == shape.objective
                            && s.laxity == shape.laxity
                    })
                    .count();
                assert_eq!(n, SERVE_PASSES_PER_ROUND, "round {r}");
            }
        }
        let first: Vec<usize> = serve_first_round(11).iter().map(|j| j.index).collect();
        let round0: Vec<usize> = stream
            .iter()
            .filter(|j| j.round == 0 && j.repeat_of.is_none())
            .map(|j| j.index)
            .collect();
        assert_eq!(first, round0);
        // Per client, rounds are contiguous from 0 and end at a new job.
        for c in 0..SERVE_CLIENTS {
            let mine: Vec<&Job> = stream
                .iter()
                .filter(|j| j.index % SERVE_CLIENTS == c)
                .collect();
            assert_eq!(mine[0].round, 0);
            for w in mine.windows(2) {
                assert!(w[1].round == w[0].round || w[1].round == w[0].round + 1);
                if w[1].round != w[0].round {
                    assert!(w[0].repeat_of.is_none());
                }
            }
        }
    }
}
