//! Intra-config parallel candidate evaluation must be invisible in the
//! result: the same seed at 1, 2, and 4 workers produces byte-identical
//! `result_json` — same winner, same stats, same per-config counters —
//! because the parallel scan's sequential replay re-imposes the serial
//! budgets and tiebreaks (see `Engine::best_from_parallel`).
//!
//! The quick default covers two benchmarks × both objectives; set
//! `HSYN_INTRA_ALL=1` (CI does) to sweep the full benchmark set.

use hsyn_core::{synthesize, Objective, SynthesisConfig};
use hsyn_dfg::benchmarks::{self, Benchmark};
use hsyn_lib::papers::table1_library;
use hsyn_rtl::ModuleLibrary;

fn config(objective: Objective, intra: usize) -> SynthesisConfig {
    let mut c = SynthesisConfig::new(objective);
    c.max_passes = 3;
    c.candidate_limit = 3;
    c.eval_trace_len = 16;
    c.report_trace_len = 32;
    c.max_clock_candidates = 2;
    c.laxity_factor = 2.2;
    c.resynth_depth = 1;
    // Hold the outer sweep serial so only the intra-config knob varies.
    c.parallelism = Some(1);
    c.intra_parallelism = intra;
    c
}

fn assert_identical_across_workers(bench: &Benchmark, objective: Objective) {
    let mut mlib = ModuleLibrary::from_simple(table1_library());
    mlib.equiv = bench.equiv.clone();
    let baseline = synthesize(&bench.hierarchy, &mlib, &config(objective, 1))
        .unwrap_or_else(|e| panic!("{}: serial synthesis failed: {e}", bench.name))
        .result_json();
    for workers in [2usize, 4] {
        let parallel = synthesize(&bench.hierarchy, &mlib, &config(objective, workers))
            .unwrap_or_else(|e| panic!("{}: {workers}-worker synthesis failed: {e}", bench.name))
            .result_json();
        assert_eq!(
            baseline, parallel,
            "{} ({objective:?}): result_json diverged at {workers} intra workers",
            bench.name
        );
    }
}

/// Benchmarks under test: a small always-on set, widened to the full
/// reconstructed suite when `HSYN_INTRA_ALL` is set.
fn suite() -> Vec<Benchmark> {
    if std::env::var_os("HSYN_INTRA_ALL").is_some() {
        vec![
            benchmarks::paulin(),
            benchmarks::hier_paulin(),
            benchmarks::dct(),
            benchmarks::iir(),
            benchmarks::lat(),
            benchmarks::avenhaus_cascade(),
            benchmarks::test1(),
            benchmarks::fft4(),
        ]
    } else {
        vec![benchmarks::paulin(), benchmarks::iir()]
    }
}

#[test]
fn result_json_is_identical_at_1_2_4_workers() {
    for bench in suite() {
        for objective in [Objective::Area, Objective::Power] {
            assert_identical_across_workers(&bench, objective);
        }
    }
}
