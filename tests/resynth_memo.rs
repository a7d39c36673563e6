//! The move-*B* resynthesis memo is invisible in results: with every hit
//! recomputed and compared under `shadow_eval`, reports stay byte-identical
//! to the default run at every sweep and scan worker count, and the memo
//! actually answers repeated requests. With a serial scan, each
//! configuration's hit and miss counts equal the default run's: shadow
//! recomputations and the sweep's worker count never show in them.

use hsyn::core::{synthesize, Objective, SynthesisConfig, SynthesisReport};
use hsyn::dfg::benchmarks;
use hsyn::lib::Library;
use hsyn::rtl::ModuleLibrary;

/// A reduced budget that still recurses two levels deep, so nested
/// engines share the memo too. Shadow mode recomputes every hit, so the
/// budget is what keeps the suite fast.
fn config(objective: Objective, candidate_limit: usize) -> SynthesisConfig {
    let mut c = SynthesisConfig::new(objective);
    c.max_passes = if candidate_limit > 3 { 3 } else { 2 };
    c.candidate_limit = candidate_limit;
    c.eval_trace_len = 8;
    c.report_trace_len = 16;
    c.max_clock_candidates = 2;
    c.resynth_depth = 2;
    c
}

fn run(name: &str, config: &SynthesisConfig) -> SynthesisReport {
    let bench = benchmarks::by_name(name).expect("known benchmark");
    let mut mlib = ModuleLibrary::from_simple(Library::realistic());
    mlib.equiv = bench.equiv.clone();
    synthesize(&bench.hierarchy, &mlib, config)
        .unwrap_or_else(|e| panic!("{name}: synthesis failed: {e}"))
}

/// Per-configuration `(hits, misses)`.
fn memo_counts(r: &SynthesisReport) -> Vec<(u64, u64)> {
    r.per_config
        .iter()
        .map(|c| (c.resynth_memo_hits, c.resynth_memo_misses))
        .collect()
}

/// Runs `name` under shadow evaluation at sweep and scan worker counts
/// 1 and 2, against the default run's bytes and memo counts.
fn check(name: &str, objective: Objective, candidate_limit: usize) {
    let default = run(name, &config(objective, candidate_limit));
    let reference = default.result_json();
    // At one scan worker the search is serial, so each configuration's
    // requests, and which of them hit, are fixed: neither the sweep's
    // worker count nor the shadow recomputations may move the counts.
    let serial_counts = memo_counts(&default);
    for parallelism in [1, 2] {
        for intra in [1, 2] {
            let mut c = config(objective, candidate_limit);
            c.shadow_eval = true;
            c.parallelism = Some(parallelism);
            c.intra_parallelism = intra;
            let report = run(name, &c);
            let tag = format!("{name} parallelism {parallelism} intra {intra}");
            assert_eq!(report.result_json(), reference, "{tag}: result bytes moved");
            let counts = memo_counts(&report);
            let hits: u64 = counts.iter().map(|&(h, _)| h).sum();
            assert!(hits > 0, "{tag}: the memo never hit ({counts:?})");
            if intra == 1 {
                assert_eq!(counts, serial_counts, "{tag}: memo counts moved");
            }
        }
    }
}

#[test]
fn dct_power() {
    check("dct", Objective::Power, 3);
}

#[test]
fn iir_power() {
    check("iir", Objective::Power, 4);
}

#[test]
fn avenhaus_cascade_power() {
    check("avenhaus_cascade", Objective::Power, 4);
}

#[test]
fn fir_block_power() {
    check("fir_block", Objective::Power, 4);
}

#[test]
fn conv2d_area() {
    check("conv2d", Objective::Area, 4);
}

#[test]
fn matmul_area() {
    check("matmul", Objective::Area, 4);
}
