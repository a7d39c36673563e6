//! Per-layer probes, run untimed in the traced run on each final design of
//! a workload's first round. Each probe is one call into one crate, inside
//! a span named after the crate and function; the per-layer metrics are
//! the mean span durations.

use std::hint::black_box;
use std::time::Instant;

use hsyn::core::{
    evaluate, initial_solution, selection_candidates, sharing_candidates, splitting_candidates,
    SynthesisConfig, SynthesisReport, Transaction,
};
use hsyn::dataflow::analyze_hierarchy;
use hsyn::dfg::text;
use hsyn::power::{estimate, simulate, TraceSet};
use hsyn::rtl::{fingerprint_tree, module_area, verilog_text, ModuleLibrary};
use hsyn::serve::JobSpec;

use crate::gate::{job_traces, Resolved};
use crate::trace::span;

/// Candidate tries per move family per design.
const TRIES_PER_FAMILY: usize = 8;

/// Probe results accumulated over designs (the probe times themselves
/// are read back from the spans).
#[derive(Debug, Default)]
pub struct ProbeAcc {
    /// A/C/D candidates generated on the probed designs.
    pub candidates: u64,
    /// Time of each successful candidate try (apply + evaluate +
    /// rollback), µs.
    pub try_us: Vec<f64>,
    /// Tries whose apply was refused.
    pub try_refused: u64,
}

/// One probe call inside a span.
fn timed<R>(probe: &'static str, job: u64, f: impl FnOnce() -> R) {
    span(probe, job, || black_box(f()));
}

/// Probe one final design.
pub fn probe_design(
    acc: &mut ProbeAcc,
    job: u64,
    spec: &JobSpec,
    config: &SynthesisConfig,
    resolved: &Resolved,
    report: &SynthesisReport,
) {
    let d = &report.design;
    let lib = &resolved.mlib.simple;
    // Flat jobs synthesize the flattened behavior against the plain
    // library, exactly as `synthesize` does.
    let flat_mlib;
    let work_mlib: &ModuleLibrary = if spec.flat {
        flat_mlib = ModuleLibrary::from_simple(lib.clone());
        &flat_mlib
    } else {
        &resolved.mlib
    };
    let traces = job_traces(&resolved.hierarchy, config);
    let (h, m) = (&d.hierarchy, &d.top.built);

    timed("core.initial_solution", job, || {
        initial_solution(h, work_mlib, &d.op)
    });
    timed("core.evaluate", job, || {
        evaluate(d, lib, &traces, config.objective)
    });
    timed("power.simulate", job, || simulate(h, m, &traces));
    timed("power.estimate", job, || {
        estimate(
            h,
            m,
            lib,
            &traces,
            d.op.vdd,
            d.op.physical_clk_ns(lib),
            d.op.sampling_cycles.max(1),
        )
    });
    timed("rtl.module_area", job, || module_area(h, m, lib));
    timed("rtl.fingerprint_tree", job, || fingerprint_tree(h, m));
    timed("rtl.verilog_text", job, || {
        verilog_text(h, m, lib, config.width)
    });
    timed("dataflow.analyze_hierarchy", job, || {
        analyze_hierarchy(&resolved.hierarchy, config.width)
    });
    let printed = text::print(&resolved.hierarchy, Some(&resolved.mlib.equiv));
    timed("dfg.parse", job, || text::parse(&printed));
    timed("dfg.flatten", job, || resolved.hierarchy.flatten());

    try_candidates(acc, job, config, work_mlib, &traces, report);
}

/// Try up to [`TRIES_PER_FAMILY`] evenly spaced A, C and D candidates:
/// each is an in-place apply inside a [`Transaction`] (move-*B*
/// resynthesis answered with `None`), a full `evaluate`, and a rollback.
fn try_candidates(
    acc: &mut ProbeAcc,
    job: u64,
    config: &SynthesisConfig,
    mlib: &ModuleLibrary,
    traces: &TraceSet,
    report: &SynthesisReport,
) {
    let mut dp = report.design.clone();
    let objective = config.objective;
    let families = span("core.candidates", job, || {
        [
            selection_candidates(&dp, mlib, objective, false),
            sharing_candidates(&dp, mlib, objective),
            splitting_candidates(&dp, mlib, objective),
        ]
    });
    for family in families {
        acc.candidates += family.len() as u64;
        let step = family.len().div_ceil(TRIES_PER_FAMILY).max(1);
        for (_, mv) in family.iter().step_by(step) {
            let t0 = Instant::now();
            let applied = span("core.try", job, || {
                let mut tx = Transaction::begin(&mut dp);
                let ok = tx.apply(mv, mlib, &mut |_, _, _| None).is_ok();
                if ok {
                    black_box(evaluate(tx.design(), &mlib.simple, traces, objective));
                }
                tx.rollback();
                ok
            });
            if applied {
                acc.try_us.push(t0.elapsed().as_secs_f64() * 1e6);
            } else {
                acc.try_refused += 1;
            }
        }
    }
}
