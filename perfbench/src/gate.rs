//! The output gate: every job's output is checked, untimed, and a job
//! that fails any check counts towards `fail_share`.
//!
//! A job fails when synthesis returns an error, when co-simulation of its
//! final design differs from the flattened behavior's reference outputs on
//! the job's traces, when the cross-layer verifier reports an error, when
//! a served answer is not byte-identical to the in-process `result_json`
//! of the same job, or when a repeat of a job gives a different digest.

use std::collections::HashMap;

use hsyn::core::{SynthesisConfig, SynthesisReport};
use hsyn::dfg::{benchmarks, reference_outputs, EquivClasses, Hierarchy};
use hsyn::lib::{papers::table1_library, Library};
use hsyn::lint::{error_count, verify_design, DesignView};
use hsyn::power::{dsp_default, TraceSet};
use hsyn::rtl::{cosimulate, ModuleLibrary};
use hsyn::serve::{JobSource, JobSpec};

use crate::trace::span;

/// A job's behavior and library, resolved the way the daemon resolves
/// them (built-in benchmark by name, library by name, the benchmark's
/// equivalence classes on the module library).
pub struct Resolved {
    /// The behavior as submitted (hierarchical even for flat jobs).
    pub hierarchy: Hierarchy,
    /// Module library with the benchmark's equivalence classes.
    pub mlib: ModuleLibrary,
}

/// Resolve a job's source and library.
///
/// # Errors
///
/// Unknown benchmark or library names, and text sources (the generated
/// workloads only use built-in benchmarks).
pub fn resolve(spec: &JobSpec) -> Result<Resolved, String> {
    let JobSource::Bench(name) = &spec.source else {
        return Err("the benchmark generates built-in benchmark jobs only".to_owned());
    };
    let bench = span("dfg.by_name", crate::trace::NO_JOB, || {
        benchmarks::by_name(name)
    })
    .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let simple: Library = match spec.library.as_str() {
        "realistic" => Library::realistic(),
        "table1" => table1_library(),
        other => return Err(format!("unknown library `{other}`")),
    };
    Ok(Resolved {
        hierarchy: bench.hierarchy,
        mlib: with_equiv(simple, bench.equiv),
    })
}

fn with_equiv(simple: Library, equiv: EquivClasses) -> ModuleLibrary {
    let mut mlib = ModuleLibrary::from_simple(simple);
    mlib.equiv = equiv;
    mlib
}

/// The traces a job evaluates on: the same construction `synthesize` uses
/// for its search traces.
pub fn job_traces(hierarchy: &Hierarchy, config: &SynthesisConfig) -> TraceSet {
    let inputs = hierarchy.dfg(hierarchy.top()).input_count();
    dsp_default(inputs, config.eval_trace_len, config.width, config.seed)
}

/// Check a finished design: co-simulation against the flattened
/// behavior's reference outputs on the job's traces, then the
/// cross-layer verifier.
///
/// # Errors
///
/// A description of the first failed check.
pub fn check_design(
    job: u64,
    behavior: &Hierarchy,
    config: &SynthesisConfig,
    report: &SynthesisReport,
    lib: &Library,
) -> Result<(), String> {
    let flat = span("dfg.flatten", job, || behavior.flatten());
    let traces = span("power.traces", job, || job_traces(behavior, config));
    let want = span("dfg.reference_outputs", job, || {
        reference_outputs(&flat, &traces.samples, config.width)
    });
    let d = &report.design;
    let run = span("rtl.cosimulate", job, || {
        cosimulate(&d.hierarchy, &d.top.built, &traces.samples, config.width)
    })
    .map_err(|e| format!("co-simulation diverged: {e}"))?;
    if run.outputs != want {
        return Err("co-simulated outputs differ from the reference outputs".to_owned());
    }
    let diags = span("lint.verify_design", job, || {
        verify_design(&DesignView {
            hierarchy: &d.hierarchy,
            module: &d.top.built,
            lib,
            vdd: d.op.vdd,
            clk_ns: d.op.clk_ref_ns,
            sampling_period: d.top.core.deadline,
        })
    });
    if error_count(&diags) > 0 {
        let first = diags
            .iter()
            .find(|d| d.severity == hsyn::lint::Severity::Error)
            .map_or_else(String::new, |d| d.to_string());
        return Err(format!("verifier reported an error: {first}"));
    }
    Ok(())
}

/// A served answer must be byte-identical to the in-process `result_json`
/// of the same job.
///
/// # Errors
///
/// Both digests, when the bytes differ.
pub fn check_served(served: &str, in_process: &str) -> Result<(), String> {
    if served == in_process {
        Ok(())
    } else {
        Err(format!(
            "served result_json {} differs from in-process {}",
            digest(served),
            digest(in_process)
        ))
    }
}

/// 64-bit FNV-1a digest of a `result_json`, as 16 hex digits. The
/// benchmark's own copy, so a change to the program's hashing can never
/// change the digests two commits are compared by.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// First digest seen per job cache key; a repeat must match it.
#[derive(Debug, Default)]
pub struct DigestBook {
    by_key: HashMap<String, String>,
}

impl DigestBook {
    /// Record `result_json` for `key`.
    ///
    /// # Errors
    ///
    /// When an earlier run of the same job gave a different digest.
    pub fn record(&mut self, key: &str, result_json: &str) -> Result<(), String> {
        let d = digest(result_json);
        match self.by_key.get(key) {
            Some(first) if *first != d => Err(format!(
                "repeat of job {key} gave digest {d}, first run gave {first}"
            )),
            Some(_) => Ok(()),
            None => {
                self.by_key.insert(key.to_owned(), d);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn::core::synthesize;
    use hsyn::serve::Budget;

    fn tiny_job() -> JobSpec {
        let mut spec = JobSpec::new(JobSource::Bench("paulin".to_owned()));
        spec.budget = Some(Budget {
            max_passes: Some(2),
            candidate_limit: Some(2),
            eval_trace_len: Some(8),
            report_trace_len: Some(16),
            max_clock_candidates: Some(2),
            resynth_depth: Some(0),
        });
        spec
    }

    #[test]
    fn gate_passes_a_real_job_and_fails_a_corrupted_result_json() {
        let spec = tiny_job();
        let r = resolve(&spec).expect("paulin resolves");
        let config = spec.to_config(None, None);
        let report = synthesize(&r.hierarchy, &r.mlib, &config).expect("paulin synthesizes");
        check_design(0, &r.hierarchy, &config, &report, &r.mlib.simple).expect("design passes");

        let good = report.result_json();
        assert!(check_served(&good, &good).is_ok());
        // Flip one hex digit of one float's bits.
        let at = good.find("\"area_fu\"").expect("result_json has area_fu") + 13;
        let mut bytes = good.clone().into_bytes();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        let bad = String::from_utf8(bytes).expect("still UTF-8");
        assert_ne!(bad, good);
        assert!(check_served(&bad, &good).is_err());

        let key = spec.cache_key();
        let mut book = DigestBook::default();
        book.record(&key, &good).expect("first sighting");
        book.record(&key, &good).expect("identical repeat");
        assert!(book.record(&key, &bad).is_err());
    }

    #[test]
    fn gate_fails_a_design_whose_outputs_diverge() {
        // Check paulin's design against a different behavior: the
        // reference outputs cannot match.
        let spec = tiny_job();
        let r = resolve(&spec).expect("paulin resolves");
        let config = spec.to_config(None, None);
        let report = synthesize(&r.hierarchy, &r.mlib, &config).expect("paulin synthesizes");
        let mut other = JobSpec::new(JobSource::Bench("fir8".to_owned()));
        other.budget = spec.budget;
        let o = resolve(&other).expect("fir8 resolves");
        let wrong = std::panic::catch_unwind(|| {
            check_design(0, &o.hierarchy, &config, &report, &r.mlib.simple)
        });
        // Either a structured failure or a refused (mismatched-shape) input.
        assert!(!matches!(wrong, Ok(Ok(()))));
    }

    #[test]
    fn unknown_sources_are_errors() {
        let spec = JobSpec::new(JobSource::Bench("nope".to_owned()));
        assert!(resolve(&spec).is_err());
        let mut spec = JobSpec::new(JobSource::Bench("paulin".to_owned()));
        spec.library = "nope".to_owned();
        assert!(resolve(&spec).is_err());
    }
}
