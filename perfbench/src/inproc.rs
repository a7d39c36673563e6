//! The in-process workload, `area_sweep`: jobs run one after another
//! through `synthesize`, each with the config its [`JobSpec::to_config`]
//! builds (the daemon's construction path).

use std::time::Instant;

use hsyn::core::{synthesize, SynthesisConfig, SynthesisReport};
use hsyn::power::TraceSet;
use hsyn::serve::JobSpec;

use crate::gate::{self, DigestBook, Resolved};
use crate::jobs::{area_sweep_jobs, Job, Workload};
use crate::probe;
use crate::report::{self, JobRow, RunData};
use crate::trace::span;

/// Set-ups measured per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// The gate synthesizes every `RERUN_EVERY`-th job of the first round a
/// second time, and the repeat must give the same `result_json` digest.
const RERUN_EVERY: usize = 6;

/// What a set-up produces: jobs with their behaviors, libraries and
/// configs.
pub struct Prepared {
    /// Each job with its resolved behavior and library and its config.
    pub jobs: Vec<(Job, Resolved, SynthesisConfig)>,
}

fn config_for(workload: Workload, spec: &JobSpec) -> SynthesisConfig {
    let mut config = spec.to_config(None, None);
    config.parallelism = workload.parallelism();
    config
}

/// Resolve every job's behavior and library, build its config for
/// `workload`, and build its traces the way `synthesize` will, so set-up
/// pays for trace generation (`synthesize` regenerates its own copy).
pub fn prepare(jobs: Vec<Job>, workload: Workload) -> Prepared {
    let jobs: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let resolved = gate::resolve(&job.spec)
                .unwrap_or_else(|e| panic!("generated job {} is invalid: {e}", job.index));
            let config = config_for(workload, &job.spec);
            (job, resolved, config)
        })
        .collect();
    let traces: Vec<TraceSet> = jobs
        .iter()
        .map(|(_, r, c)| gate::job_traces(&r.hierarchy, c))
        .collect();
    std::hint::black_box(traces);
    Prepared { jobs }
}

/// Run `area_sweep`: at least one whole round, then whole rounds until
/// `seconds` of job time have passed.
pub fn run(seed: u64, seconds: f64) -> RunData {
    let mut data = RunData::default();

    // Set-up: generate the first round, resolve every behavior and
    // library, build configs and traces. Repeated; the last one is used.
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let p = span("bench.setup", crate::trace::NO_JOB, || {
            prepare(area_sweep_jobs(seed, 0, 0), Workload::AreaSweep)
        });
        data.setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("at least one set-up");

    let mut digests = DigestBook::default();
    let mut round = 0usize;
    let mut next_index = 0usize;
    loop {
        if round > 0 {
            if data.timed_wall_s >= seconds {
                break;
            }
            prepared = prepare(
                area_sweep_jobs(seed, round, next_index),
                Workload::AreaSweep,
            );
        }
        for (k, (job, resolved, config)) in prepared.jobs.iter().enumerate() {
            let (row, report) = run_one(job, resolved, config, &mut data);
            let rerun = round == 0 && k % RERUN_EVERY == 0;
            let row = gate_one(
                job,
                resolved,
                config,
                row,
                report.as_ref(),
                rerun,
                &mut digests,
            );
            if round == 0 {
                if let Some(report) = &report {
                    data.core.add(report, row.seconds);
                    if crate::trace::enabled() {
                        probe::probe_design(
                            &mut data.probes,
                            job.index as u64,
                            &job.spec,
                            config,
                            resolved,
                            report,
                        );
                    }
                }
            }
            data.rows.push(row);
        }
        next_index += prepared.jobs.len();
        round += 1;
    }
    data.timed_spans = 2 * data.rows.len() as u64;
    data
}

/// Run one job, adding its job time to the run's timed wall time and its
/// peak resident memory to the run's peak. The peak is reset before the
/// job, so the gate's work on earlier jobs does not count.
fn run_one(
    job: &Job,
    resolved: &Resolved,
    config: &SynthesisConfig,
    data: &mut RunData,
) -> (JobRow, Option<SynthesisReport>) {
    let id = job.index as u64;
    data.rss_reset = report::reset_peak_rss();
    let t0 = Instant::now();
    let out = span("bench.job", id, || {
        span("core.synthesize", id, || {
            synthesize(&resolved.hierarchy, &resolved.mlib, config)
        })
    });
    let seconds = t0.elapsed().as_secs_f64();
    data.timed_wall_s += seconds;
    data.note_peak_rss();
    let mut row = JobRow::new(job, seconds);
    match out {
        Ok(report) => (row, Some(report)),
        Err(e) => {
            row.failure = Some(format!("synthesis error: {e}"));
            (row, None)
        }
    }
}

/// The untimed output gate for one in-process job. With `rerun`, the job
/// is synthesized a second time and must give the same digest.
fn gate_one(
    job: &Job,
    resolved: &Resolved,
    config: &SynthesisConfig,
    mut row: JobRow,
    report: Option<&SynthesisReport>,
    rerun: bool,
    digests: &mut DigestBook,
) -> JobRow {
    let Some(report) = report else { return row };
    let id = job.index as u64;
    let key = job.spec.cache_key();
    span("bench.gate", id, || {
        let result_json = report.result_json();
        row.set_result(report, &result_json);
        let checked = gate::check_design(
            id,
            &resolved.hierarchy,
            config,
            report,
            &resolved.mlib.simple,
        )
        .and_then(|()| digests.record(&key, &result_json))
        .and_then(|()| {
            if !rerun {
                return Ok(());
            }
            let again = span("core.synthesize", id, || {
                synthesize(&resolved.hierarchy, &resolved.mlib, config)
            })
            .map_err(|e| format!("repeat of the job failed: {e}"))?;
            digests.record(&key, &again.result_json())
        });
        if let Err(e) = checked {
            row.failure = Some(e);
        }
    });
    row
}

/// For the serve workload's gate: synthesize a served job in process,
/// with the config the daemon would build (minus its runtime hooks).
/// Returns the report and the synthesize wall time, s.
pub fn synthesize_in_process(
    job: &Job,
    resolved: &Resolved,
    config: &SynthesisConfig,
) -> (Result<SynthesisReport, String>, f64) {
    let id = job.index as u64;
    let t0 = Instant::now();
    let out = span("core.synthesize", id, || {
        synthesize(&resolved.hierarchy, &resolved.mlib, config)
    })
    .map_err(|e| format!("synthesis error: {e}"));
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsyn::serve::{Budget, JobSource};

    fn tiny_job() -> Job {
        let mut spec = JobSpec::new(JobSource::Bench("paulin".to_owned()));
        spec.budget = Some(Budget {
            max_passes: Some(2),
            candidate_limit: Some(2),
            eval_trace_len: Some(8),
            report_trace_len: Some(16),
            max_clock_candidates: Some(2),
            resynth_depth: Some(0),
        });
        Job {
            index: 0,
            round: 0,
            repeat_of: None,
            spec,
        }
    }

    #[test]
    fn a_rerun_job_passes_and_a_repeat_with_another_digest_fails() {
        let job = tiny_job();
        let resolved = gate::resolve(&job.spec).expect("paulin resolves");
        let config = config_for(Workload::AreaSweep, &job.spec);
        let mut data = RunData::default();
        let (row, report) = run_one(&job, &resolved, &config, &mut data);
        assert!(data.peak_rss_mb.is_some_and(|mb| mb > 0.0));

        // The gate's own repeat synthesizes the job again: same digest.
        let mut digests = DigestBook::default();
        let ok = gate_one(
            &job,
            &resolved,
            &config,
            row.clone(),
            report.as_ref(),
            true,
            &mut digests,
        );
        assert_eq!(ok.failure, None);

        // A repeat of the job whose first run gave other bytes fails.
        let mut digests = DigestBook::default();
        digests
            .record(&job.spec.cache_key(), "{\"corrupted\": true}")
            .expect("first sighting");
        let bad = gate_one(
            &job,
            &resolved,
            &config,
            row,
            report.as_ref(),
            false,
            &mut digests,
        );
        let failure = bad.failure.expect("the repeat is caught");
        assert!(failure.contains("repeat of job"), "{failure}");
    }
}
