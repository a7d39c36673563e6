//! `serve_mixed`: a closed loop of two client threads against an
//! in-process `hsyn serve` daemon at its defaults (2 workers, queue cap
//! 64) with a fresh cache directory. Every submission opens its own
//! connection, as `hsyn submit` does. Also the small serve probe that
//! gives `area_sweep` its `serve.*` layer metrics.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hsyn::core::SynthesisConfig;
use hsyn::rtl::verilog_text;
use hsyn::serve::{Client, JobResult, ServeOptions, Server};
use hsyn::util::Json;

use crate::gate::{self, Resolved};
use crate::inproc::{self, synthesize_in_process, Prepared, SETUP_REPEATS};
use crate::jobs::{serve_first_round, ClientStream, Job, SplitMix, Workload, SERVE_CLIENTS};
use crate::probe;
use crate::report::{self, JobRow, RunData, ServeData};
use crate::trace::{self, span, NO_JOB};

/// A reply slower than this is a failure, not a hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(150);

/// A running in-process daemon and its cache directory.
pub struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Daemon {
    /// Bind a daemon at its defaults on a free port, with a fresh cache
    /// directory `dir`, and start it.
    ///
    /// # Errors
    ///
    /// Directory or bind failures.
    pub fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let server = span("serve.bind", NO_JOB, || Server::bind(opts))
            .map_err(|e| format!("daemon bind failed: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("daemon has no address: {e}"))?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, handle, dir })
    }

    /// A new connection.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(&self) -> Result<Client, String> {
        let mut c = Client::connect(&self.addr.to_string()).map_err(|e| e.to_string())?;
        c.set_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Size of the persisted area store, KiB.
    pub fn area_store_kb(&self) -> f64 {
        std::fs::metadata(self.dir.join("area.json")).map_or(0.0, |m| m.len() as f64 / 1024.0)
    }

    /// Drain and stop the daemon, wait for it, and delete its directory.
    ///
    /// # Errors
    ///
    /// Shutdown or daemon failures. When the shutdown request itself
    /// fails the daemon thread is not joined (it could block forever);
    /// the caller then exits with an error, which ends the thread.
    pub fn stop(self) -> Result<(), String> {
        let acked = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let joined = acked.and_then(|_| {
            self.handle
                .join()
                .map_err(|_| "daemon thread panicked".to_owned())?
                .map_err(|e| format!("daemon failed: {e}"))
        });
        let _ = std::fs::remove_dir_all(&self.dir);
        joined
    }
}

/// Cache directory for daemon number `n` of this process.
fn daemon_dir(work: &Path, n: usize) -> PathBuf {
    work.join(format!("serve-{}-{n}", std::process::id()))
}

/// Submit one job over a new connection; returns the answer and the
/// client round trip, s.
fn submit(daemon: &Daemon, job: &Job) -> (Result<JobResult, String>, f64) {
    let id = job.index as u64;
    let t0 = Instant::now();
    let out = span("bench.job", id, || {
        let mut client = span("serve.connect", id, || daemon.connect())?;
        span("serve.submit", id, || client.submit(&job.spec)).map_err(|e| e.to_string())
    });
    (out, t0.elapsed().as_secs_f64())
}

fn stats_into(daemon: &Daemon, serve: &mut ServeData) -> Result<(), String> {
    let stats = daemon
        .connect()?
        .stats()
        .map_err(|e| format!("stats request failed: {e}"))?;
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let (hits, misses) = (n("job_cache_hits"), n("job_cache_misses"));
    serve.job_cache_hit_rate = crate::stats::ratio(hits, hits + misses);
    serve.warm_area_hits = n("warm_area_hits") as u64;
    Ok(())
}

/// Run `serve_mixed`.
///
/// # Errors
///
/// Daemon start-up or shutdown failures (job failures are rows).
pub fn run(seed: u64, seconds: f64, work: &Path) -> Result<RunData, String> {
    let mut data = RunData::default();

    // Set-up: prepare the first round's new jobs the way `area_sweep`
    // prepares its round (the gate checks the answers against them), bind
    // a daemon on a fresh cache directory and ping it. Repeated; the last
    // daemon serves the run. The daemon's part is also kept on its own.
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        if let Some((daemon, _)) = live.take() {
            Daemon::stop(daemon)?;
        }
        let t0 = Instant::now();
        let prepared = span("bench.setup", NO_JOB, || {
            inproc::prepare(serve_first_round(seed), Workload::ServeMixed)
        });
        let t1 = Instant::now();
        let daemon = Daemon::start(daemon_dir(work, k))?;
        span("serve.ping", NO_JOB, || {
            daemon.connect()?.ping().map_err(|e| e.to_string())
        })?;
        data.setup_s.push(t0.elapsed().as_secs_f64());
        data.setup_daemon_s.push(t1.elapsed().as_secs_f64());
        live = Some((daemon, prepared));
    }
    let (daemon, prepared) = live.expect("at least one set-up");

    // Timed phase: the closed loop, each client on its own stream. Rounds
    // run whole: a client that reaches a round no client has opened yet
    // opens it only while fewer than `seconds` have passed.
    data.rss_reset = report::reset_peak_rss();
    let opened = AtomicUsize::new(0);
    let start = Instant::now();
    let answers: Vec<(Job, Result<JobResult, String>, f64)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| {
                let (daemon, opened) = (&daemon, &opened);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for job in ClientStream::new(seed, c) {
                        if job.round > opened.load(Ordering::Relaxed) {
                            if start.elapsed().as_secs_f64() >= seconds {
                                break;
                            }
                            opened.fetch_max(job.round, Ordering::Relaxed);
                        }
                        let (answer, rt) = submit(daemon, &job);
                        mine.push((job, answer, rt));
                    }
                    trace::flush();
                    mine
                })
            })
            .collect();
        let mut all: Vec<_> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect();
        all.sort_by_key(|a| a.0.index);
        all
    });
    data.timed_wall_s = start.elapsed().as_secs_f64();
    data.note_peak_rss();
    data.timed_spans = answers.len() as u64 * 3;

    stats_into(&daemon, &mut data.serve)?;
    data.serve.area_store_kb = daemon.area_store_kb();
    Daemon::stop(daemon)?;

    // Rows, then the untimed gate.
    let mut jobs = Vec::with_capacity(answers.len());
    let mut served: BTreeMap<String, Vec<(usize, JobResult)>> = BTreeMap::new();
    for (job, answer, rt) in answers {
        let mut row = JobRow::new(&job, rt);
        match answer {
            Ok(res) => {
                row.cached = Some(res.cached);
                row.wall_ms = res.wall_ms;
                row.queue_ms = res.queue_ms;
                row.digest = gate::digest(&res.result_json);
                data.serve.add(res.cached, rt, res.wall_ms, res.queue_ms);
                served
                    .entry(job.spec.cache_key())
                    .or_default()
                    .push((data.rows.len(), res));
            }
            Err(e) => row.failure = Some(format!("submit failed: {e}")),
        }
        data.rows.push(row);
        jobs.push(job);
    }
    gate_served(&jobs, &mut data, &served, prepared);
    Ok(data)
}

/// Gate every distinct served job: synthesize it in process, require
/// every served answer for it to be byte-identical (Verilog included),
/// which also makes every repeat's digest equal the first answer's, check
/// the design, and (traced) probe the first round's designs. `jobs` is
/// aligned with `data.rows`; `prepared` holds the set-up's first-round
/// jobs, and later jobs are prepared here.
fn gate_served(
    jobs: &[Job],
    data: &mut RunData,
    served: &BTreeMap<String, Vec<(usize, JobResult)>>,
    prepared: Prepared,
) {
    let mut prepared: HashMap<String, (Resolved, SynthesisConfig)> = prepared
        .jobs
        .into_iter()
        .map(|(job, r, c)| (job.spec.cache_key(), (r, c)))
        .collect();
    // Distinct jobs in order of first submission.
    let mut order: Vec<(&String, &Vec<(usize, JobResult)>)> = served.iter().collect();
    order.sort_by_key(|(_, answers)| answers[0].0);
    for (key, answers) in order {
        let first_row = answers[0].0;
        let job = &jobs[first_row];
        let id = job.index as u64;
        let (resolved, config) = prepared.remove(key).unwrap_or_else(|| {
            let (_, r, c) = inproc::prepare(vec![job.clone()], Workload::ServeMixed)
                .jobs
                .pop()
                .expect("one job in, one out");
            (r, c)
        });
        let checked = span("bench.gate", id, || -> Result<_, String> {
            let (report, synth_s) = synthesize_in_process(job, &resolved, &config);
            let report = report?;
            let result_json = report.result_json();
            gate::check_design(
                id,
                &resolved.hierarchy,
                &config,
                &report,
                &resolved.mlib.simple,
            )?;
            let verilog = job.spec.want_verilog.then(|| {
                let d = &report.design;
                verilog_text(&d.hierarchy, &d.top.built, &resolved.mlib.simple, 16)
            });
            Ok((report, synth_s, result_json, verilog))
        });
        let (report, synth_s, result_json, verilog) = match checked {
            Ok(t) => t,
            Err(e) => {
                for (row, _) in answers {
                    data.rows[*row].failure = Some(e.clone());
                }
                continue;
            }
        };
        if job.round == 0 && job.repeat_of.is_none() {
            data.core.add(&report, synth_s);
            if trace::enabled() {
                probe::probe_design(&mut data.probes, id, &job.spec, &config, &resolved, &report);
            }
        }
        for (row, res) in answers {
            let r = &mut data.rows[*row];
            r.set_result(&report, &res.result_json);
            let check = gate::check_served(&res.result_json, &result_json).and_then(|()| {
                if res.verilog == verilog {
                    Ok(())
                } else {
                    Err("served Verilog differs from the in-process design's".to_owned())
                }
            });
            if let Err(e) = check {
                r.failure = Some(e);
            }
        }
    }
}

/// The serve probe of a traced `area_sweep` run: a daemon at its defaults,
/// three cold paulin area jobs, then four repeats of each, one connection
/// per submission.
///
/// # Errors
///
/// Daemon start-up or shutdown failures, or a failed submission.
pub fn probe(seed: u64, work: &Path) -> Result<ServeData, String> {
    let daemon = Daemon::start(daemon_dir(work, 99))?;
    let mut rng = SplitMix::new(seed, 0x5052_4F42);
    let jobs: Vec<Job> = crate::jobs::LAXITIES
        .iter()
        .enumerate()
        .map(|(k, &laxity)| {
            let mut spec =
                hsyn::serve::JobSpec::new(hsyn::serve::JobSource::Bench("paulin".to_owned()));
            spec.objective = hsyn::core::Objective::Area;
            spec.laxity = laxity;
            spec.seed = Some(rng.trace_seed());
            Job {
                index: k,
                round: 0,
                repeat_of: None,
                spec,
            }
        })
        .collect();
    let mut serve = ServeData::default();
    let mut failure = None;
    for pass in 0..5 {
        for job in &jobs {
            match submit(&daemon, job) {
                (Ok(res), rt) => serve.add(res.cached, rt, res.wall_ms, res.queue_ms),
                (Err(e), _) => failure = Some(format!("serve probe pass {pass}: {e}")),
            }
        }
    }
    stats_into(&daemon, &mut serve)?;
    serve.area_store_kb = daemon.area_store_kb();
    daemon.stop()?;
    match failure {
        Some(e) => Err(e),
        None => Ok(serve),
    }
}
