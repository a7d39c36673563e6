//! Variable-depth iterative improvement (Figure 4, lines 3–16): each pass
//! applies a sequence of best-available moves — individual moves may have
//! *negative* gain — then commits the prefix with the best cumulative gain,
//! "thus enabling escape from local minima".

use crate::cache::EvalCache;
use crate::config::SynthesisConfig;
use crate::cost::{evaluate_search, evaluate_search_cached, Evaluation, Objective};
use crate::design::{initial_module_with_window, ChildKind, DesignPoint, OperatingPoint};
use crate::moves::{
    apply_in_place, selection_candidates, sharing_candidates, splitting_candidates, Candidate, Move,
};
use crate::transact::{UndoLog, UndoMark};
use hsyn_dfg::{DfgId, Hierarchy, NodeKind};
use hsyn_lint::{error_count, verify_design, DesignView, Diagnostic, Severity};
use hsyn_power::{dsp_default, TraceSet};
use hsyn_rtl::{
    dfg_fingerprint, fingerprint_at, fingerprint_tree, module_fingerprint,
    refresh_fingerprint_tree, window_of, FpTree, ModuleLibrary,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A paranoid-mode verifier failure: the design under optimization stopped
/// satisfying a cross-layer invariant. Carries the move that introduced the
/// corruption (when one did) and the first error-severity diagnostic.
#[derive(Clone, Debug)]
pub struct ParanoidViolation {
    /// Display form of the accepted move after which the verifier fired;
    /// `None` when a configuration-boundary check (initial or final design)
    /// failed.
    pub after_move: Option<String>,
    /// The first error-severity diagnostic the verifier reported.
    pub diagnostic: Diagnostic,
}

impl fmt::Display for ParanoidViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.after_move {
            Some(mv) => write!(f, "verifier failed after move {mv}: {}", self.diagnostic),
            None => write!(
                f,
                "verifier failed at configuration boundary: {}",
                self.diagnostic
            ),
        }
    }
}

impl std::error::Error for ParanoidViolation {}

/// Why an engine run stopped before producing an optimized design:
/// a paranoid-mode verifier failure (the configuration is skipped and the
/// sweep continues) or a tripped [`CancelToken`](crate::CancelToken) (the
/// whole job aborts). `From<Box<ParanoidViolation>>` keeps every
/// `paranoid_check(..)?` call site unchanged.
#[derive(Debug)]
pub(crate) enum Abort {
    /// The cross-layer verifier reported an error-severity diagnostic.
    Paranoid(Box<ParanoidViolation>),
    /// The run's cancel token tripped (explicit cancel or deadline).
    Cancelled,
}

impl From<Box<ParanoidViolation>> for Abort {
    fn from(v: Box<ParanoidViolation>) -> Self {
        Abort::Paranoid(v)
    }
}

/// Counters describing what the engine did (reported for every synthesis
/// run; the experiment harness prints them alongside the results).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MoveStats {
    /// Candidate moves fully evaluated (rebuild + reschedule + simulate).
    pub evaluated: u64,
    /// Candidates rejected by validity checks.
    pub rejected: u64,
    /// Moves committed, per family.
    pub applied_a: u64,
    /// Move B commits.
    pub applied_b: u64,
    /// Move C commits.
    pub applied_c: u64,
    /// Move D commits.
    pub applied_d: u64,
    /// Improvement passes executed.
    pub passes: u64,
    /// `(Vdd, clk)` configurations explored.
    pub configs: u64,
    /// `(Vdd, clk)` configurations skipped because no initial solution
    /// could be built (see
    /// [`SynthesisReport::skipped_configs`](crate::SynthesisReport::skipped_configs)
    /// for the reasons).
    pub configs_skipped: u64,
    /// Incremental-evaluation cache lookups answered from the cache
    /// (area + simulation); 0 with [`SynthesisConfig::incremental`] off.
    pub eval_cache_hits: u64,
    /// Incremental-evaluation cache lookups that fell through to a fresh
    /// computation; 0 with [`SynthesisConfig::incremental`] off.
    pub eval_cache_misses: u64,
    /// Move applications undone by replaying the undo journal — every
    /// speculated candidate plus every pass step beyond the committed
    /// prefix.
    pub moves_rolled_back: u64,
    /// Peak approximate byte footprint of the undo journal (see
    /// [`UndoLog::bytes_peak`](crate::UndoLog::bytes_peak)). Aggregated by
    /// `max`, not sum, in [`absorb`](Self::absorb) — it is a high-water
    /// mark.
    pub undo_bytes_peak: u64,
    /// Large-neighborhood ruin→recreate iterations that actually destroyed
    /// a region (see [`SynthesisConfig::lns_iters`]); 0 with the LNS layer
    /// off.
    pub lns_ruins: u64,
    /// LNS iterations whose reconstruction strictly improved cost and was
    /// committed; the rest rolled back in O(edit size).
    pub lns_accepts: u64,
}

impl MoveStats {
    pub(crate) fn record(&mut self, mv: &Move) {
        match mv {
            Move::SetFuType { .. } | Move::SwapChild { .. } => self.applied_a += 1,
            Move::ResynthChild { .. } => self.applied_b += 1,
            // Rebanking serves both families (halve = share, double =
            // split); the stats bucket it with the sharing moves.
            Move::MergeFu { .. }
            | Move::RepackRegs { .. }
            | Move::MergeChildren { .. }
            | Move::RebankMem { .. } => self.applied_c += 1,
            Move::SplitFu { .. } | Move::DedicateRegs { .. } | Move::SplitChild { .. } => {
                self.applied_d += 1
            }
        }
    }

    /// Merge another stats record into this one.
    pub fn absorb(&mut self, other: &MoveStats) {
        self.evaluated += other.evaluated;
        self.rejected += other.rejected;
        self.applied_a += other.applied_a;
        self.applied_b += other.applied_b;
        self.applied_c += other.applied_c;
        self.applied_d += other.applied_d;
        self.passes += other.passes;
        self.configs += other.configs;
        self.configs_skipped += other.configs_skipped;
        self.eval_cache_hits += other.eval_cache_hits;
        self.eval_cache_misses += other.eval_cache_misses;
        self.moves_rolled_back += other.moves_rolled_back;
        self.undo_bytes_peak = self.undo_bytes_peak.max(other.undo_bytes_peak);
        self.lns_ruins += other.lns_ruins;
        self.lns_accepts += other.lns_accepts;
    }

    /// Merge the counters a nested move-*B* search contributes to its
    /// parent: evaluation and rollback work, but no commits, passes or
    /// configurations (those describe the child's own search).
    fn absorb_child(&mut self, child: &MoveStats) {
        self.evaluated += child.evaluated;
        self.rejected += child.rejected;
        self.eval_cache_hits += child.eval_cache_hits;
        self.eval_cache_misses += child.eval_cache_misses;
        self.moves_rolled_back += child.moves_rolled_back;
        self.undo_bytes_peak = self.undo_bytes_peak.max(child.undo_bytes_peak);
    }
}

/// Everything a nested move-*B* resynthesis depends on. Two requests with
/// equal keys run the identical inner search — same initial module, same
/// traces, same budgets — so they end in the same child and the same
/// counters (see DESIGN.md, "Resynthesis memo").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ResynthKey {
    /// The callee resynthesized; names the `_resyn` module and selects the
    /// library's complex-module candidates and the child's trace seed.
    callee: DfgId,
    /// Content of the callee's DFG, nested callees and memory shapes
    /// included — the parts moves edit in place (callee swaps, rebanking).
    content: u64,
    /// Ids of the nested callees in call order: the child's module tree
    /// refers to DFGs by id, which content alone does not pin down.
    nested: Vec<DfgId>,
    /// The derived window, relative to the child's start.
    arrivals: Option<Vec<u32>>,
    deadlines: Option<Vec<u32>>,
    /// [`OperatingPoint`] fields as bits.
    op: [u64; 4],
    /// Remaining recursion budget; with the top-level configuration it
    /// fixes the child budget (`child_budget` applied `depth` times over).
    depth: u32,
}

/// A finished nested resynthesis: the child (with its search cost bits)
/// or `None` when it was rejected, plus the inner search's counters.
#[derive(Clone, Debug)]
struct ResynthEntry {
    child: Option<(ChildKind, u64)>,
    stats: MoveStats,
}

/// Per-engine-tree memo of move-*B* resynthesis results.
///
/// One top-level [`Engine`] owns it; nested engines borrow it by move for
/// the duration of their search, and every parallel-scan worker keeps its
/// own. Entries are pure functions of their key, so which engine or thread
/// filled one never shows in a result.
#[derive(Debug, Default)]
pub(crate) struct ResynthMemo {
    entries: HashMap<ResynthKey, ResynthEntry>,
    /// Requests answered from `entries`.
    pub(crate) hits: u64,
    /// Requests that ran a nested search.
    pub(crate) misses: u64,
}

/// `id`'s nested callees, depth-first in node order (repeats kept).
fn nested_callees(h: &Hierarchy, id: DfgId, out: &mut Vec<DfgId>) {
    for (_, n) in h.dfg(id).nodes() {
        if let NodeKind::Hier { callee } = n.kind() {
            out.push(*callee);
            nested_callees(h, *callee, out);
        }
    }
}

/// Structural fingerprint of a child implementation (names excluded).
fn child_fingerprint(h: &Hierarchy, kind: &ChildKind) -> u64 {
    match kind {
        ChildKind::Single(s) => module_fingerprint(h, &s.built),
        ChildKind::Opaque { module, .. } => module_fingerprint(h, module),
    }
}

/// Shadow-mode check of a memo hit: the stored entry must equal a fresh
/// recomputation — child fingerprint, cost bits and counters.
///
/// # Panics
///
/// Panics on the first difference, naming the callee.
fn assert_memo_identical(
    h: &Hierarchy,
    callee: DfgId,
    stored: &ResynthEntry,
    fresh: &ResynthEntry,
) {
    let summary = |e: &ResynthEntry| {
        e.child
            .as_ref()
            .map(|(kind, cost)| (child_fingerprint(h, kind), *cost))
    };
    let (s, f) = (summary(stored), summary(fresh));
    assert!(
        s == f && stored.stats == fresh.stats,
        "resynthesis memo diverged for callee `{}`: stored (fingerprint, cost bits) {s:x?} \
         with {:?} != recomputed {f:x?} with {:?}",
        h.dfg(callee).name(),
        stored.stats,
        fresh.stats
    );
}

/// A worker's speculation outcome for one candidate in the parallel scan,
/// before the sequential replay attaches the move and decides whether the
/// serial budgets even reach the candidate.
struct Speculated {
    /// `Some((gain, resynth, fp, eval))` for a valid candidate; `None` for
    /// one rejected by validity checks.
    applied: Option<(f64, Option<ChildKind>, Option<FpTree>, Evaluation)>,
    /// The candidate's isolated stats delta (fresh counters per
    /// speculation), merged only if the replay reaches it.
    stats: MoveStats,
    verify_s: f64,
    eval_full_s: f64,
    eval_incr_s: f64,
    apply_s: f64,
}

/// Early-stop bookkeeping for the parallel scan: candidate outcomes
/// (valid/invalid) as they complete, and the serial budget walk run
/// incrementally over the contiguous completed prefix. A candidate's
/// outcome does not depend on scan order, so the walk reproduces exactly
/// what the sequential replay will conclude — just as soon as the data
/// exists rather than after every speculation finishes.
struct Frontier {
    /// `Some(valid)` once candidate `i` has been speculated.
    outcome: Vec<Option<bool>>,
    /// First in-order index the budget walk has not absorbed yet.
    next: usize,
    /// Valid candidates absorbed so far (serial `evaluated` counter).
    evaluated: usize,
    /// Invalid candidates absorbed so far (serial `rejected` counter).
    rejected: usize,
}

impl Frontier {
    /// Record candidate `i`'s outcome, then advance the in-order budget
    /// walk as far as completed outcomes allow. The budget check runs
    /// *before* each absorption — the same order as the serial scan and
    /// the replay — so when it trips, `stop` is lowered to the exact index
    /// the replay will break at, and every candidate below it already has
    /// a result.
    fn absorb(&mut self, i: usize, valid: bool, config: &SynthesisConfig, stop: &AtomicUsize) {
        self.outcome[i] = Some(valid);
        while self.next < self.outcome.len() {
            if self.evaluated >= config.candidate_limit
                || self.rejected >= 5 * config.candidate_limit
            {
                stop.store(self.next, Ordering::Relaxed);
                break;
            }
            let Some(v) = self.outcome[self.next] else {
                break;
            };
            if v {
                self.evaluated += 1;
            } else {
                self.rejected += 1;
            }
            self.next += 1;
        }
    }
}

/// A fully evaluated candidate application.
pub(crate) struct Applied {
    pub(crate) gain: f64,
    pub(crate) mv: Move,
    /// Move *B* only: the resynthesized implementation, kept so re-applying
    /// the winner (the scan rolled it back) does not re-run (and
    /// re-account) the recursive resynthesis.
    pub(crate) resynth: Option<ChildKind>,
    /// Fingerprint tree of the candidate's build (present iff caching is
    /// active).
    pub(crate) fp: Option<FpTree>,
    pub(crate) eval: Evaluation,
}

/// The per-configuration optimizer.
pub(crate) struct Engine<'a> {
    pub mlib: &'a ModuleLibrary,
    pub config: &'a SynthesisConfig,
    pub traces: TraceSet,
    /// Remaining move-*B* recursion budget.
    pub depth: u32,
    pub stats: MoveStats,
    /// Wall-clock spent in the paranoid verifier, seconds (0 when off).
    /// Kept off `MoveStats` so the stats stay `Eq`-comparable across runs.
    pub verify_s: f64,
    /// Incremental evaluation cache (unused with `config.incremental` and
    /// `config.shadow_eval` both off).
    pub cache: EvalCache,
    /// Wall-clock spent in full (uncached) search evaluations, seconds.
    /// Like `verify_s`, kept off `MoveStats` so the stats stay `Eq`.
    pub eval_full_s: f64,
    /// Wall-clock spent in cache-aware search evaluations, seconds.
    pub eval_incr_s: f64,
    /// Wall-clock spent applying moves, seconds: in-place apply, rollback
    /// and winner re-apply. Like `verify_s`, kept off `MoveStats` so the
    /// stats stay `Eq`.
    pub apply_s: f64,
    /// Wall-clock spent in large-neighborhood ruin→recreate refinement,
    /// seconds (0 with [`SynthesisConfig::lns_iters`] at 0). Like
    /// `verify_s`, kept off `MoveStats` so the stats stay `Eq`.
    pub lns_s: f64,
    /// Per-worker evaluation caches for the intra-config parallel candidate
    /// scan, persisted across scans (like `cache` persists across the
    /// serial scan's candidates). Empty until the first parallel scan runs;
    /// cache contents affect wall-clock only, never results.
    intra_caches: Vec<EvalCache>,
    /// Move-*B* resynthesis memo; lent to nested engines while they run.
    memo: ResynthMemo,
    /// Per-worker memos of the parallel scan, persisted across scans like
    /// `intra_caches`.
    intra_memos: Vec<ResynthMemo>,
}

impl<'a> Engine<'a> {
    pub fn new(
        mlib: &'a ModuleLibrary,
        config: &'a SynthesisConfig,
        traces: TraceSet,
        depth: u32,
    ) -> Self {
        Engine {
            mlib,
            config,
            traces,
            depth,
            stats: MoveStats::default(),
            verify_s: 0.0,
            cache: EvalCache::new(),
            eval_full_s: 0.0,
            eval_incr_s: 0.0,
            apply_s: 0.0,
            lns_s: 0.0,
            intra_caches: Vec::new(),
            memo: ResynthMemo::default(),
            intra_memos: Vec::new(),
        }
    }

    /// Resynthesis-memo `(hits, misses)` of this engine and its parallel
    /// scan workers.
    pub(crate) fn memo_counts(&self) -> (u64, u64) {
        std::iter::once(&self.memo)
            .chain(&self.intra_memos)
            .fold((0, 0), |(h, m), memo| (h + memo.hits, m + memo.misses))
    }

    /// Worker threads for the intra-config candidate scan: the
    /// [`SynthesisConfig::intra_parallelism`] knob resolved to a count
    /// (`0` ⇒ available cores).
    fn intra_workers(&self) -> usize {
        hsyn_util::effective_threads(match self.config.intra_parallelism {
            0 => None,
            n => Some(n),
        })
    }

    /// Whether evaluations go through the incremental cache (shadow mode
    /// exercises the cached path too, so it can be diffed).
    pub(crate) fn caching(&self) -> bool {
        self.config.incremental || self.config.shadow_eval
    }

    /// Paranoid mode: verify every cross-layer invariant of `dp`, failing
    /// on the first error-severity diagnostic. A no-op unless
    /// [`SynthesisConfig::paranoid`] is set; observation-only on legal
    /// designs (it never mutates anything, only accumulates `verify_s`).
    /// Cooperative cancellation checkpoint: error out if the run's token
    /// (when one is configured) has tripped. Polled at pass, move-step,
    /// and LNS-iteration boundaries — coarse enough to be free, fine
    /// enough that a cancelled job stops within one candidate scan.
    pub(crate) fn check_cancel(&self) -> Result<(), Abort> {
        match &self.config.cancel {
            Some(t) if t.is_cancelled() => Err(Abort::Cancelled),
            _ => Ok(()),
        }
    }

    pub(crate) fn paranoid_check(
        &mut self,
        dp: &DesignPoint,
        after: Option<&Move>,
    ) -> Result<(), Box<ParanoidViolation>> {
        if !self.config.paranoid {
            return Ok(());
        }
        let t0 = Instant::now();
        let diags = verify_design(&DesignView {
            hierarchy: &dp.hierarchy,
            module: &dp.top.built,
            lib: &self.mlib.simple,
            vdd: dp.op.vdd,
            clk_ns: dp.op.clk_ref_ns,
            sampling_period: dp.top.core.deadline,
        });
        self.verify_s += t0.elapsed().as_secs_f64();
        if error_count(&diags) == 0 {
            return Ok(());
        }
        let diagnostic = diags
            .into_iter()
            .find(|d| d.severity == Severity::Error)
            .expect("error_count counted at least one error");
        Err(Box::new(ParanoidViolation {
            after_move: after.map(|m| m.to_string()),
            diagnostic,
        }))
    }

    fn objective(&self) -> Objective {
        self.config.objective
    }

    /// Evaluate `dp` for the search loop — through the incremental cache
    /// when caching is active (`fp` is then `dp`'s fingerprint tree), with
    /// a full recomputation otherwise. In shadow mode both paths run and
    /// any bit-level divergence panics, naming the offending move.
    pub(crate) fn eval(
        &mut self,
        dp: &DesignPoint,
        fp: Option<&FpTree>,
        mv: Option<&Move>,
    ) -> Evaluation {
        let lib = &self.mlib.simple;
        let objective = self.objective();
        let Some(fp) = fp else {
            let t0 = Instant::now();
            let eval = evaluate_search(dp, lib, &self.traces, objective);
            self.eval_full_s += t0.elapsed().as_secs_f64();
            return eval;
        };
        let (hits0, misses0) = (self.cache.hits(), self.cache.misses());
        let t0 = Instant::now();
        let incr = evaluate_search_cached(dp, lib, &self.traces, objective, fp, &mut self.cache);
        self.eval_incr_s += t0.elapsed().as_secs_f64();
        self.stats.eval_cache_hits += self.cache.hits() - hits0;
        self.stats.eval_cache_misses += self.cache.misses() - misses0;
        if self.config.shadow_eval {
            let t0 = Instant::now();
            let full = evaluate_search(dp, lib, &self.traces, objective);
            self.eval_full_s += t0.elapsed().as_secs_f64();
            assert_shadow_identical(&incr, &full, mv);
        }
        incr
    }

    /// Apply + evaluate one candidate: speculate the move **in place** on
    /// the live design, evaluate, then roll the journal back — `dp` is
    /// bit-identical to its pre-call state on return, success or failure;
    /// `None` if the move is invalid. `cur_fp` is the fingerprint tree of
    /// `dp` (present iff caching is active); the candidate's tree is
    /// derived from it by re-fingerprinting only the move's dirty subtree
    /// and recombining its ancestors. Returns the resynthesized child
    /// implementation (move *B* only; re-applying the winner must not
    /// re-run resynthesis), the candidate's fingerprint tree, and its
    /// evaluation.
    fn try_move_tx(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: Option<&FpTree>,
        mv: &Move,
        log: &mut UndoLog,
    ) -> Option<(Option<ChildKind>, Option<FpTree>, Evaluation)> {
        let depth = self.depth;
        let mut resynth_kind: Option<ChildKind> = None;
        if let Move::ResynthChild { path, child } = mv {
            if depth == 0 {
                return None;
            }
            resynth_kind = self.resynthesize_child(dp, path, *child);
            resynth_kind.as_ref()?;
        }
        let mark = log.mark();
        let t0 = Instant::now();
        let outcome = apply_in_place(dp, mv, self.mlib, &mut |_, _, _| resynth_kind.clone(), log);
        self.apply_s += t0.elapsed().as_secs_f64();
        match outcome {
            Ok(dirty) => {
                self.stats.evaluated += 1;
                let fp = cur_fp
                    .map(|old| refresh_fingerprint_tree(&dp.hierarchy, &dp.top.built, old, &dirty));
                let eval = self.eval(dp, fp.as_ref(), Some(mv));
                let t1 = Instant::now();
                log.rollback_to(dp, mark);
                self.apply_s += t1.elapsed().as_secs_f64();
                self.stats.moves_rolled_back += 1;
                // Rollback-validity hook (paranoid mode): the retained
                // fingerprint tree must still describe the rolled-back
                // design, or every later `EvalCache` hit keyed through it
                // would silently return results for a different structure.
                if self.config.paranoid {
                    if let Some(old) = cur_fp {
                        let t2 = Instant::now();
                        let retained = old.at(&dirty).map(|t| t.fp);
                        let recomputed = fingerprint_at(&dp.hierarchy, &dp.top.built, &dirty);
                        self.verify_s += t2.elapsed().as_secs_f64();
                        assert_eq!(
                            retained, recomputed,
                            "rollback of move {mv} failed to restore the dirty subtree: \
                             the undo journal missed an edit"
                        );
                    }
                }
                Some((resynth_kind, fp, eval))
            }
            Err(_) => {
                self.stats.rejected += 1;
                None
            }
        }
    }

    /// Evaluate the top candidates by heuristic score and return the best
    /// by true gain (possibly negative). Candidates are speculated in place
    /// through `undo` and rolled back, so `dp` and the journal are
    /// unchanged on return.
    ///
    /// Rejections and evaluations are budgeted separately: up to
    /// `candidate_limit` candidates are fully evaluated, and the scan stops
    /// early only after `5 × candidate_limit` *rejections*. (A single
    /// shared attempt counter could previously exhaust the scan on
    /// rejected candidates before evaluating any valid one.)
    pub(crate) fn best_from(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: Option<&FpTree>,
        base_cost: f64,
        mut cands: Vec<Candidate>,
        undo: &mut UndoLog,
    ) -> Option<Applied> {
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
        // The scan can fan the speculation out across worker threads.
        if cands.len() > 1 {
            let workers = self.intra_workers();
            if workers > 1 {
                return self.best_from_parallel(dp, cur_fp, base_cost, cands, workers);
            }
        }
        let mut best: Option<Applied> = None;
        let mut evaluated = 0usize;
        let mut rejected = 0usize;
        for (_, mv) in cands {
            if evaluated >= self.config.candidate_limit
                || rejected >= 5 * self.config.candidate_limit
            {
                break;
            }
            let applied = self
                .try_move_tx(dp, cur_fp, &mv, undo)
                .map(|(resynth, fp, eval)| Applied {
                    gain: base_cost - eval.cost,
                    mv,
                    resynth,
                    fp,
                    eval,
                });
            match applied {
                Some(a) => {
                    evaluated += 1;
                    if best.as_ref().is_none_or(|b| a.gain > b.gain) {
                        best = Some(a);
                    }
                }
                None => rejected += 1,
            }
        }
        best
    }

    /// The intra-config parallel candidate scan.
    ///
    /// Up to `workers` threads claim candidates from the sorted list
    /// through an atomic counter; each worker speculates on its **own**
    /// replica of the base design through its own undo journal (cloned
    /// once per worker, restored by rollback after every speculation), so
    /// the shared base is never touched. A sequential replay in candidate
    /// order then re-imposes the serial scan's evaluated/rejected budgets,
    /// per-candidate stats accounting, and first-best winner tiebreak.
    ///
    /// Byte-identical to the serial scan: every speculation fully rolls
    /// back, and evaluations are bit-exact regardless of cache state
    /// (see [`EvalCache`]), so a candidate's outcome is independent of the
    /// order — and the replica — it was speculated on. Candidates past the
    /// serial stop point are discarded wholesale, stats included, exactly
    /// as if they were never scanned. Only wall-clock changes (enforced at
    /// 1/2/4 workers by `tests/intra_determinism.rs`).
    ///
    /// Wasted speculation is bounded by early stop: outcomes are
    /// valid/invalid regardless of scan order, so as completed candidates
    /// form a contiguous in-order frontier, the serial budget walk can run
    /// over them incrementally — the moment it trips, `stop` drops to the
    /// frontier and no worker claims past it. Overshoot is limited to the
    /// candidates already in flight (< one per worker), so total work
    /// tracks the serial scan instead of the worst-case prefix.
    fn best_from_parallel(
        &mut self,
        dp: &DesignPoint,
        cur_fp: Option<&FpTree>,
        base_cost: f64,
        cands: Vec<Candidate>,
        workers: usize,
    ) -> Option<Applied> {
        // The serial scan examines at most `6 × candidate_limit − 1`
        // candidates before a budget trips (each examined candidate counts
        // toward one of the two budgets); speculating past that bound is
        // pure waste.
        let prefix_len = cands.len().min(6 * self.config.candidate_limit);
        let workers = workers.min(prefix_len);
        let next = AtomicUsize::new(0);
        // First index no worker should claim. Starts at the prefix bound
        // and only ever shrinks, to the frontier position where the serial
        // budgets trip (see `Frontier::absorb`).
        let stop = AtomicUsize::new(prefix_len);
        let frontier = Mutex::new(Frontier {
            outcome: vec![None; prefix_len],
            next: 0,
            evaluated: 0,
            rejected: 0,
        });
        let slots: Vec<Mutex<Option<Speculated>>> =
            (0..prefix_len).map(|_| Mutex::new(None)).collect();
        // Per-worker evaluation caches persist across scans, like the
        // serial engine's single cache persists across candidates.
        let mut caches = std::mem::take(&mut self.intra_caches);
        caches.resize_with(workers, EvalCache::new);
        let cache_slots: Vec<Mutex<EvalCache>> = caches.into_iter().map(Mutex::new).collect();
        let mut memos = std::mem::take(&mut self.intra_memos);
        memos.resize_with(workers, ResynthMemo::default);
        let memo_slots: Vec<Mutex<ResynthMemo>> = memos.into_iter().map(Mutex::new).collect();
        let (mlib, config, depth) = (self.mlib, self.config, self.depth);
        let traces = &self.traces;
        let cand_prefix = &cands[..prefix_len];
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (next, stop, frontier) = (&next, &stop, &frontier);
                let (slots, cache_slots, memo_slots) = (&slots, &cache_slots, &memo_slots);
                scope.spawn(move || {
                    let mut engine = Engine::new(mlib, config, traces.clone(), depth);
                    engine.cache = std::mem::take(&mut *cache_slots[w].lock().expect("cache slot"));
                    engine.memo = std::mem::take(&mut *memo_slots[w].lock().expect("memo slot"));
                    let mut work = dp.clone();
                    let mut log = UndoLog::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let applied = engine
                            .try_move_tx(&mut work, cur_fp, &cand_prefix[i].1, &mut log)
                            .map(|(resynth, fp, eval)| (base_cost - eval.cost, resynth, fp, eval));
                        let valid = applied.is_some();
                        *slots[i].lock().expect("result slot") = Some(Speculated {
                            applied,
                            stats: std::mem::take(&mut engine.stats),
                            verify_s: std::mem::take(&mut engine.verify_s),
                            eval_full_s: std::mem::take(&mut engine.eval_full_s),
                            eval_incr_s: std::mem::take(&mut engine.eval_incr_s),
                            apply_s: std::mem::take(&mut engine.apply_s),
                        });
                        frontier
                            .lock()
                            .expect("frontier")
                            .absorb(i, valid, config, stop);
                    }
                    *cache_slots[w].lock().expect("cache slot") = std::mem::take(&mut engine.cache);
                    *memo_slots[w].lock().expect("memo slot") = std::mem::take(&mut engine.memo);
                });
            }
        });
        self.intra_caches = cache_slots
            .into_iter()
            .map(|m| m.into_inner().expect("cache slot"))
            .collect();
        self.intra_memos = memo_slots
            .into_iter()
            .map(|m| m.into_inner().expect("memo slot"))
            .collect();
        // Sequential replay in candidate order: identical budgets, stats
        // merge, and winner selection (strict improvement ⇒ first best
        // wins) as the serial scan.
        let mut best: Option<Applied> = None;
        let mut evaluated = 0usize;
        let mut rejected = 0usize;
        for ((_, mv), slot) in cands.into_iter().zip(slots) {
            if evaluated >= self.config.candidate_limit
                || rejected >= 5 * self.config.candidate_limit
            {
                break;
            }
            let outcome = slot
                .into_inner()
                .expect("result slot")
                .expect("workers fill every claimed slot");
            self.stats.absorb(&outcome.stats);
            self.verify_s += outcome.verify_s;
            self.eval_full_s += outcome.eval_full_s;
            self.eval_incr_s += outcome.eval_incr_s;
            self.apply_s += outcome.apply_s;
            match outcome.applied {
                Some((gain, resynth, fp, eval)) => {
                    evaluated += 1;
                    let a = Applied {
                        gain,
                        mv,
                        resynth,
                        fp,
                        eval,
                    };
                    if best.as_ref().is_none_or(|b| a.gain > b.gain) {
                        best = Some(a);
                    }
                }
                None => rejected += 1,
            }
        }
        best
    }

    /// `GET_BEST_TYPE_A_AND_B_MOVE` (Figure 5 wrapped into one selector).
    fn best_ab(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: Option<&FpTree>,
        base_cost: f64,
        undo: &mut UndoLog,
    ) -> Option<Applied> {
        let families = self.config.moves;
        if !families.a && !families.b {
            return None;
        }
        let mut cands = selection_candidates(
            dp,
            self.mlib,
            self.objective(),
            self.depth > 0 && families.b,
        );
        if !families.a {
            cands.retain(|(_, mv)| matches!(mv, Move::ResynthChild { .. }));
        }
        self.best_from(dp, cur_fp, base_cost, cands, undo)
    }

    /// `GET_BEST_RESOURCE_SHARING_MOVE`, falling back to
    /// `GET_BEST_RESOURCE_SPLITTING_MOVE` when sharing only degrades
    /// (Figure 4, lines 8–10).
    fn best_cd(
        &mut self,
        dp: &mut DesignPoint,
        cur_fp: Option<&FpTree>,
        base_cost: f64,
        undo: &mut UndoLog,
    ) -> Option<Applied> {
        let families = self.config.moves;
        let sharing = if families.c {
            let cands = sharing_candidates(dp, self.mlib, self.objective());
            self.best_from(dp, cur_fp, base_cost, cands, undo)
        } else {
            None
        };
        match sharing {
            Some(s) if s.gain > 0.0 => Some(s),
            other => {
                let splitting = if families.d {
                    let cands = splitting_candidates(dp, self.mlib, self.objective());
                    self.best_from(dp, cur_fp, base_cost, cands, undo)
                } else {
                    None
                };
                match (other, splitting) {
                    (Some(a), Some(b)) => Some(if a.gain >= b.gain { a } else { b }),
                    (a, b) => a.or(b),
                }
            }
        }
    }

    /// One full variable-depth optimization of `initial` at its operating
    /// point (Figure 4 lines 3–16), then LNS refinement when
    /// [`SynthesisConfig::lns_iters`] asks for it. Returns the best design
    /// seen.
    ///
    /// # Errors
    ///
    /// In paranoid mode, the first cross-layer invariant violation aborts
    /// the configuration, naming the offending move. Never errors with
    /// paranoid mode off.
    pub(crate) fn optimize(
        &mut self,
        initial: DesignPoint,
    ) -> Result<(DesignPoint, Evaluation), Abort> {
        let (dp, eval) = self.optimize_transactional(initial)?;
        if self.config.lns_iters == 0 {
            return Ok((dp, eval));
        }
        let t0 = Instant::now();
        let out = self.lns_refine(dp, eval);
        self.lns_s += t0.elapsed().as_secs_f64();
        out
    }

    /// The search loop: one live design, mutated in place.
    ///
    /// Per step, every candidate is speculated and rolled back inside the
    /// pass journal ([`Engine::try_move_tx`]); the winner is then
    /// re-applied (reusing its saved move-*B* implementation, so recursive
    /// resynthesis runs exactly once per evaluation). The pass history is
    /// `(Evaluation, FpTree)` pairs plus journal marks: committing the
    /// best-cumulative-gain prefix = rolling the journal back to the mark
    /// taken before the first rejected step.
    fn optimize_transactional(
        &mut self,
        initial: DesignPoint,
    ) -> Result<(DesignPoint, Evaluation), Abort> {
        self.paranoid_check(&initial, None)?;
        let mut cur = initial;
        let mut cur_fp = self
            .caching()
            .then(|| fingerprint_tree(&cur.hierarchy, &cur.top.built));
        let mut cur_eval = self.eval(&cur, cur_fp.as_ref(), None);
        let mut best = cur.clone();
        let mut best_eval = cur_eval;

        let op_count = cur.hierarchy.dfg(cur.top.core.dfg).schedulable_count();
        let max_moves = self
            .config
            .max_moves_per_pass
            .unwrap_or_else(|| (op_count / 2).clamp(8, 40));

        for _pass in 0..self.config.max_passes {
            self.check_cancel()?;
            self.stats.passes += 1;
            let mut log = UndoLog::new();
            // history[k]: evaluation + fingerprint tree after k committed
            // steps; step_marks[k]: journal position before step k+1.
            let mut history: Vec<(Evaluation, Option<FpTree>)> = vec![(cur_eval, cur_fp.clone())];
            let mut step_marks: Vec<UndoMark> = Vec::new();
            let mut seq_moves: Vec<Move> = Vec::new();
            for _ in 0..max_moves {
                self.check_cancel()?;
                let (work_eval, work_fp) = history.last().expect("non-empty");
                let base = work_eval.cost;
                let m1 = self.best_ab(&mut cur, work_fp.as_ref(), base, &mut log);
                let m3 = self.best_cd(&mut cur, work_fp.as_ref(), base, &mut log);
                let chosen = match (m1, m3) {
                    (Some(a), Some(b)) => Some(if a.gain >= b.gain { a } else { b }),
                    (a, b) => a.or(b),
                };
                let Some(chosen) = chosen else { break };
                // Re-apply the winner (the scan rolled it back).
                let mark = log.mark();
                let mut saved = chosen.resynth;
                let t0 = Instant::now();
                apply_in_place(
                    &mut cur,
                    &chosen.mv,
                    self.mlib,
                    &mut |_, _, _| saved.take(),
                    &mut log,
                )
                .expect("re-apply of a just-validated move on the identical design");
                self.apply_s += t0.elapsed().as_secs_f64();
                self.paranoid_check(&cur, Some(&chosen.mv))?;
                seq_moves.push(chosen.mv);
                step_marks.push(mark);
                history.push((chosen.eval, chosen.fp));
            }
            // Commit the best-cumulative-gain prefix; unwind the rest.
            let (best_idx, _) = history
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.cost.total_cmp(&b.0.cost))
                .expect("non-empty");
            let pass_gain = history[0].0.cost - history[best_idx].0.cost;
            self.stats.undo_bytes_peak = self.stats.undo_bytes_peak.max(log.bytes_peak() as u64);
            if best_idx == 0 || pass_gain <= 1e-9 {
                // Reject the whole pass: unwind every applied step.
                let t0 = Instant::now();
                log.rollback_all(&mut cur);
                self.apply_s += t0.elapsed().as_secs_f64();
                self.stats.moves_rolled_back += seq_moves.len() as u64;
                break;
            }
            for mv in &seq_moves[..best_idx] {
                self.stats.record(mv);
            }
            if best_idx < seq_moves.len() {
                let t0 = Instant::now();
                log.rollback_to(&mut cur, step_marks[best_idx]);
                self.apply_s += t0.elapsed().as_secs_f64();
                self.stats.moves_rolled_back += (seq_moves.len() - best_idx) as u64;
            }
            let (committed_eval, committed_fp) = history.swap_remove(best_idx);
            cur_eval = committed_eval;
            cur_fp = committed_fp;
            if cur_eval.cost < best_eval.cost {
                best = cur.clone();
                best_eval = cur_eval;
            }
        }
        Ok((best, best_eval))
    }

    /// Move *B*: derive the child's slack window from the parent schedule
    /// ("constraint derivation"), then run a bounded recursive synthesis of
    /// the callee DFG under that window ("resynthesis").
    fn resynthesize_child(
        &mut self,
        dp: &DesignPoint,
        path: &[usize],
        child_idx: usize,
    ) -> Option<ChildKind> {
        let parent = dp.top.at(path);
        let child = parent.children.get(child_idx)?;
        let g = dp.hierarchy.dfg(parent.core.dfg);
        // Single-callee children only (merged modules are not resynthesized).
        let mut callee = None;
        for &n in &child.nodes {
            match g.node(n).kind() {
                NodeKind::Hier { callee: c } => {
                    if *callee.get_or_insert(*c) != *c {
                        return None;
                    }
                }
                _ => return None,
            }
        }
        let callee = callee?;

        // Constraint derivation: intersect the windows of all nodes served.
        // The parent schedules its children under exactly the context it
        // relinks with — one shared helper, so the two can never drift.
        let lib = &self.mlib.simple;
        let ctx = parent.core.build_ctx(lib, &dp.op);
        let mut arrivals: Option<Vec<u32>> = None;
        let mut deadlines: Option<Vec<u32>> = None;
        for &n in &child.nodes {
            let w = window_of(&dp.hierarchy, &parent.built, 0, &ctx, n);
            // The module start is when its first inputs arrive; express the
            // window relative to the node's own start (profiles are
            // start-relative).
            let base = w.input_arrivals.iter().copied().min().unwrap_or(0);
            let rel_in: Vec<u32> = w.input_arrivals.iter().map(|&a| a - base).collect();
            let rel_out: Vec<u32> = w
                .output_deadlines
                .iter()
                .map(|&d| d.saturating_sub(base))
                .collect();
            arrivals = Some(match arrivals {
                None => rel_in,
                Some(prev) => prev.iter().zip(&rel_in).map(|(&a, &b)| a.max(b)).collect(),
            });
            deadlines = Some(match deadlines {
                None => rel_out,
                Some(prev) => prev.iter().zip(&rel_out).map(|(&a, &b)| a.min(b)).collect(),
            });
        }

        // Resynthesis: bounded recursive synthesis under the window, run
        // once per distinct key and replayed from the memo afterwards.
        let h = &dp.hierarchy;
        let mut nested = Vec::new();
        nested_callees(h, callee, &mut nested);
        let key = ResynthKey {
            callee,
            content: dfg_fingerprint(h, callee),
            nested,
            arrivals,
            deadlines,
            op: [
                dp.op.vdd.to_bits(),
                dp.op.clk_ref_ns.to_bits(),
                dp.op.period_ns.to_bits(),
                u64::from(dp.op.sampling_cycles),
            ],
            depth: self.depth,
        };
        let entry = match self.memo.entries.get(&key) {
            Some(stored) => {
                self.memo.hits += 1;
                let stored = stored.clone();
                if self.config.shadow_eval {
                    // Recompute against an empty memo, so the check does
                    // not lean on entries it is meant to audit.
                    if let Some(fresh) = self.run_child(dp, &key, &mut ResynthMemo::default()) {
                        assert_memo_identical(h, callee, &stored, &fresh);
                    }
                }
                stored
            }
            None => {
                self.memo.misses += 1;
                let mut memo = std::mem::take(&mut self.memo);
                let fresh = self.run_child(dp, &key, &mut memo);
                self.memo = memo;
                // A cancelled search is not stored; the parent loop
                // re-checks the token at its next step boundary.
                let fresh = fresh?;
                self.memo.entries.insert(key, fresh.clone());
                fresh
            }
        };
        self.stats.absorb_child(&entry.stats);
        entry.child.map(|(kind, _)| kind)
    }

    /// One nested resynthesis search for `key`, lending `memo` to the inner
    /// engine; `None` when the search was cancelled. The inner engine's
    /// timers are folded into this engine's; its counters are returned in
    /// the entry, for the caller to replay.
    fn run_child(
        &mut self,
        dp: &DesignPoint,
        key: &ResynthKey,
        memo: &mut ResynthMemo,
    ) -> Option<ResynthEntry> {
        let callee = key.callee;
        let Ok(initial) = initial_module_with_window(
            &dp.hierarchy,
            callee,
            self.mlib,
            &dp.op,
            key.arrivals.clone(),
            key.deadlines.clone(),
            &format!("{}_resyn", dp.hierarchy.dfg(callee).name()),
        ) else {
            return Some(ResynthEntry {
                child: None,
                stats: MoveStats::default(),
            });
        };
        let in_count = dp.hierarchy.dfg(callee).input_count();
        let child_traces = dsp_default(
            in_count,
            self.config.eval_trace_len.min(24),
            self.config.width,
            self.config.seed ^ (callee.index() as u64).wrapping_mul(0x9e37_79b9),
        );
        let inner_cfg = self.config.child_budget();
        let mut inner = Engine::new(self.mlib, &inner_cfg, child_traces, self.depth - 1);
        inner.memo = std::mem::take(memo);
        let child_dp = DesignPoint {
            hierarchy: dp.hierarchy.clone(),
            op: OperatingPoint {
                // The child's deadline lives in its core; the sampling-cycles
                // field only feeds power normalization during inner search.
                ..dp.op
            },
            top: initial,
        };
        let result = inner.optimize(child_dp);
        *memo = std::mem::take(&mut inner.memo);
        self.verify_s += inner.verify_s;
        self.eval_full_s += inner.eval_full_s;
        self.eval_incr_s += inner.eval_incr_s;
        self.apply_s += inner.apply_s;
        self.lns_s += inner.lns_s;
        let child = match result {
            Ok((optimized, eval)) => Some((
                ChildKind::Single(Box::new(optimized.top)),
                eval.cost.to_bits(),
            )),
            // A child verifier failure simply rejects this move-B candidate.
            Err(Abort::Paranoid(_)) => None,
            Err(Abort::Cancelled) => return None,
        };
        Some(ResynthEntry {
            child,
            stats: inner.stats,
        })
    }
}

/// Every float of an [`Evaluation`], labeled — the shadow-mode comparison
/// surface.
fn eval_fields(e: &Evaluation) -> [(&'static str, f64); 17] {
    let a = &e.area;
    let p = &e.power;
    let b = &p.energy_breakdown;
    [
        ("area.fu", a.fu),
        ("area.reg", a.reg),
        ("area.mux", a.mux),
        ("area.wire", a.wire),
        ("area.controller", a.controller),
        ("area.subs", a.subs),
        ("energy.fu", b.fu),
        ("energy.reg", b.reg),
        ("energy.mux", b.mux),
        ("energy.wire", b.wire),
        ("energy.controller", b.controller),
        ("energy.clock", b.clock),
        ("energy.subs", b.subs),
        ("power.energy_per_iteration", p.energy_per_iteration),
        ("power.power", p.power),
        ("power.vdd", p.vdd),
        ("cost", e.cost),
    ]
}

/// Shadow-mode diff: the cached evaluation must equal the full
/// recomputation bit-for-bit (`f64::to_bits`, not an epsilon). `mv` is the
/// move that produced the evaluated design — `None` at a configuration's
/// initial design.
///
/// # Panics
///
/// Panics on the first diverging field, naming the move, the module path it
/// edited, and both bit patterns.
fn assert_shadow_identical(incr: &Evaluation, full: &Evaluation, mv: Option<&Move>) {
    for ((name, i), (_, f)) in eval_fields(incr).iter().zip(eval_fields(full).iter()) {
        if i.to_bits() != f.to_bits() {
            let origin = match mv {
                Some(mv) => format!(
                    "after move {mv} (dirty module path {:?})",
                    crate::moves::dirty_path(mv)
                ),
                None => "at the initial design".to_owned(),
            };
            panic!(
                "shadow evaluation diverged {origin}: {name} cached {i:?} ({:#018x}) != full {f:?} ({:#018x})",
                i.to_bits(),
                f.to_bits()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::initial_solution;
    use crate::moves::Candidate;
    use hsyn_dfg::benchmarks;
    use hsyn_lib::papers::table1_library;
    use hsyn_rtl::ModuleLibrary;

    fn paulin_fixture() -> (DesignPoint, ModuleLibrary, TraceSet) {
        let b = benchmarks::paulin();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let op =
            OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 10_000.0);
        let top = initial_solution(&b.hierarchy, &mlib, &op).expect("paulin builds");
        let traces = dsp_default(b.hierarchy.dfg(b.hierarchy.top()).input_count(), 4, 16, 1);
        let dp = DesignPoint {
            hierarchy: b.hierarchy.clone(),
            op,
            top,
        };
        (dp, mlib, traces)
    }

    /// Regression for the `best_from` bailout: before the evaluated/rejected
    /// budgets were split, a single shared attempt counter
    /// (`attempts >= 5 × candidate_limit`, counting *both* kinds) could
    /// exhaust the scan on rejected candidates and stop before evaluating a
    /// valid lower-scored one. With `candidate_limit = 2`, one valid
    /// candidate followed by nine rejecting ones used to spend the whole
    /// budget (1 + 9 = 10 ≥ 10); the trailing valid candidate was never
    /// evaluated.
    #[test]
    fn rejections_do_not_starve_valid_candidates() {
        let (mut dp, mlib, traces) = paulin_fixture();
        let mut config = SynthesisConfig::new(Objective::Area);
        config.candidate_limit = 2;
        config.incremental = false;
        let mut engine = Engine::new(&mlib, &config, traces, 0);
        let base = engine.eval(&dp, None, None);
        // Group 999 does not exist, so these nine are rejected by `apply`;
        // RepackRegs is valid (the initial register policy is dedicated).
        let stale_type = dp.top.core.fu_groups[0].fu_type;
        let mut cands: Vec<Candidate> = vec![(100.0, Move::RepackRegs { path: vec![] })];
        for i in 0..9 {
            cands.push((
                90.0 - i as f64,
                Move::SetFuType {
                    path: vec![],
                    group: 999,
                    fu_type: stale_type,
                },
            ));
        }
        cands.push((1.0, Move::RepackRegs { path: vec![] }));
        let mut log = UndoLog::new();
        let best = engine.best_from(&mut dp, None, base.cost, cands, &mut log);
        assert!(best.is_some(), "a valid candidate must be found");
        assert_eq!(
            (engine.stats.evaluated, engine.stats.rejected),
            (2, 9),
            "both valid candidates must be evaluated despite nine rejections"
        );
        assert_eq!(engine.stats.moves_rolled_back, 2);
        assert!(log.is_empty(), "scan must roll every speculation back");
    }

    /// dct's initial design at its first operating point, for move-*B*
    /// requests against the top module's children.
    fn dct_fixture() -> (DesignPoint, ModuleLibrary, TraceSet) {
        let b = benchmarks::dct();
        let mlib = ModuleLibrary::from_simple(table1_library());
        let op =
            OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 10_000.0);
        let top = initial_solution(&b.hierarchy, &mlib, &op).expect("dct builds");
        let traces = dsp_default(b.hierarchy.dfg(b.hierarchy.top()).input_count(), 4, 16, 1);
        let dp = DesignPoint {
            hierarchy: b.hierarchy.clone(),
            op,
            top,
        };
        (dp, mlib, traces)
    }

    #[test]
    fn cancelled_resynthesis_leaves_no_memo_entry() {
        let (dp, mlib, traces) = dct_fixture();
        let token = crate::CancelToken::new();
        token.cancel();
        let mut cancelled_cfg = SynthesisConfig::new(Objective::Power);
        cancelled_cfg.cancel = Some(token);
        let mut engine = Engine::new(&mlib, &cancelled_cfg, traces.clone(), 1);
        assert!(engine.resynthesize_child(&dp, &[], 0).is_none());
        assert_eq!((engine.memo.hits, engine.memo.misses), (0, 1));
        assert!(
            engine.memo.entries.is_empty(),
            "a cancelled search was memoized"
        );

        // The same request without the token runs, is stored, then hits.
        let config = SynthesisConfig::new(Objective::Power);
        let mut engine2 = Engine::new(&mlib, &config, traces, 1);
        engine2.memo = std::mem::take(&mut engine.memo);
        let first = engine2
            .resynthesize_child(&dp, &[], 0)
            .expect("dct child resynthesizes");
        let after_miss = engine2.stats;
        let again = engine2.resynthesize_child(&dp, &[], 0).expect("memo hit");
        assert_eq!((engine2.memo.hits, engine2.memo.misses), (1, 2));
        assert_eq!(engine2.memo.entries.len(), 1);
        assert_eq!(
            child_fingerprint(&dp.hierarchy, &first),
            child_fingerprint(&dp.hierarchy, &again)
        );
        // The hit replays the miss's counters exactly.
        assert!(after_miss.evaluated > 0);
        assert_eq!(engine2.stats.evaluated, 2 * after_miss.evaluated);
        assert_eq!(
            engine2.stats.eval_cache_misses,
            2 * after_miss.eval_cache_misses
        );
    }

    /// Every keyed move-*B* request is exactly one memo hit or miss, and
    /// the requests of a whole search go through the memo at every depth.
    #[test]
    fn every_resynthesis_request_is_one_hit_or_miss() {
        let (dp, mlib, traces) = dct_fixture();
        let mut config = SynthesisConfig::new(Objective::Power);
        config.shadow_eval = true;
        let mut engine = Engine::new(&mlib, &config, traces, config.resynth_depth);
        let children = dp.top.children.len();
        for round in 1..=2u64 {
            for c in 0..children {
                engine.resynthesize_child(&dp, &[], c);
            }
            assert_eq!(
                engine.memo.hits + engine.memo.misses,
                round * children as u64
            );
        }
        // The second round asks only keys the first one stored.
        assert!(engine.memo.hits >= children as u64);
        let (hits, misses) = engine.memo_counts();
        engine.optimize(dp).expect("dct optimizes");
        let (h, m) = engine.memo_counts();
        assert!(h > hits && m >= misses, "the search itself uses the memo");
    }

    /// Shadow mode turns a memo entry that no longer matches a fresh
    /// recomputation into a panic naming the callee.
    #[test]
    #[should_panic(expected = "resynthesis memo diverged for callee")]
    fn memo_divergence_panics() {
        let (dp, _, _) = dct_fixture();
        let stored = ResynthEntry {
            child: None,
            stats: MoveStats::default(),
        };
        let mut fresh = stored.clone();
        fresh.stats.evaluated = 1;
        assert_memo_identical(&dp.hierarchy, dp.hierarchy.top(), &stored, &fresh);
    }

    /// Shadow mode turns a cache/full divergence into a panic naming the
    /// offending move and field.
    #[test]
    #[should_panic(expected = "shadow evaluation diverged after move")]
    fn shadow_divergence_panics() {
        let (dp, mlib, traces) = paulin_fixture();
        let incr = evaluate_search(&dp, &mlib.simple, &traces, Objective::Area);
        let mut full = incr;
        full.area.fu += 1.0;
        assert_shadow_identical(&incr, &full, Some(&Move::RepackRegs { path: vec![] }));
    }
}
