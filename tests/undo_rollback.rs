//! Property tests for the move engine's undo journal: random move sequences
//! speculated in place on random behaviors must roll back bit-exactly
//! (the structural fingerprint of the whole design returns to its value at
//! every journal mark), and full synthesis with the rollback-validity and
//! shadow-evaluation checks on must be byte-identical — through the
//! canonical [`SynthesisReport::result_json`] rendering — to the default
//! run. Cases come from a fixed seed so failures reproduce exactly; set
//! `HSYN_TEST_ITERS` to widen the sweep locally.

mod common;

use common::{arb_behavior, test_iters};
use hsyn::core::{
    apply_in_place, initial_solution, selection_candidates, sharing_candidates,
    splitting_candidates, synthesize, DesignPoint, Move, Objective, OperatingPoint,
    SynthesisConfig, UndoLog,
};
use hsyn::dfg::Hierarchy;
use hsyn::lib::papers::table1_library;
use hsyn::rtl::{module_fingerprint, ModuleLibrary};
use hsyn_util::{Json, Rng};

/// A buildable design point for a random leaf behavior, plus its library.
fn random_design(rng: &mut Rng) -> (DesignPoint, ModuleLibrary) {
    let g = arb_behavior(rng);
    let mut h = Hierarchy::new();
    let id = h.add_dfg(g);
    h.set_top(id);
    assert!(h.validate().is_ok());
    let mlib = ModuleLibrary::from_simple(table1_library());
    let op = OperatingPoint::derive(&mlib.simple, mlib.simple.technology.vref(), 10.0, 10_000.0);
    let top = initial_solution(&h, &mlib, &op).expect("relaxed deadline always builds");
    (
        DesignPoint {
            hierarchy: h,
            op,
            top,
        },
        mlib,
    )
}

/// Every candidate move the generators produce for `dp`, in a shuffled
/// order so sequences differ between cases.
fn shuffled_moves(dp: &DesignPoint, mlib: &ModuleLibrary, rng: &mut Rng) -> Vec<Move> {
    let mut cands = Vec::new();
    for objective in [Objective::Area, Objective::Power] {
        cands.extend(selection_candidates(dp, mlib, objective, false));
        cands.extend(sharing_candidates(dp, mlib, objective));
        cands.extend(splitting_candidates(dp, mlib, objective));
    }
    let mut moves: Vec<Move> = cands.into_iter().map(|(_, mv)| mv).collect();
    // Fisher–Yates with the case RNG.
    for i in (1..moves.len()).rev() {
        moves.swap(i, rng.range_usize(0, i));
    }
    moves
}

/// Speculate a random move sequence inside one journal, snapshotting the
/// design fingerprint at every mark, then force a rollback to a random
/// prefix and finally to the baseline: each unwind must restore the
/// fingerprint recorded at that mark bit-exactly.
#[test]
fn random_move_sequences_roll_back_bit_exactly() {
    let mut rng = Rng::seed_from_u64(0x0DD0_11FE);
    for case in 0..test_iters(12) {
        let (mut dp, mlib) = random_design(&mut rng);
        let moves = shuffled_moves(&dp, &mlib, &mut rng);

        // (journal mark, fingerprint) before each applied move; index 0 is
        // the untouched baseline.
        let mut log = UndoLog::new();
        let mut snaps = vec![(log.mark(), module_fingerprint(&dp.hierarchy, &dp.top.built))];
        let mut applied = 0usize;
        for mv in &moves {
            let mark = log.mark();
            // Moves invalidated by earlier edits of the sequence are fine:
            // a failed apply must leave no trace in design or journal.
            match apply_in_place(&mut dp, mv, &mlib, &mut |_, _, _| None, &mut log) {
                Ok(_) => {
                    applied += 1;
                    snaps.push((log.mark(), module_fingerprint(&dp.hierarchy, &dp.top.built)));
                }
                Err(_) => assert_eq!(
                    (log.mark(), module_fingerprint(&dp.hierarchy, &dp.top.built)),
                    (mark, snaps.last().unwrap().1),
                    "case {case}: rejected {mv} must leave design and journal untouched"
                ),
            }
            if applied >= 12 {
                break;
            }
        }
        assert!(
            applied >= 2,
            "case {case}: sequence too short to exercise rollback ({applied} applies)"
        );

        // Unwind to a random intermediate prefix, then all the way down.
        let keep = rng.range_usize(0, snaps.len() - 1);
        for &idx in &[keep, 0] {
            let (mark, fp) = snaps[idx];
            log.rollback_to(&mut dp, mark);
            assert_eq!(
                module_fingerprint(&dp.hierarchy, &dp.top.built),
                fp,
                "case {case}: rollback to mark {idx}/{} diverged",
                snaps.len() - 1
            );
        }
        assert!(
            log.is_empty(),
            "case {case}: baseline rollback must drain the journal"
        );
        assert!(
            log.bytes_peak() > 0,
            "case {case}: journal never accounted its records"
        );
    }
}

/// Full synthesis under `paranoid` + `shadow_eval` is observation-only: the
/// engine then asserts after every candidate rollback that the design's
/// dirty-subtree fingerprint is back to its value before the move (and that
/// every cached evaluation equals a full recomputation), on the serial scan
/// and on every worker replica of the parallel one, and the report must
/// still be byte-identical to the default run's.
#[test]
fn checked_synthesis_rolls_back_and_matches_the_default_run() {
    let mut rng = Rng::seed_from_u64(0x0BEA_70FF);
    for case in 0..test_iters(6) {
        let g = arb_behavior(&mut rng);
        let laxity_pct = rng.range_i64(120, 319) as u32;
        let objective_area = rng.next_bool(0.5);
        let mut h = Hierarchy::new();
        let id = h.add_dfg(g);
        h.set_top(id);
        assert!(h.validate().is_ok());
        let mlib = ModuleLibrary::from_simple(table1_library());

        let mut base = SynthesisConfig::new(if objective_area {
            Objective::Area
        } else {
            Objective::Power
        });
        base.laxity_factor = f64::from(laxity_pct) / 100.0;
        base.max_passes = 2;
        base.candidate_limit = 2;
        base.eval_trace_len = 8;
        base.report_trace_len = 16;
        base.max_clock_candidates = 2;
        base.resynth_depth = 0;
        let r_base = synthesize(&h, &mlib, &base)
            .unwrap_or_else(|e| panic!("case {case}: default synthesis failed: {e}"));
        let j_base = r_base.result_json();
        Json::parse(&j_base).expect("result_json parses");

        for intra in [1, 2] {
            let mut checked = base.clone();
            checked.paranoid = true;
            checked.shadow_eval = true;
            checked.intra_parallelism = intra;
            let r = synthesize(&h, &mlib, &checked).unwrap_or_else(|e| {
                panic!("case {case}: checked synthesis (intra {intra}) failed: {e}")
            });
            assert_eq!(
                r.result_json(),
                j_base,
                "case {case}: paranoid + shadow run (intra {intra}) diverged from the default"
            );
            // The run really speculated in place and rolled back.
            assert!(
                r.stats.moves_rolled_back > 0,
                "case {case}: checked run (intra {intra}) journaled no rollbacks"
            );
            assert!(
                r.stats.undo_bytes_peak > 0,
                "case {case}: checked run (intra {intra}) accounted no journal bytes"
            );
        }
    }
}
