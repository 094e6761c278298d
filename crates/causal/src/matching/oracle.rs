//! The full `|T|×|C|` scan that the windowed matcher replaced, kept as a
//! test oracle, and the differential tests that pin the two together:
//! same pairs and the same audit, histograms included.

use super::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Greedy matching by evaluating every untaken control for every treated
/// unit, in pool order.
fn full_scan(
    control: &[Unit],
    treatment: &[Unit],
    calipers: &[Caliper],
) -> (Vec<MatchedPair>, MatchAudit) {
    let mut audit = MatchAudit {
        control_pool: control.len() as u64,
        treated_considered: treatment.len() as u64,
        caliper_rejections: vec![0; calipers.len()],
        ..MatchAudit::default()
    };
    let mut taken = vec![false; control.len()];
    let mut pairs = Vec::new();

    for t in treatment {
        let mut best: Option<(usize, f64)> = None;
        for (ci, c) in control.iter().enumerate() {
            if taken[ci] {
                continue;
            }
            match pair_distance_detailed(c, t, calipers) {
                Ok(d) => {
                    audit.candidates_eligible += 1;
                    let better = match best {
                        None => true,
                        Some((bi, bd)) => d < bd || (d == bd && c.id < control[bi].id),
                    };
                    if better {
                        best = Some((ci, d));
                    }
                }
                Err(covariate) => audit.caliper_rejections[covariate] += 1,
            }
        }
        if let Some((ci, d)) = best {
            taken[ci] = true;
            audit.pairs_formed += 1;
            audit.pair_distance_log2.push(d, PAIR_DISTANCE_HIST_BASE);
            pairs.push(MatchedPair {
                control_id: control[ci].id,
                treatment_id: t.id,
                control_outcome: control[ci].outcome,
                treatment_outcome: t.outcome,
                distance: d,
            });
        } else {
            audit.treated_unmatched += 1;
        }
    }
    (pairs, audit)
}

/// Assert the matcher and the oracle agree. Compares `Debug` renderings,
/// which tell `-0.0` from `0.0` and treat NaN distances as equal.
fn assert_matches_oracle(control: &[Unit], treatment: &[Unit], calipers: &[Caliper]) {
    let got = match_pairs_audited(control, treatment, calipers);
    let want = full_scan(control, treatment, calipers);
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "\ncontrol {control:?}\ntreatment {treatment:?}\ncalipers {calipers:?}"
    );
}

/// Units built without [`Unit::new`]'s finiteness check.
fn raw(id: u64, covariates: &[f64]) -> Unit {
    Unit {
        id,
        covariates: covariates.to_vec(),
        outcome: id as f64,
    }
}

const RELATIVES: [f64; 10] = [
    0.0,
    0.1,
    0.25,
    0.5,
    0.9,
    1.0 - 1e-7,
    1.0 - 1e-9,
    1.0,
    1.5,
    4.0,
];
const FLOORS: [f64; 5] = [0.0, 1e-4, 0.3, 2.0, 100.0];

fn pick<T: Copy>(rng: &mut ChaCha8Rng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// One covariate value under `regime`: a coarse signed grid (exact ties,
/// zeros, negatives), a log-uniform positive spread, a signed uniform
/// spread, or a near-zero band where absolute floors dominate.
fn value(rng: &mut ChaCha8Rng, regime: u32) -> f64 {
    match regime {
        0 => rng.gen_range(-4i32..=8) as f64 * 0.5,
        1 => rng.gen_range(-3.0..5.0f64).exp(),
        2 => rng.gen_range(-50.0..50.0),
        _ => rng.gen_range(-1e-3..1e-3),
    }
}

fn random_calipers(rng: &mut ChaCha8Rng, n: usize) -> Vec<Caliper> {
    (0..n)
        .map(|_| Caliper {
            relative: pick(rng, &RELATIVES),
            absolute_floor: pick(rng, &FLOORS),
        })
        .collect()
}

/// Values on and one ulp either side of where `cal` stops passing
/// against `a` (and a few sign-flipped and zero companions).
fn edges(cal: &Caliper, a: f64) -> Vec<f64> {
    let r = cal.relative;
    let mut exact = vec![
        a * (1.0 - r),
        a * (1.0 + r),
        a / (1.0 + r),
        a - cal.absolute_floor,
        a + cal.absolute_floor,
        0.0,
        -a,
    ];
    if r < 1.0 {
        let w = r * a.abs() / (1.0 - r);
        exact.extend([a / (1.0 - r), a - w, a + w]);
    }
    // Near r = 1 rounding lets values pass up to ~ε/(1 − r) beyond the
    // exact edge, so probe a few parts per billion out as well.
    exact
        .into_iter()
        .filter(|e| e.is_finite())
        .flat_map(|e| {
            [
                e,
                next_toward(e, f64::INFINITY),
                next_toward(e, f64::NEG_INFINITY),
                e * (1.0 + 3e-9),
                e * (1.0 - 3e-9),
            ]
        })
        .collect()
}

/// The adjacent float from `x` toward `to` (finite `x` only).
fn next_toward(x: f64, to: f64) -> f64 {
    if x == 0.0 {
        return f64::from_bits(1).copysign(to);
    }
    let bits = x.to_bits();
    let away = (x < to) == (x > 0.0);
    f64::from_bits(if away { bits + 1 } else { bits - 1 })
}

proptest! {
    #[test]
    fn random_pools_match_the_full_scan(
        seed in 0u64..u64::MAX,
        n_control in 0usize..70,
        n_treated in 0usize..50,
        n_covariates in 1usize..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let regimes: Vec<u32> = (0..n_covariates).map(|_| rng.gen_range(0u32..4)).collect();
        let calipers = random_calipers(&mut rng, n_covariates);
        // A narrow id range forces duplicate control ids.
        let id_span = if rng.gen_bool(0.5) { 6 } else { 1 << 20 };
        let draw = |rng: &mut ChaCha8Rng, id: u64| {
            let cov: Vec<f64> = regimes.iter().map(|&g| value(rng, g)).collect();
            Unit::new(id, cov, rng.gen_range(0.0..10.0))
        };
        let control: Vec<Unit> = (0..n_control)
            .map(|_| {
                let id = rng.gen_range(0..id_span);
                draw(&mut rng, id)
            })
            .collect();
        let treatment: Vec<Unit> = (0..n_treated as u64).map(|i| draw(&mut rng, 1000 + i)).collect();
        assert_matches_oracle(&control, &treatment, &calipers);
    }

    #[test]
    fn window_edges_match_the_full_scan(
        seed in 0u64..u64::MAX,
        n_treated in 1usize..6,
        n_covariates in 1usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let calipers = random_calipers(&mut rng, n_covariates);
        let centres: Vec<f64> = (0..n_treated)
            .map(|_| {
                let regime = rng.gen_range(0u32..4);
                value(&mut rng, regime)
            })
            .collect();
        // Controls sit on every treated unit's caliper-0 edges, one ulp
        // either side and a few parts per billion beyond; later covariates
        // copy the treated value so they never fire.
        let mut control = Vec::new();
        for &a in &centres {
            for e in edges(&calipers[0], a) {
                let mut cov = vec![e];
                cov.resize(n_covariates, a);
                control.push(Unit::new(control.len() as u64 % 9, cov, 0.0));
            }
        }
        let treatment: Vec<Unit> = centres
            .iter()
            .enumerate()
            .map(|(i, &a)| Unit::new(100 + i as u64, vec![a; n_covariates], 1.0))
            .collect();
        assert_matches_oracle(&control, &treatment, &calipers);
    }

    #[test]
    fn crowded_windows_match_the_full_scan(
        seed in 0u64..u64::MAX,
        n_control in 1usize..25,
        n_treated in 20usize..90,
    ) {
        // Few distinct values and more treated than controls: later
        // treated units find their windows mostly taken.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let calipers = random_calipers(&mut rng, 2);
        let levels: Vec<f64> = (0..4).map(|_| value(&mut rng, 1)).collect();
        let draw = |rng: &mut ChaCha8Rng, id: u64| {
            let cov = vec![pick(rng, &levels), pick(rng, &levels)];
            Unit::new(id, cov, 0.0)
        };
        let control: Vec<Unit> = (0..n_control as u64).map(|i| draw(&mut rng, i % 5)).collect();
        let treatment: Vec<Unit> = (0..n_treated as u64).map(|i| draw(&mut rng, 100 + i)).collect();
        assert_matches_oracle(&control, &treatment, &calipers);
    }
}

#[test]
fn empty_pools_match_the_full_scan() {
    let one = [Caliper::PAPER];
    let units = vec![Unit::new(1, vec![1.0], 0.0), Unit::new(2, vec![-3.0], 0.0)];
    assert_matches_oracle(&[], &[], &one);
    assert_matches_oracle(&[], &units, &one);
    assert_matches_oracle(&units, &[], &one);
    // No covariates: every control is eligible at distance 0.
    let bare = vec![Unit::new(5, vec![], 0.0), Unit::new(3, vec![], 0.0)];
    assert_matches_oracle(&bare, &bare, &[]);
}

#[test]
fn relative_one_and_above_scan_the_whole_pool() {
    let values = [-8.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e6];
    let control: Vec<Unit> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| Unit::new(i as u64, vec![v], 0.0))
        .collect();
    let treatment: Vec<Unit> = values
        .iter()
        .rev()
        .enumerate()
        .map(|(i, &v)| Unit::new(50 + i as u64, vec![v], 0.0))
        .collect();
    for relative in [1.0 - 1e-7, 1.0, 1.5, 10.0] {
        let calipers = [Caliper::relative(relative)];
        assert_matches_oracle(&control, &treatment, &calipers);
        let (pairs, _) = match_pairs_audited(&control, &treatment, &calipers);
        assert!(!pairs.is_empty(), "r = {relative}");
    }
}

#[test]
fn non_finite_inputs_match_the_full_scan() {
    let inf = f64::INFINITY;
    let control = vec![
        raw(1, &[1.0, 1e308]),
        raw(2, &[inf, 0.0]),
        raw(3, &[f64::NAN, 1.0]),
        raw(4, &[2.0, -1e308]),
        raw(5, &[-inf, 2.0]),
        raw(6, &[1.5, 1.0]),
    ];
    let treatment = vec![
        raw(10, &[1.2, -1e308]),
        raw(11, &[inf, 1.0]),
        raw(12, &[f64::NAN, 0.0]),
        raw(13, &[1.1, 1e308]),
        raw(14, &[-inf, 1.0]),
    ];
    for calipers in [
        vec![Caliper::PAPER, Caliper::PAPER],
        vec![
            Caliper::paper_with_floor(inf),
            Caliper::paper_with_floor(inf),
        ],
        vec![Caliper::PAPER, Caliper::relative(1e10)],
    ] {
        assert_matches_oracle(&control, &treatment, &calipers);
        // Finite pool, non-finite treated values and calipers only.
        assert_matches_oracle(
            &[control[0].clone(), control[3].clone()],
            &treatment,
            &calipers,
        );
    }
}

#[test]
fn duplicate_ids_resolve_in_pool_order() {
    // A floor-only caliper makes 96 and 104 exactly equidistant from 100;
    // both controls share id 7, so the earlier one in the pool must win
    // even though the covariate-0 order visits 96 first.
    let calipers = [Caliper {
        relative: 0.0,
        absolute_floor: 10.0,
    }];
    let control = vec![
        Unit::new(7, vec![104.0], 1.0),
        Unit::new(7, vec![96.0], 2.0),
    ];
    let treatment = vec![
        Unit::new(50, vec![100.0], 0.0),
        Unit::new(51, vec![100.0], 0.0),
    ];
    assert_matches_oracle(&control, &treatment, &calipers);
    let pairs = match_pairs(&control, &treatment, &calipers);
    assert_eq!(pairs[0].control_outcome, 1.0);
}

#[test]
fn subnormal_values_match_the_full_scan() {
    // Caliper products underflow here: 0.4 × 2·min rounds up to 1·min, so
    // 2·min passes against 1·min while the computed window half-width is 0.
    let tiny = |k: i64| f64::from_bits(k.unsigned_abs()).copysign(k as f64);
    let units: Vec<Unit> = (-8i64..=8)
        .map(|k| Unit::new(k.unsigned_abs() % 5, vec![tiny(k)], k as f64))
        .collect();
    let mut reversed = units.clone();
    reversed.reverse();
    for relative in [0.1, 0.25, 0.4, 0.5, 0.9] {
        let calipers = [Caliper::relative(relative)];
        assert_matches_oracle(&units, &reversed, &calipers);
        assert_matches_oracle(&units[..9], &units[8..], &calipers);
    }
}

#[test]
fn degenerate_calipers_match_the_full_scan() {
    // Negative or NaN caliper parameters are meaningless, but the fields
    // are public: the matcher must still agree with the full scan.
    let units: Vec<Unit> = [-2.0, -0.0, 0.0, 0.0, 1.0, 3.0]
        .iter()
        .enumerate()
        .map(|(i, &v)| Unit::new(i as u64, vec![v, v], 0.0))
        .collect();
    let nan = f64::NAN;
    for (relative, absolute_floor) in [
        (-0.25, -1.0),
        (-0.25, 0.5),
        (0.25, -1.0),
        (nan, 0.5),
        (0.25, nan),
        (nan, nan),
    ] {
        let cal = Caliper {
            relative,
            absolute_floor,
        };
        assert_matches_oracle(&units, &units, &[cal, Caliper::PAPER]);
    }
}
