//! Nearest-neighbour matching with calipers.
//!
//! The paper "use\[s\] nearest neighbor matching to pair similar users in
//! 'control' and 'treatment' groups … with a caliper to ensure that
//! dissimilar users are not matched" (§3.2). We implement greedy 1:1
//! matching without replacement: treated units are processed in input
//! order, each taking the nearest eligible control; matched controls are
//! removed from the pool. The trade-off the paper notes — a tighter caliper
//! gives cleaner comparisons but fewer pairs — is directly observable by
//! varying the [`Caliper`]s (see the `ablate_caliper` bench), and the
//! audited entry point [`match_pairs_audited`] records it per run: how many
//! treated units were considered, how many candidate controls each caliper
//! rejected, and the distance distribution of the pairs that formed.
//!
//! **Tie-breaking is explicit**: when two eligible controls are exactly
//! equidistant from a treated unit, the one with the lower `id` wins (and
//! between equal ids, the earlier one in the pool). This makes the
//! matching — and therefore the provenance ledger — a pure function of the
//! unit *sets*, stable under control-pool reordering.
//!
//! # Complexity: a first-covariate window
//!
//! The result is defined as if every treated unit scanned the whole
//! untaken pool, but the matcher does not do that. It sorts the control
//! indices once by covariate 0, and for each treated unit binary-searches
//! the window of controls whose covariate 0 can pass caliper 0 at all.
//! Only the window is evaluated with [`pair_distance_detailed`]. A run
//! costs one `O(|C| log |C|)` sort, two `O(log |C|)` searches per treated
//! unit and one distance per untaken control in each window, against
//! `|T|·|C|` distances for the full scan. In the paper's experiments
//! 75–99.5 % of all candidates fail caliper 0, so the windows are small.
//!
//! **Why the window is a superset.** Caliper 0 passes `b` against the
//! treated value `a` when `|a − b| ≤ floor` or `|a − b| ≤ r·max(|a|, |b|)`.
//! With `|b| ≤ |a| + |a − b|`, the relative rule gives
//! `|a − b|·(1 − r) ≤ r·|a|`, so every passing `b` lies within
//! `w = max(floor, r·|a| / (1 − r))` of `a`, whatever the signs. The
//! window is `[a − w, a + w]` widened by `1e-9·(|a| + w)` plus
//! [`f64::MIN_POSITIVE`], which covers the rounding of both the caliper
//! test and the bounds (a few ulps, magnified at most `1/(1 − r)` times).
//! Where that argument fails the window is the whole pool: no
//! covariates, `r` within `1e-6` of 1 or above, a non-finite treated
//! value or bound, or a non-finite covariate 0 anywhere in the pool.
//!
//! **Why the audit stays exact.** Inside the window every untaken control
//! is evaluated exactly as the full scan would, so eligible candidates and
//! the per-covariate rejections are counted one by one. Every untaken
//! control outside the window fails caliper 0, which is the first
//! covariate checked, so the full scan would have charged each of them to
//! `caliper_rejections[0]`: the matcher adds `untaken − untaken in window`
//! there. The winner is the minimum of `(distance, id, pool index)` over
//! the window, which is the full scan's winner because every eligible
//! control is in the window. That minimum is order-free only while
//! distances are numbers; a NaN distance (reachable only through
//! non-finite or overflowing inputs) makes the full scan's winner depend on pool order,
//! so a treated unit that meets one is rescanned over the whole pool in
//! pool order.

use crate::caliper::Caliper;
use bb_trace::Log2Histogram;

/// One unit (user) entering an experiment: an opaque id, the covariates to
/// balance on, and the outcome to compare.
#[derive(Clone, Debug, PartialEq)]
pub struct Unit {
    /// Caller-meaningful identifier (propagated into matches).
    pub id: u64,
    /// Covariate vector; all units in one experiment must agree on length
    /// and ordering.
    pub covariates: Vec<f64>,
    /// Outcome value (a demand metric, in this study).
    pub outcome: f64,
}

impl Unit {
    /// Convenience constructor.
    pub fn new(id: u64, covariates: Vec<f64>, outcome: f64) -> Self {
        assert!(
            covariates.iter().all(|c| c.is_finite()),
            "covariates must be finite"
        );
        assert!(outcome.is_finite(), "outcome must be finite");
        Unit {
            id,
            covariates,
            outcome,
        }
    }
}

/// A matched control/treatment pair.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchedPair {
    /// Id of the control unit.
    pub control_id: u64,
    /// Id of the treated unit.
    pub treatment_id: u64,
    /// Outcome of the control unit.
    pub control_outcome: f64,
    /// Outcome of the treated unit.
    pub treatment_outcome: f64,
    /// Normalised covariate distance of the pair (0 = identical).
    pub distance: f64,
}

/// Audit trail of one greedy matching run — the numbers an observational
/// study must be able to show for its matching to be trusted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatchAudit {
    /// Size of the control pool offered to the matcher.
    pub control_pool: u64,
    /// Treated units that entered the matcher.
    pub treated_considered: u64,
    /// Pairs that formed (≤ `treated_considered`).
    pub pairs_formed: u64,
    /// Treated units that found no eligible control.
    pub treated_unmatched: u64,
    /// Candidate (control, treated) evaluations that passed every caliper.
    pub candidates_eligible: u64,
    /// Candidate evaluations rejected, broken down by the index of the
    /// *first* covariate whose caliper fired (one slot per covariate).
    pub caliper_rejections: Vec<u64>,
    /// Log₂ histogram of accepted pair distances, base 10⁻³ — bucket `k`
    /// covers `(2^(k-1), 2^k]` thousandths of a caliper width. Exact-zero
    /// distances (identical covariates) land in `nonpositive`.
    pub pair_distance_log2: Log2Histogram,
}

/// Base for [`MatchAudit::pair_distance_log2`]: distances are measured in
/// caliper widths, so most land well below 1; a 10⁻³ base keeps the small
/// end resolved.
pub const PAIR_DISTANCE_HIST_BASE: f64 = 1e-3;

/// Greedily match treated units to their nearest eligible control.
///
/// `calipers` must have one entry per covariate. A control is *eligible*
/// for a treated unit when every covariate passes its caliper; among
/// eligible controls the one with the smallest normalised Euclidean
/// distance wins, and **exact distance ties go to the lower control
/// `id`**, so the result does not depend on control-pool order. Matching
/// is 1:1 without replacement, so
/// `pairs.len() ≤ min(control.len(), treatment.len())`.
///
/// # Panics
/// Panics when any unit's covariate count disagrees with `calipers.len()`.
pub fn match_pairs(control: &[Unit], treatment: &[Unit], calipers: &[Caliper]) -> Vec<MatchedPair> {
    match_pairs_audited(control, treatment, calipers).0
}

/// [`match_pairs`] plus a [`MatchAudit`] describing what the matcher saw:
/// treated units considered, per-covariate caliper rejections, and the
/// distance distribution of accepted pairs.
///
/// The audit counts every (untaken control, treated) candidate as if the
/// whole pool had been scanned; see the module docs for why the
/// first-covariate window leaves the counts exact.
///
/// # Panics
/// Panics when any unit's covariate count disagrees with `calipers.len()`.
pub fn match_pairs_audited(
    control: &[Unit],
    treatment: &[Unit],
    calipers: &[Caliper],
) -> (Vec<MatchedPair>, MatchAudit) {
    for u in control.iter().chain(treatment) {
        assert_eq!(
            u.covariates.len(),
            calipers.len(),
            "unit {} has {} covariates but {} calipers were given",
            u.id,
            u.covariates.len(),
            calipers.len()
        );
    }

    let mut audit = MatchAudit {
        control_pool: control.len() as u64,
        treated_considered: treatment.len() as u64,
        caliper_rejections: vec![0; calipers.len()],
        ..MatchAudit::default()
    };
    let index = PoolIndex::new(control, calipers.first());
    let mut taken = vec![false; control.len()];
    let mut pairs = Vec::new();
    let mut rejections = vec![0; calipers.len()];

    for t in treatment {
        rejections.fill(0);
        let pool = Pool {
            control,
            taken: &taken,
            calipers,
        };
        let mut scan = pool.scan(t, index.window(t).iter().copied(), &mut rejections);
        if scan.nan_distance {
            rejections.fill(0);
            scan = pool.scan(t, 0..control.len(), &mut rejections);
        }
        let untaken = (control.len() - pairs.len()) as u64;
        if let Some(first) = rejections.first_mut() {
            *first += untaken - scan.untaken_seen;
        }
        for (total, r) in audit.caliper_rejections.iter_mut().zip(&rejections) {
            *total += r;
        }
        audit.candidates_eligible += scan.eligible;

        if let Some((ci, d)) = scan.best {
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

/// The control pool sorted by covariate 0, for window lookups.
struct PoolIndex {
    /// Control indices in ascending covariate-0 order.
    order: Vec<usize>,
    /// `covariates[0]` of each control in `order`, for binary search.
    keys: Vec<f64>,
    /// Caliper 0, or `None` when every window is the whole pool (no
    /// covariates, or a non-finite covariate 0 in the pool).
    caliper: Option<Caliper>,
}

impl PoolIndex {
    fn new(control: &[Unit], caliper: Option<&Caliper>) -> PoolIndex {
        let mut order: Vec<usize> = (0..control.len()).collect();
        let Some(&caliper) = caliper else {
            return PoolIndex {
                order,
                keys: Vec::new(),
                caliper: None,
            };
        };
        let key = |i: usize| control[i].covariates[0];
        order.sort_by(|&i, &j| key(i).total_cmp(&key(j)));
        let keys: Vec<f64> = order.iter().map(|&i| key(i)).collect();
        let finite = keys.iter().all(|k| k.is_finite());
        PoolIndex {
            order,
            keys,
            caliper: finite.then_some(caliper),
        }
    }

    /// Controls whose covariate 0 may pass caliper 0 against `t`, in
    /// covariate-0 order: a superset of the passing ones (module docs).
    fn window(&self, t: &Unit) -> &[usize] {
        let Some((lo, hi)) = self
            .caliper
            .and_then(|c| window_bounds(&c, t.covariates[0]))
        else {
            return &self.order;
        };
        let start = self.keys.partition_point(|&k| k < lo);
        let end = self.keys.partition_point(|&k| k <= hi);
        &self.order[start..end]
    }
}

/// A closed interval holding every value that passes `caliper` against
/// `a`, or `None` when no finite bound is guaranteed (module docs).
fn window_bounds(caliper: &Caliper, a: f64) -> Option<(f64, f64)> {
    let r = caliper.relative;
    // Near r = 1 the 1/(1 − r) factor outgrows the rounding slack (and a
    // NaN r fails the comparison too).
    let bounded = r < 1.0 - 1e-6 && a.is_finite();
    if !bounded {
        return None;
    }
    let w = (r * a.abs() / (1.0 - r))
        .max(caliper.absolute_floor)
        .max(0.0);
    if !w.is_finite() {
        return None;
    }
    let slack = 1e-9 * (a.abs() + w) + f64::MIN_POSITIVE;
    Some((a - w - slack, a + w + slack))
}

/// The untaken controls one treated unit may pick from.
struct Pool<'a> {
    control: &'a [Unit],
    taken: &'a [bool],
    calipers: &'a [Caliper],
}

/// What scanning one candidate sequence found for a treated unit.
struct Scan {
    /// Winning control index and its distance.
    best: Option<(usize, f64)>,
    /// Untaken controls evaluated.
    untaken_seen: u64,
    /// Of those, the ones that passed every caliper.
    eligible: u64,
    /// Whether any eligible distance was NaN.
    nan_distance: bool,
}

impl Pool<'_> {
    /// Evaluate `t` against the untaken controls among `candidates`,
    /// adding caliper rejections to `rejections`. The winner is the least
    /// `(distance, id, pool index)`; in pool order that is exactly the
    /// full scan's rule of "strictly nearer, or as near with a lower id".
    fn scan(
        &self,
        t: &Unit,
        candidates: impl Iterator<Item = usize>,
        rejections: &mut [u64],
    ) -> Scan {
        let mut scan = Scan {
            best: None,
            untaken_seen: 0,
            eligible: 0,
            nan_distance: false,
        };
        for ci in candidates {
            if self.taken[ci] {
                continue;
            }
            scan.untaken_seen += 1;
            let c = &self.control[ci];
            match pair_distance_detailed(c, t, self.calipers) {
                Ok(d) => {
                    scan.eligible += 1;
                    scan.nan_distance |= d.is_nan();
                    let better = match scan.best {
                        None => true,
                        Some((bi, bd)) => {
                            d < bd || (d == bd && (c.id, ci) < (self.control[bi].id, bi))
                        }
                    };
                    if better {
                        scan.best = Some((ci, d));
                    }
                }
                Err(covariate) => rejections[covariate] += 1,
            }
        }
        scan
    }
}

/// Normalised distance between a control and a treated unit, or `None` when
/// any covariate violates its caliper.
///
/// Each per-covariate difference is divided by the caliper width at that
/// point, so a value of 1.0 means "exactly at the edge of similarity" for
/// that covariate regardless of its units.
pub fn pair_distance(control: &Unit, treatment: &Unit, calipers: &[Caliper]) -> Option<f64> {
    pair_distance_detailed(control, treatment, calipers).ok()
}

/// [`pair_distance`], but a caliper violation reports *which* covariate
/// fired: `Err(i)` is the index of the first covariate outside its
/// caliper. Feeds the per-covariate rejection counts in [`MatchAudit`].
pub fn pair_distance_detailed(
    control: &Unit,
    treatment: &Unit,
    calipers: &[Caliper],
) -> Result<f64, usize> {
    let mut sum_sq = 0.0;
    for (i, ((a, b), cal)) in control
        .covariates
        .iter()
        .zip(&treatment.covariates)
        .zip(calipers)
        .enumerate()
    {
        if !cal.within(*a, *b) {
            return Err(i);
        }
        let width = cal.width_at(a.abs().max(b.abs()));
        let norm = if width > 0.0 {
            (a - b).abs() / width
        } else {
            0.0
        };
        sum_sq += norm * norm;
    }
    Ok(sum_sq.sqrt())
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(id: u64, cov: &[f64], out: f64) -> Unit {
        Unit::new(id, cov.to_vec(), out)
    }

    fn paper_calipers(n: usize) -> Vec<Caliper> {
        vec![Caliper::PAPER; n]
    }

    #[test]
    fn nearest_eligible_control_wins() {
        let control = vec![
            unit(1, &[100.0], 1.0),
            unit(2, &[110.0], 2.0),
            unit(3, &[124.0], 3.0),
        ];
        let treatment = vec![unit(10, &[112.0], 9.0)];
        let pairs = match_pairs(&control, &treatment, &paper_calipers(1));
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].control_id, 2, "110 is nearest to 112");
        assert_eq!(pairs[0].treatment_id, 10);
    }

    #[test]
    fn caliper_excludes_dissimilar() {
        let control = vec![unit(1, &[10.0], 1.0)];
        let treatment = vec![unit(2, &[20.0], 2.0)];
        assert!(match_pairs(&control, &treatment, &paper_calipers(1)).is_empty());
    }

    #[test]
    fn matching_is_without_replacement() {
        let control = vec![unit(1, &[100.0], 1.0)];
        let treatment = vec![unit(10, &[100.0], 2.0), unit(11, &[100.0], 3.0)];
        let pairs = match_pairs(&control, &treatment, &paper_calipers(1));
        assert_eq!(pairs.len(), 1, "single control can only be used once");
    }

    #[test]
    fn pairs_are_disjoint() {
        let control: Vec<Unit> = (0..50).map(|i| unit(i, &[i as f64 + 100.0], 0.0)).collect();
        let treatment: Vec<Unit> = (0..50)
            .map(|i| unit(1000 + i, &[i as f64 + 101.0], 1.0))
            .collect();
        let pairs = match_pairs(&control, &treatment, &paper_calipers(1));
        let mut controls: Vec<u64> = pairs.iter().map(|p| p.control_id).collect();
        let mut treats: Vec<u64> = pairs.iter().map(|p| p.treatment_id).collect();
        controls.sort_unstable();
        controls.dedup();
        treats.sort_unstable();
        treats.dedup();
        assert_eq!(controls.len(), pairs.len());
        assert_eq!(treats.len(), pairs.len());
    }

    #[test]
    fn all_covariates_must_pass() {
        // Similar latency but very different price: no match.
        let calipers = paper_calipers(2);
        let control = vec![unit(1, &[50.0, 25.0], 1.0)];
        let treatment = vec![unit(2, &[55.0, 90.0], 2.0)];
        assert!(match_pairs(&control, &treatment, &calipers).is_empty());
        // Both similar: match.
        let treatment_ok = vec![unit(3, &[55.0, 28.0], 2.0)];
        assert_eq!(match_pairs(&control, &treatment_ok, &calipers).len(), 1);
    }

    #[test]
    fn distance_is_zero_for_identical_covariates() {
        let control = vec![unit(1, &[42.0, 7.0], 1.0)];
        let treatment = vec![unit(2, &[42.0, 7.0], 2.0)];
        let pairs = match_pairs(&control, &treatment, &paper_calipers(2));
        assert_eq!(pairs[0].distance, 0.0);
    }

    #[test]
    fn distance_normalisation_is_unitless() {
        // The same relative offset in two very different units should give
        // the same distance contribution.
        let cal = [Caliper::PAPER];
        let a = pair_distance(&unit(1, &[1000.0], 0.0), &unit(2, &[1100.0], 0.0), &cal).unwrap();
        let b = pair_distance(&unit(3, &[1.0], 0.0), &unit(4, &[1.1], 0.0), &cal).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn empty_groups_produce_no_pairs() {
        assert!(match_pairs(&[], &[], &paper_calipers(0)).is_empty());
        let t = vec![unit(1, &[1.0], 1.0)];
        assert!(match_pairs(&[], &t, &paper_calipers(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "covariates")]
    fn covariate_count_mismatch_panics() {
        let control = vec![unit(1, &[1.0, 2.0], 1.0)];
        let treatment = vec![unit(2, &[1.0], 2.0)];
        let _ = match_pairs(&control, &treatment, &paper_calipers(2));
    }

    #[test]
    fn equidistant_tie_goes_to_the_lower_control_id() {
        // Two controls with identical covariates: exactly equidistant,
        // and the higher id arrives first in the pool.
        let treatment = vec![unit(10, &[100.0], 9.0)];
        let control = vec![unit(7, &[102.0], 1.0), unit(3, &[102.0], 2.0)];
        let pairs = match_pairs(&control, &treatment, &paper_calipers(1));
        assert_eq!(pairs[0].control_id, 3, "lower id wins the tie");
    }

    #[test]
    fn matching_is_stable_under_control_pool_reordering() {
        // A pool full of duplicate covariates forces ties; the winner
        // must be the same whichever order the pool arrives in.
        let control: Vec<Unit> = [5u64, 2, 9, 4, 7, 11]
            .iter()
            .enumerate()
            .map(|(i, &id)| unit(id, &[100.0 + (i % 2) as f64], i as f64))
            .collect();
        let treatment: Vec<Unit> = (0..4).map(|i| unit(100 + i, &[100.5], 1.0)).collect();
        let mut reversed = control.clone();
        reversed.reverse();
        let forward = match_pairs(&control, &treatment, &paper_calipers(1));
        let backward = match_pairs(&reversed, &treatment, &paper_calipers(1));
        assert_eq!(forward, backward, "control order must not matter");
    }

    #[test]
    fn pair_distance_detailed_reports_the_violating_covariate() {
        let calipers = paper_calipers(3);
        let c = unit(1, &[100.0, 50.0, 10.0], 0.0);
        // Second covariate (index 1) is far outside 25%.
        let t = unit(2, &[101.0, 90.0, 11.0], 0.0);
        assert_eq!(pair_distance_detailed(&c, &t, &calipers), Err(1));
        // All within: Ok with a finite distance.
        let t_ok = unit(3, &[101.0, 51.0, 11.0], 0.0);
        assert!(pair_distance_detailed(&c, &t_ok, &calipers).is_ok());
    }

    #[test]
    fn audit_counts_add_up() {
        let control = vec![
            unit(1, &[100.0], 1.0),
            unit(2, &[103.0], 2.0),
            unit(3, &[500.0], 3.0), // outside every treated unit's caliper
        ];
        let treatment = vec![
            unit(10, &[101.0], 9.0),
            unit(11, &[102.0], 9.0),
            unit(12, &[2000.0], 9.0), // matches nothing
        ];
        let (pairs, audit) = match_pairs_audited(&control, &treatment, &paper_calipers(1));
        assert_eq!(audit.control_pool, 3);
        assert_eq!(audit.treated_considered, 3);
        assert_eq!(audit.pairs_formed, pairs.len() as u64);
        assert_eq!(audit.pairs_formed + audit.treated_unmatched, 3);
        assert_eq!(audit.caliper_rejections.len(), 1);
        assert!(audit.caliper_rejections[0] > 0, "{audit:?}");
        assert_eq!(audit.pair_distance_log2.count(), audit.pairs_formed);
        // Audited and plain entry points agree.
        assert_eq!(pairs, match_pairs(&control, &treatment, &paper_calipers(1)));
    }

    #[test]
    fn zero_distance_pairs_land_in_the_nonpositive_bucket() {
        let control = vec![unit(1, &[42.0], 1.0)];
        let treatment = vec![unit(2, &[42.0], 2.0)];
        let (_, audit) = match_pairs_audited(&control, &treatment, &paper_calipers(1));
        assert_eq!(audit.pair_distance_log2.nonpositive(), 1);
    }

    #[test]
    fn tighter_caliper_yields_fewer_pairs() {
        // Every treatment sits exactly 15% above its would-be control:
        // all pairs pass a 25% caliper, none pass a 10% caliper.
        let control: Vec<Unit> = (0..20)
            .map(|i| unit(i, &[100.0 + 3.0 * i as f64], 0.0))
            .collect();
        let treatment: Vec<Unit> = (0..20)
            .map(|i| unit(100 + i, &[(100.0 + 3.0 * i as f64) * 1.15], 1.0))
            .collect();
        let loose = match_pairs(&control, &treatment, &[Caliper::relative(0.25)]);
        let tight = match_pairs(&control, &treatment, &[Caliper::relative(0.10)]);
        assert!(
            loose.len() > tight.len(),
            "loose = {}, tight = {}",
            loose.len(),
            tight.len()
        );
    }
}
