//! The paper's closed-form cost models (§IV).

/// Eq. (11): total messages of the hierarchical algorithm on a complete
/// `d`-ary tree of height `h` with `p` intervals per process and
/// aggregation probability `α`:
///
/// ```text
/// Σ_{i=1}^{h-1} d^{h-i} · p · d^{i-1} · α^{i-1}  =  p·d^{h-1}·(1-α^{h-1})/(1-α)
/// ```
///
/// Every message travels exactly one hop (child → parent), so this is
/// already hop-weighted.
pub fn hier_messages_eq11(p: u64, d: u64, h: u32, alpha: f64) -> f64 {
    assert!(h >= 1);
    let p = p as f64;
    let d = d as f64;
    if (alpha - 1.0).abs() < 1e-12 {
        // lim α→1 of (1-α^{h-1})/(1-α) = h-1.
        return p * d.powi(h as i32 - 1) * (h as f64 - 1.0);
    }
    p * d.powi(h as i32 - 1) * (1.0 - alpha.powi(h as i32 - 1)) / (1.0 - alpha)
}

/// The same sum, term by term: messages sent *from* level `i` (leaves are
/// level 1). Useful for per-level breakdowns.
pub fn hier_messages_from_level(p: u64, d: u64, h: u32, alpha: f64, i: u32) -> f64 {
    assert!((1..h).contains(&i));
    (d as f64).powi((h - i) as i32)
        * (p as f64)
        * (d as f64).powi(i as i32 - 1)
        * alpha.powi(i as i32 - 1)
}

/// Eq. (12)/(14): total (hop-weighted) messages of the centralized
/// repeated detection algorithm \[12\] collecting over the same spanning
/// tree — every interval travels from its level to the sink, one hop per
/// level:
///
/// ```text
/// Σ_{i=1}^{h-1} p · d^{h-i} · (h-i)
///   = p · [ h·(d^h - d)/(d-1) − k ],   k = Σ i·d^{h-i}
///   with  (d-1)·k = d²·(d^{h-1} - 1)/(d-1) − (h-1)·d
/// ```
///
/// **Erratum.** The paper's published closed forms (its Eqs. (13)/(14))
/// carry a sign error: the telescoping step should *subtract* `(h-1)d`,
/// not add it, so the published Eq. (14) disagrees with its own Eq. (12)
/// sum (and even goes negative for small `h`). This function implements
/// the *corrected* closed form, which matches the direct sum exactly; the
/// published expression is kept as
/// [`central_messages_eq14_published`] for comparison. See
/// EXPERIMENTS.md.
pub fn central_messages_eq14(p: u64, d: u64, h: u32) -> f64 {
    assert!(d >= 2, "closed form requires d ≥ 2 (division by d-1)");
    let p = p as f64;
    let df = d as f64;
    let hf = h as f64;
    let geo = (df.powi(h as i32) - df) / (df - 1.0); // Σ_{j=1}^{h-1} d^j
    let k = (df * df * (df.powi(h as i32 - 1) - 1.0) / (df - 1.0) - (hf - 1.0) * df) / (df - 1.0);
    p * (hf * geo - k)
}

/// The paper's Eq. (14) exactly as published (erroneous — see
/// [`central_messages_eq14`]): `p·((d^h − 2d)(dh − d − h) − d)/(d−1)²`.
pub fn central_messages_eq14_published(p: u64, d: u64, h: u32) -> f64 {
    let p = p as f64;
    let df = d as f64;
    let hf = h as f64;
    p * ((df.powi(h as i32) - 2.0 * df) * (df * hf - df - hf) - df) / ((df - 1.0) * (df - 1.0))
}

/// The centralized sum evaluated directly (term by term) — used by tests
/// to validate the closed form, and by callers who want per-level terms.
pub fn central_messages_direct(p: u64, d: u64, h: u32) -> f64 {
    (1..h)
        .map(|i| (p as f64) * (d as f64).powi((h - i) as i32) * ((h - i) as f64))
        .sum()
}

/// `k = Σ_{i=1}^{h-1} i·d^{h-i}` in (corrected) closed form. The paper's
/// Eq. (13) — `(d^{h+1} + d²h − 2d² − dh + d)/(d−1)²` — is off by
/// `2(h−1)d/(d−1)` due to the sign error described at
/// [`central_messages_eq14`].
pub fn eq13_k(d: u64, h: u32) -> f64 {
    let df = d as f64;
    let hf = h as f64;
    (df * df * (df.powi(h as i32 - 1) - 1.0) / (df - 1.0) - (hf - 1.0) * df) / (df - 1.0)
}

/// One row of Table I, evaluated for concrete `n`, `p`, `d`, `h`, `α`.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// Network size (`n = d^h`).
    pub n: u64,
    /// Intervals per process.
    pub p: u64,
    /// Tree degree.
    pub d: u64,
    /// Tree height.
    pub h: u32,
    /// Hierarchical space bound `O(p·n²)` — distributed across all nodes.
    pub hier_space: f64,
    /// Centralized space bound `O(p·n²)` — all at the sink.
    pub central_space: f64,
    /// Hierarchical time bound `O(d²·p·n²)` — distributed.
    pub hier_time: f64,
    /// Centralized time bound `O(p·n³)` — all at the sink.
    pub central_time: f64,
    /// Hierarchical messages, Eq. (11).
    pub hier_messages: f64,
    /// Centralized messages, Eq. (14).
    pub central_messages: f64,
}

impl Table1Row {
    /// Evaluates the row for a complete `d`-ary tree of height `h`.
    pub fn evaluate(p: u64, d: u64, h: u32, alpha: f64) -> Table1Row {
        let n = d.pow(h);
        let nf = n as f64;
        let pf = p as f64;
        Table1Row {
            n,
            p,
            d,
            h,
            hier_space: pf * nf * nf,
            central_space: pf * nf * nf,
            hier_time: (d * d) as f64 * pf * nf * nf,
            central_time: pf * nf * nf * nf,
            hier_messages: hier_messages_eq11(p, d, h, alpha),
            central_messages: central_messages_eq14(p, d, h),
        }
    }

    /// The paper's headline ratio: centralized time / hierarchical time
    /// `= n / d²` (> 1 whenever `h > 2`).
    pub fn time_ratio(&self) -> f64 {
        self.central_time / self.hier_time
    }
}

/// Number of nodes of a complete `d`-ary tree of height `h` in the
/// paper's idealization (`n = d^h`).
pub fn ideal_n(d: u64, h: u32) -> u64 {
    d.pow(h)
}

/// Number of nodes of an *actual* complete `d`-ary tree with `h` full
/// levels: `(d^h - 1)/(d - 1)`. The paper idealizes this to `d^h`; both
/// are provided so measured runs can use real trees.
pub fn full_tree_n(d: u64, h: u32) -> u64 {
    if d == 1 {
        h as u64
    } else {
        (d.pow(h) - 1) / (d - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq11_closed_form_matches_sum() {
        for &(p, d, h) in &[(20u64, 2u64, 5u32), (20, 4, 4), (7, 3, 6)] {
            for &alpha in &[0.1, 0.45, 0.9] {
                let direct: f64 = (1..h)
                    .map(|i| hier_messages_from_level(p, d, h, alpha, i))
                    .sum();
                let closed = hier_messages_eq11(p, d, h, alpha);
                assert!(
                    (direct - closed).abs() < 1e-6 * direct.max(1.0),
                    "p={p} d={d} h={h} α={alpha}: {direct} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn eq11_alpha_one_limit() {
        let closed = hier_messages_eq11(20, 2, 5, 1.0);
        let direct: f64 = (1..5)
            .map(|i| hier_messages_from_level(20, 2, 5, 1.0, i))
            .sum();
        assert!((closed - direct).abs() < 1e-9);
    }

    #[test]
    fn eq14_closed_form_matches_sum() {
        for &(p, d, h) in &[(20u64, 2u64, 5u32), (20, 4, 4), (7, 3, 6), (1, 2, 2)] {
            let direct = central_messages_direct(p, d, h);
            let closed = central_messages_eq14(p, d, h);
            assert!(
                (direct - closed).abs() < 1e-6 * direct.max(1.0),
                "p={p} d={d} h={h}: {direct} vs {closed}"
            );
        }
    }

    #[test]
    fn eq13_matches_direct_sum() {
        for &(d, h) in &[(2u64, 5u32), (4, 4), (3, 7)] {
            let direct: f64 = (1..h)
                .map(|i| (i as f64) * (d as f64).powi((h - i) as i32))
                .sum();
            assert!((eq13_k(d, h) - direct).abs() < 1e-6 * direct.max(1.0));
        }
    }

    /// At h = 2 the hierarchy degenerates to the centralized layout and
    /// the two costs coincide; the paper's claim concerns h > 2.
    #[test]
    fn h2_costs_coincide() {
        // α = 1: every leaf interval reaches the root either way.
        let hier = hier_messages_eq11(20, 2, 2, 1.0);
        let cent = central_messages_eq14(20, 2, 2);
        assert!((hier - cent).abs() < 1e-9);
    }

    /// The published Eq. (14) disagrees with its own defining sum — the
    /// erratum this reproduction documents.
    #[test]
    fn published_eq14_is_inconsistent_with_its_sum() {
        let direct = central_messages_direct(20, 2, 5);
        let published = central_messages_eq14_published(20, 2, 5);
        assert!((direct - published).abs() > 1.0, "the erratum is real");
        assert!(
            central_messages_eq14_published(20, 2, 2) < 0.0,
            "published form even goes negative"
        );
    }

    /// The paper's central claim: hierarchical messages are far fewer, and
    /// the gap widens with network size.
    #[test]
    fn hierarchical_wins_and_gap_grows() {
        let mut prev_ratio = 1.0;
        for h in 3..10 {
            let hier = hier_messages_eq11(20, 2, h, 0.45);
            let cent = central_messages_eq14(20, 2, h);
            assert!(hier < cent, "h={h}");
            let ratio = cent / hier;
            assert!(ratio > prev_ratio, "gap grows with h");
            prev_ratio = ratio;
        }
    }

    /// Lower α ⇒ fewer hierarchical messages (failed aggregations stop
    /// propagation early).
    #[test]
    fn alpha_monotonicity() {
        let lo = hier_messages_eq11(20, 2, 8, 0.1);
        let hi = hier_messages_eq11(20, 2, 8, 0.45);
        assert!(lo < hi);
    }

    /// p is a linear factor in both formulas (stated in §IV-A).
    #[test]
    fn p_is_linear() {
        let h1 = hier_messages_eq11(10, 2, 6, 0.3);
        let h2 = hier_messages_eq11(20, 2, 6, 0.3);
        assert!((h2 / h1 - 2.0).abs() < 1e-9);
        let c1 = central_messages_eq14(10, 2, 6);
        let c2 = central_messages_eq14(20, 2, 6);
        assert!((c2 / c1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table1_row_ratio_is_n_over_d_squared() {
        let row = Table1Row::evaluate(20, 2, 5, 0.45);
        assert_eq!(row.n, 32);
        assert!((row.time_ratio() - 32.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn tree_size_helpers() {
        assert_eq!(ideal_n(2, 5), 32);
        assert_eq!(full_tree_n(2, 3), 7);
        assert_eq!(full_tree_n(3, 3), 13);
        assert_eq!(full_tree_n(1, 4), 4);
    }
}
