//! Weighted max-min fair bandwidth allocation with per-flow rate caps.
//!
//! The fluid model assigns every active flow a transmission rate by
//! **weighted progressive filling**: conceptually, every flow's rate rises
//! proportionally to its weight until either (a) some link it traverses is
//! saturated, freezing every flow crossing that link, or (b) the flow hits
//! its own rate cap (TCP window limit or storage-system limit). This is the
//! classical fluid approximation of TCP fair sharing; a GridFTP transfer
//! with `n` parallel streams is a flow of weight `n`, and background cross
//! traffic on a link is a pseudo-flow whose weight comes from the link's
//! [`crate::load::LinkLoadModel`].
//!
//! The solver is exact (no iteration-to-convergence): each round freezes at
//! least one flow or saturates at least one link, so it terminates in at
//! most `flows + links` rounds.

/// One flow presented to the solver.
#[derive(Debug, Clone)]
pub struct FairFlow {
    /// Relative weight (e.g. number of parallel TCP streams). Must be > 0.
    pub weight: f64,
    /// Upper bound on the flow's rate in bytes/sec (window limit, storage
    /// limit). Use `f64::INFINITY` for uncapped flows.
    pub cap: f64,
    /// Indices (into the solver's link array) of the links this flow
    /// traverses.
    pub links: Vec<usize>,
}

/// Solve the weighted max-min allocation.
///
/// `link_capacity[l]` is the capacity of link `l` in bytes/sec. Returns the
/// allocated rate for each flow, in input order.
///
/// # Panics
/// Panics if any weight is non-positive, any capacity is non-positive, or a
/// flow references an out-of-range link.
pub fn solve(link_capacity: &[f64], flows: &[FairFlow]) -> Vec<f64> {
    let mut solver = Solver::default();
    solver.begin(link_capacity.iter().copied());
    for f in flows {
        solver.push_flow(f.weight, f.cap, f.links.iter().copied());
    }
    solver.solve().to_vec()
}

/// The allocator's working state, flat and reusable: a caller that
/// re-solves on every event ([`crate::network::Network`]) keeps one and
/// pays no allocation once the vectors have grown to the problem size.
///
/// Load a problem with [`Solver::begin`] and one [`Solver::push_flow`]
/// per flow, then [`Solver::solve`].
#[derive(Debug, Default)]
pub(crate) struct Solver {
    capacity: Vec<f64>,
    weight: Vec<f64>,
    cap: Vec<f64>,
    /// Flow `i` traverses `flow_links[flow_start[i]..flow_start[i + 1]]`,
    /// in the order (and with the repeats) it was given.
    flow_start: Vec<usize>,
    flow_links: Vec<usize>,
    /// Link `l` carries `link_flows[link_start[l]..link_start[l + 1]]`,
    /// ascending by flow index.
    link_start: Vec<usize>,
    link_flows: Vec<usize>,
    rate: Vec<f64>,
    /// A frozen flow's rate is final.
    frozen: Vec<bool>,
    /// Flows already queued to freeze; a queued flow always freezes
    /// before its round ends, so marks are never cleared mid-solve.
    marked: Vec<bool>,
    /// Remaining capacity per link after subtracting frozen flows.
    remaining: Vec<f64>,
    /// Sum of active weights per link.
    active_weight: Vec<f64>,
    newly_frozen: Vec<(usize, f64)>,
}

impl Solver {
    /// Start a new problem over links with these capacities (bytes/sec).
    pub(crate) fn begin(&mut self, link_capacity: impl Iterator<Item = f64>) {
        self.capacity.clear();
        self.capacity.extend(link_capacity);
        for &c in &self.capacity {
            assert!(c > 0.0 && c.is_finite(), "bad link capacity");
        }
        self.weight.clear();
        self.cap.clear();
        self.flow_links.clear();
        self.flow_start.clear();
        self.flow_start.push(0);
    }

    /// Add a flow; its rate is `solve()[k]` for the `k`-th flow pushed.
    pub(crate) fn push_flow(&mut self, weight: f64, cap: f64, links: impl Iterator<Item = usize>) {
        assert!(weight > 0.0 && weight.is_finite(), "bad weight");
        assert!(cap >= 0.0, "bad cap");
        let first = self.flow_links.len();
        self.flow_links.extend(links);
        for &l in &self.flow_links[first..] {
            assert!(l < self.capacity.len(), "flow references unknown link");
        }
        self.weight.push(weight);
        self.cap.push(cap);
        self.flow_start.push(self.flow_links.len());
    }

    /// Invert the per-flow link lists into per-link flow lists. Flows are
    /// visited in index order, so every link's list comes out ascending.
    fn index_links(&mut self) {
        let n_links = self.capacity.len();
        // Count link `l` into slot `l + 2`, so that after the prefix sum
        // slot `l + 1` holds where `l`'s list begins. Filling advances it
        // to where the list ends, which is where `l + 1`'s begins.
        self.link_start.clear();
        self.link_start.resize(n_links + 2, 0);
        for &l in &self.flow_links {
            self.link_start[l + 2] += 1;
        }
        for l in 2..n_links + 2 {
            self.link_start[l] += self.link_start[l - 1];
        }
        self.link_flows.clear();
        self.link_flows.resize(self.flow_links.len(), 0);
        for i in 0..self.weight.len() {
            for &l in &self.flow_links[self.flow_start[i]..self.flow_start[i + 1]] {
                let slot = &mut self.link_start[l + 1];
                self.link_flows[*slot] = i;
                *slot += 1;
            }
        }
    }

    /// Solve the loaded problem; rates come back in push order.
    pub(crate) fn solve(&mut self) -> &[f64] {
        self.index_links();
        let n = self.weight.len();
        let n_links = self.capacity.len();
        self.rate.clear();
        self.rate.resize(n, 0.0);
        self.frozen.clear();
        self.frozen.resize(n, false);
        self.marked.clear();
        self.marked.resize(n, false);
        self.remaining.clear();
        self.remaining.extend_from_slice(&self.capacity);
        self.active_weight.clear();
        self.active_weight.resize(n_links, 0.0);
        for i in 0..n {
            for &l in &self.flow_links[self.flow_start[i]..self.flow_start[i + 1]] {
                self.active_weight[l] += self.weight[i];
            }
        }

        // Flows with a zero cap freeze immediately at rate 0.
        let mut active_count = n;
        for i in 0..n {
            // tidy: allow(float-eq): caps are set to exactly 0.0 to freeze a flow; no arithmetic precedes this
            if self.cap[i] == 0.0 {
                self.frozen[i] = true;
                active_count -= 1;
                for &l in &self.flow_links[self.flow_start[i]..self.flow_start[i + 1]] {
                    self.active_weight[l] -= self.weight[i];
                }
            }
        }

        // Global fill level: every active flow currently has rate weight * t.
        let mut t = 0.0f64;

        while active_count > 0 {
            // Next level at which a link saturates.
            let mut t_next = f64::INFINITY;
            for l in 0..n_links {
                let aw = self.active_weight[l];
                if aw > 1e-12 {
                    // remaining[l] already excludes frozen flows; active flows
                    // currently consume aw * t of it.
                    let tl = t + (self.remaining[l] - aw * t).max(0.0) / aw;
                    t_next = t_next.min(tl);
                }
            }
            // Next level at which an active flow hits its cap.
            for i in 0..n {
                if !self.frozen[i] && self.cap[i].is_finite() {
                    t_next = t_next.min(self.cap[i] / self.weight[i]);
                }
            }
            if !t_next.is_finite() {
                // No constraint binds the remaining flows (cannot happen if
                // every flow traverses at least one link, which Network
                // guarantees). Freeze at current level defensively.
                for i in 0..n {
                    if !self.frozen[i] {
                        self.rate[i] = self.weight[i] * t;
                        self.frozen[i] = true;
                    }
                }
                break;
            }

            t = t_next.max(t);

            // Freeze flows that hit their cap at this level.
            self.newly_frozen.clear();
            for i in 0..n {
                if !self.frozen[i]
                    && self.cap[i].is_finite()
                    && self.cap[i] / self.weight[i] <= t + 1e-12
                {
                    self.marked[i] = true;
                    self.newly_frozen.push((i, self.cap[i]));
                }
            }
            // Freeze flows on links saturated at this level.
            for l in 0..n_links {
                let aw = self.active_weight[l];
                if aw > 1e-12 && aw * t + 1e-9 * self.capacity[l] >= self.remaining[l] {
                    for &i in &self.link_flows[self.link_start[l]..self.link_start[l + 1]] {
                        if !self.frozen[i] && !self.marked[i] {
                            self.marked[i] = true;
                            self.newly_frozen.push((i, self.weight[i] * t));
                        }
                    }
                }
            }
            if self.newly_frozen.is_empty() {
                // Numerical corner: force-freeze the first active flow to
                // guarantee progress.
                if let Some(i) = self.frozen.iter().position(|f| !f) {
                    self.newly_frozen
                        .push((i, (self.weight[i] * t).min(self.cap[i])));
                }
            }
            for &(i, r) in &self.newly_frozen {
                self.frozen[i] = true;
                active_count -= 1;
                let rate = r.min(self.cap[i]);
                self.rate[i] = rate;
                for &l in &self.flow_links[self.flow_start[i]..self.flow_start[i + 1]] {
                    self.active_weight[l] -= self.weight[i];
                    self.remaining[l] -= rate;
                    if self.remaining[l] < 0.0 {
                        self.remaining[l] = 0.0;
                    }
                }
            }
        }

        &self.rate
    }
}

/// The rate [`Solver`] gives a flow that is alone on its links but for
/// their background pseudo-flows: weight `weight`, cap `cap`, crossing
/// each link of `links` — `(capacity, background weight)` pairs — once,
/// each background pushed after the flow, and only when its weight
/// exceeds `1e-9`. The solver's first round always freezes such a flow,
/// at its cap or on the first link to saturate, so its rate is that
/// round's arithmetic, in the same operation order:
///
/// - `aw_l = (0.0 + weight) + W_l`, the link's active weight;
/// - `t = min(min_l (0.0 + (C_l - aw_l * 0.0).max(0.0) / aw_l), cap / weight)`;
/// - `0` for a zero cap, `cap` when `cap / weight <= t + 1e-12`, and
///   `min(weight * t, cap)` otherwise.
///
/// The same asserts as [`Solver`] hold for the inputs.
pub(crate) fn lone_flow_rate(
    weight: f64,
    cap: f64,
    links: impl Iterator<Item = (f64, f64)>,
) -> f64 {
    assert!(weight > 0.0 && weight.is_finite(), "bad weight");
    assert!(cap >= 0.0, "bad cap");
    if cap <= 0.0 {
        return 0.0;
    }
    let t = 0.0f64;
    let mut t_next = f64::INFINITY;
    for (capacity, background) in links {
        assert!(capacity > 0.0 && capacity.is_finite(), "bad link capacity");
        let mut aw = 0.0 + weight;
        if background > 1e-9 {
            assert!(background.is_finite(), "bad weight");
            aw += background;
        }
        if aw > 1e-12 {
            t_next = t_next.min(t + (capacity - aw * t).max(0.0) / aw);
        }
    }
    if cap.is_finite() {
        t_next = t_next.min(cap / weight);
    }
    if !t_next.is_finite() {
        return weight * t;
    }
    let t = t_next.max(t);
    if cap.is_finite() && cap / weight <= t + 1e-12 {
        cap
    } else {
        (weight * t).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating solver this module shipped before [`Solver`], kept
    /// verbatim as the oracle: [`Solver`] must reproduce every rate bit
    /// for bit.
    fn solve_reference(link_capacity: &[f64], flows: &[FairFlow]) -> Vec<f64> {
        for f in flows {
            assert!(f.weight > 0.0 && f.weight.is_finite(), "bad weight");
            assert!(f.cap >= 0.0, "bad cap");
            for &l in &f.links {
                assert!(l < link_capacity.len(), "flow references unknown link");
            }
        }
        for &c in link_capacity {
            assert!(c > 0.0 && c.is_finite(), "bad link capacity");
        }

        let n = flows.len();
        let mut rate = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        // Remaining capacity per link after subtracting frozen flows.
        let mut remaining: Vec<f64> = link_capacity.to_vec();
        // Sum of active weights per link.
        let mut active_weight = vec![0.0f64; link_capacity.len()];
        for f in flows {
            for &l in &f.links {
                active_weight[l] += f.weight;
            }
        }

        // Flows with a zero cap freeze immediately at rate 0.
        for (i, f) in flows.iter().enumerate() {
            // tidy: allow(float-eq): caps are set to exactly 0.0 to freeze a flow; no arithmetic precedes this
            if f.cap == 0.0 {
                frozen[i] = true;
                for &l in &f.links {
                    active_weight[l] -= f.weight;
                }
            }
        }

        let mut active_count = frozen.iter().filter(|f| !**f).count();
        // Global fill level: every active flow currently has rate weight * t.
        let mut t = 0.0f64;

        while active_count > 0 {
            // Next level at which a link saturates.
            let mut t_next = f64::INFINITY;
            for (l, &cap) in link_capacity.iter().enumerate() {
                let _ = cap;
                if active_weight[l] > 1e-12 {
                    let tl = t + (remaining[l] - active_weight[l] * t).max(0.0) / active_weight[l];
                    // remaining[l] already excludes frozen flows; active flows
                    // currently consume active_weight[l] * t of it.
                    t_next = t_next.min(tl);
                }
            }
            // Next level at which an active flow hits its cap.
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] && f.cap.is_finite() {
                    t_next = t_next.min(f.cap / f.weight);
                }
            }
            if !t_next.is_finite() {
                // No constraint binds the remaining flows (cannot happen if
                // every flow traverses at least one link, which Network
                // guarantees). Freeze at current level defensively.
                for (i, f) in flows.iter().enumerate() {
                    if !frozen[i] {
                        rate[i] = f.weight * t;
                        frozen[i] = true;
                    }
                }
                break;
            }

            t = t_next.max(t);

            // Freeze flows that hit their cap at this level.
            let mut newly_frozen = Vec::new();
            for (i, f) in flows.iter().enumerate() {
                if !frozen[i] && f.cap.is_finite() && f.cap / f.weight <= t + 1e-12 {
                    newly_frozen.push((i, f.cap));
                }
            }
            // Freeze flows on links saturated at this level.
            for (l, &cap) in link_capacity.iter().enumerate() {
                let _ = cap;
                if active_weight[l] > 1e-12 {
                    let used_if = active_weight[l] * t;
                    if used_if + 1e-9 * link_capacity[l] >= remaining[l] {
                        for (i, f) in flows.iter().enumerate() {
                            if !frozen[i] && f.links.contains(&l) {
                                let r = f.weight * t;
                                if !newly_frozen.iter().any(|(j, _)| *j == i) {
                                    newly_frozen.push((i, r));
                                }
                            }
                        }
                    }
                }
            }
            if newly_frozen.is_empty() {
                // Numerical corner: force-freeze the flow closest to its
                // constraint to guarantee progress.
                let mut best: Option<(usize, f64)> = None;
                for (i, f) in flows.iter().enumerate() {
                    if !frozen[i] {
                        let r = (f.weight * t).min(f.cap);
                        if best.is_none() {
                            best = Some((i, r));
                        }
                    }
                }
                if let Some(b) = best {
                    newly_frozen.push(b);
                }
            }
            for (i, r) in newly_frozen {
                if frozen[i] {
                    continue;
                }
                frozen[i] = true;
                active_count -= 1;
                rate[i] = r.min(flows[i].cap);
                for &l in &flows[i].links {
                    active_weight[l] -= flows[i].weight;
                    remaining[l] -= rate[i];
                    if remaining[l] < 0.0 {
                        remaining[l] = 0.0;
                    }
                }
            }
        }

        rate
    }

    fn flow(weight: f64, cap: f64, links: &[usize]) -> FairFlow {
        FairFlow {
            weight,
            cap,
            links: links.to_vec(),
        }
    }

    #[test]
    fn single_flow_gets_link_capacity() {
        let r = solve(&[10.0], &[flow(1.0, f64::INFINITY, &[0])]);
        assert!((r[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_flow_respects_cap() {
        let r = solve(&[10.0], &[flow(1.0, 3.0, &[0])]);
        assert!((r[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn equal_weights_split_evenly() {
        let r = solve(
            &[12.0],
            &[
                flow(1.0, f64::INFINITY, &[0]),
                flow(1.0, f64::INFINITY, &[0]),
                flow(1.0, f64::INFINITY, &[0]),
            ],
        );
        for x in r {
            assert!((x - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weights_bias_the_split() {
        // 8-stream transfer vs background weight 4 on a 12 MB/s link:
        // transfer gets 8/12 of capacity = 8 MB/s.
        let r = solve(
            &[12e6],
            &[
                flow(8.0, f64::INFINITY, &[0]),
                flow(4.0, f64::INFINITY, &[0]),
            ],
        );
        assert!((r[0] - 8e6).abs() < 1.0, "{r:?}");
        assert!((r[1] - 4e6).abs() < 1.0);
    }

    #[test]
    fn capped_flow_releases_capacity_to_others() {
        // Flow 0 capped at 2; flow 1 picks up the rest.
        let r = solve(
            &[12.0],
            &[flow(1.0, 2.0, &[0]), flow(1.0, f64::INFINITY, &[0])],
        );
        assert!((r[0] - 2.0).abs() < 1e-9);
        assert!((r[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn multi_link_bottleneck() {
        // Flow crosses links of capacity 10 and 4: bottlenecked at 4.
        let r = solve(&[10.0, 4.0], &[flow(1.0, f64::INFINITY, &[0, 1])]);
        assert!((r[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn classic_max_min_example() {
        // Two links cap 10. Flow A crosses both; flows B and C cross one
        // each. Max-min: A=5, B=5, C=5.
        let r = solve(
            &[10.0, 10.0],
            &[
                flow(1.0, f64::INFINITY, &[0, 1]),
                flow(1.0, f64::INFINITY, &[0]),
                flow(1.0, f64::INFINITY, &[1]),
            ],
        );
        assert!((r[0] - 5.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 5.0).abs() < 1e-9);
        assert!((r[2] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_freeing_raises_others() {
        // Link 0 cap 6 shared by A (weight 1, also crosses link 1) and B.
        // Link 1 cap 100 shared by A and C. A and B freeze at 3 on link 0,
        // C then gets 97.
        let r = solve(
            &[6.0, 100.0],
            &[
                flow(1.0, f64::INFINITY, &[0, 1]),
                flow(1.0, f64::INFINITY, &[0]),
                flow(1.0, f64::INFINITY, &[1]),
            ],
        );
        assert!((r[0] - 3.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 3.0).abs() < 1e-9);
        assert!((r[2] - 97.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cap_flow_gets_zero() {
        let r = solve(
            &[10.0],
            &[flow(1.0, 0.0, &[0]), flow(1.0, f64::INFINITY, &[0])],
        );
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        assert!(solve(&[10.0], &[]).is_empty());
        let r = solve(&[], &[]);
        assert!(r.is_empty());
    }

    #[test]
    fn no_link_overcommitted_stress() {
        // Random-ish deterministic configuration; verify feasibility and
        // work conservation on the bottleneck.
        let caps = [5.0, 7.0, 3.0, 11.0];
        let flows = vec![
            flow(2.0, 4.0, &[0, 1]),
            flow(1.0, f64::INFINITY, &[1, 2]),
            flow(3.0, 6.5, &[2, 3]),
            flow(1.5, f64::INFINITY, &[0, 3]),
            flow(8.0, f64::INFINITY, &[1]),
        ];
        let r = solve(&caps, &flows);
        let mut used = [0.0f64; 4];
        for (f, &rt) in flows.iter().zip(&r) {
            assert!(rt >= 0.0 && rt <= f.cap + 1e-9);
            for &l in &f.links {
                used[l] += rt;
            }
        }
        for (l, &u) in used.iter().enumerate() {
            assert!(u <= caps[l] + 1e-6, "link {l} overcommitted: {u}");
        }
    }

    fn arb_problem() -> impl Strategy<Value = (Vec<f64>, Vec<FairFlow>)> {
        prop::collection::vec(1e-3f64..1e9, 1..=6).prop_flat_map(|caps| {
            let n_links = caps.len();
            let flow = (
                0.5f64..16.0,
                // None = uncapped; zero caps freeze at once; small caps bind
                // before any link does.
                prop::option::of(prop_oneof![Just(0.0), 1e-3f64..1e3, 1.0f64..2e9]),
                // A route may revisit a link.
                prop::collection::vec(0..n_links, 1..=4),
            )
                .prop_map(|(weight, cap, links)| FairFlow {
                    weight,
                    cap: cap.unwrap_or(f64::INFINITY),
                    links,
                });
            (Just(caps), prop::collection::vec(flow, 0..=24))
        })
    }

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn solver_matches_reference_bit_for_bit(
            problems in prop::collection::vec(arb_problem(), 1..=3),
        ) {
            // One solver across problems of different shapes: state left
            // over from the previous solve must not leak into the next.
            let mut reused = Solver::default();
            for (caps, flows) in &problems {
                let want = bits(&solve_reference(caps, flows));
                prop_assert_eq!(&bits(&solve(caps, flows)), &want);
                reused.begin(caps.iter().copied());
                for f in flows {
                    reused.push_flow(f.weight, f.cap, f.links.iter().copied());
                }
                prop_assert_eq!(&bits(reused.solve()), &want);
            }
        }
    }

    /// One flow over distinct links, each with a background weight that
    /// may fall under the solver's `1e-9` cut.
    fn arb_lone() -> impl Strategy<Value = (f64, f64, Vec<(f64, f64)>)> {
        let link = (
            prop_oneof![Just(1e-3), 1e-3f64..1e9],
            prop_oneof![Just(0.0), Just(1e-10), 1e-3f64..200.0],
        );
        (
            0.5f64..16.0,
            prop_oneof![Just(0.0), Just(f64::INFINITY), 1e-3f64..1e3, 1.0f64..2e9],
            prop::collection::vec(link, 1..=4),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn lone_flow_rate_matches_the_solver_bit_for_bit((weight, cap, links) in arb_lone()) {
            let caps: Vec<f64> = links.iter().map(|&(c, _)| c).collect();
            let mut problem = vec![FairFlow { weight, cap, links: (0..links.len()).collect() }];
            for (l, &(_, w)) in links.iter().enumerate() {
                if w > 1e-9 {
                    problem.push(flow(w, f64::INFINITY, &[l]));
                }
            }
            let want = solve(&caps, &problem)[0];
            let got = lone_flow_rate(weight, cap, links.iter().copied());
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs solver {}", got, want);
        }
    }

    #[test]
    fn link_listed_twice_counts_twice() {
        // A route that revisits a link weighs on it twice, exactly as the
        // reference does.
        let caps = [10.0, 6.0];
        let flows = [flow(1.0, f64::INFINITY, &[0, 1, 0]), flow(2.0, 3.5, &[0])];
        assert_eq!(
            bits(&solve(&caps, &flows)),
            bits(&solve_reference(&caps, &flows))
        );
    }
}
