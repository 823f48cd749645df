//! Per-pair online tournament: a self-tuning meta-predictor that races a
//! candidate suite and serves whichever predictor currently wins — the
//! NWS-style "evaluate a number of techniques and choose the most
//! appropriate one on the fly" extension the paper names as future work
//! (§4.4, §7).
//!
//! The tournament scores each candidate over a rolling window of its
//! most recent errors rather than its all-time running error, so a
//! predictor that was good last week but mistracks the current regime
//! loses its lead within one window. The candidate pool defaults to the
//! paper's 30 variants plus the regression family in both flavours
//! ([`extended_suite`]).
//!
//! ## Selection rule
//!
//! Every scored target updates two leaderboards: a **global** one over
//! the last 50 scored targets and a **per-size-class** one over the last
//! 400 targets of the same class (the paper's §4.3 insight — the best
//! predictor differs per size regime — applied to meta-selection). Class
//! boards see only a fraction of the stream, so their scores are shrunk
//! toward the candidate's global score with 10 pseudo-observations: an
//! immature class board defers to the global ranking, a mature one
//! overrides it. Until any board has evidence, the seeded incumbent
//! (`MED+C`, the paper's recommended classified median) is served. A prediction is served by
//! the target's class leader, falling back to the global leader and then
//! the global ranking when unavailable. On every board the leader is the
//! candidate minimizing `(rolling MAPE, name)`:
//!
//! * candidates that have not scored inside the window rank below every
//!   scored one (their error is treated as `+inf`);
//! * equal errors break ties by **lexicographic candidate name** — the
//!   stable, documented rule, so the winner never depends on suite
//!   registration order; a sitting leader keeps its seat on an exact tie
//!   (a challenger must be strictly better);
//! * `total_cmp` keeps the order total; non-finite errors never enter
//!   the windows in the first place (the `RollingMape` NaN guard).
//!
//! Leadership changes are counted ([`Tournament::switches`]) and surface
//! through the obs layer (`predict.tournament.*`) when replayed or wired
//! into the replica broker. Grid paths are independent — each
//! source/destination pair gets its own tournament via
//! [`PairTournament`], matching the paper's per-pair evaluation.

use std::collections::{BTreeMap, VecDeque};

use wanpred_obs::{names, ObsSink};

use crate::arima;
use crate::classify::SizeClass;
use crate::eval::{EvalOptions, PredictionOutcome, PredictorReport};
use crate::median::median_bandwidth;
use crate::observation::Observation;
use crate::predictor::{mean_bandwidth, BandwidthSums, PredictorSpec};
use crate::registry::{extended_suite, NamedPredictor};
use crate::regression::{self, GramAcc, RegKind, MAX_DIM};
use crate::stats;
use crate::window::Window;

/// Rolling-error window per candidate on the global leaderboard: how
/// many recent scored predictions the ranking considers.
const WINDOW: usize = 50;
/// Rolling-error window on the per-size-class leaderboards. Class boards
/// see only same-class targets — a fraction of the stream — and the
/// small regimes are far noisier, so they need a longer memory than the
/// global board to rank candidates stably.
const CLASS_WINDOW: usize = 400;
/// Hierarchical shrinkage for the per-class leaderboards, in
/// pseudo-observations: a candidate's class score is its class errors
/// blended with `CLASS_PRIOR` virtual samples at its *global* rolling
/// MAPE. An immature class board (few same-class targets) therefore
/// defers to the global ranking, and a mature one overrides it — without
/// this, the first handful of targets in a noisy size class crowns
/// essentially random leaders.
const CLASS_PRIOR: f64 = 10.0;
/// Name of the candidate seeded as every board's initial leader — the
/// incumbent served before the boards have evidence, instead of
/// whichever candidate scored luckily first: the paper's overall
/// recommendation, the classified median. Ignored when absent from the
/// candidate pool.
const SEED_CHAMPION: &str = "MED+C";

/// Options for a [`Tournament`].
#[derive(Debug, Clone, Copy)]
pub struct TournamentOptions {
    /// Observations absorbed before [`replay_tournament`] starts
    /// *reporting* predictions (the paper's 15-value training set, same
    /// default as [`EvalOptions`]). The
    /// tournament itself scores candidates from the first observation
    /// they can predict — the training prefix is unscored in reports
    /// but not unlearned, so the leaderboard is already informed when
    /// reporting begins.
    pub training: usize,
}

impl Default for TournamentOptions {
    fn default() -> Self {
        TournamentOptions {
            training: EvalOptions::default().training,
        }
    }
}

/// Rolling mean absolute percentage error over the last `window` scored
/// predictions: one candidate's score on one leaderboard.
///
/// Only finite errors are retained ([`record`](RollingMape::record)
/// drops NaN/infinite inputs), so [`mape`](RollingMape::mape) is always
/// finite or `None` — an all-zero-measurement stretch, which produces no
/// scorable errors at all under the shared zero-measurement convention,
/// simply leaves the window unchanged rather than surfacing NaN.
///
/// Leaders are ranked on the bits of [`mape`](RollingMape::mape), so it
/// is always `Iterator::sum` over the in-window errors, front to back.
/// Until the window first fills and evicts, that sum is kept running
/// (the same left fold from the same `-0.0`), which makes the read
/// O(1). A full, sliding window has no bit-exact O(1) form and refolds
/// its up to `window` entries on each read.
#[derive(Debug, Clone)]
struct RollingMape {
    window: usize,
    errs: VecDeque<f64>,
    /// `Σ errs` folded as `Iterator::sum` folds it, while nothing has
    /// been evicted; `None` from the first eviction on.
    sum: Option<f64>,
}

impl RollingMape {
    /// Rolling window over the last `window` errors (`window >= 1`).
    fn new(window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one error");
        RollingMape {
            window,
            // No slots until something scores: a tournament holds one
            // of these per candidate per board, and most boards of most
            // pairs stay far below their nominal window.
            errs: VecDeque::new(),
            sum: Some(std::iter::empty::<f64>().sum()),
        }
    }

    /// Record one absolute percentage error, evicting the oldest entry
    /// once the window is full. Non-finite errors are dropped (the NaN
    /// guard) — they carry no ranking information.
    fn record(&mut self, err: f64) {
        if !err.is_finite() {
            return;
        }
        if self.errs.len() == self.window {
            self.errs.pop_front();
            self.sum = None;
        } else if self.errs.len() == self.errs.capacity() {
            // Grow geometrically, but never past the window.
            let target = (self.errs.capacity() * 2).max(4).min(self.window);
            self.errs.reserve_exact(target - self.errs.len());
        }
        if let Some(sum) = &mut self.sum {
            *sum += err;
        }
        self.errs.push_back(err);
    }

    /// Mean of the in-window errors; `None` until something scores. O(1)
    /// until the first eviction, then a front-to-back sum of the full
    /// window (50 on the tournament's global board, 400 on a class
    /// board).
    fn mape(&self) -> Option<f64> {
        if self.errs.is_empty() {
            return None;
        }
        let sum = self.sum.unwrap_or_else(|| self.errs.iter().sum());
        Some(sum / self.errs.len() as f64)
    }

    /// Number of in-window errors.
    fn count(&self) -> usize {
        self.errs.len()
    }
}

/// One arrival-ordered observation stream — every target, or one size
/// class — with the statistics the pool's specs read kept append-only in
/// a form that is *bit-exact*: the running sums are the left fold
/// `Iterator::sum` is, a `total_cmp` sort of the slice yields exactly
/// `sorted`, [`GramAcc::from_slice`] is the same arrival-order merge,
/// and the time-of-day basis is a pure function of `at_unix`. Those are
/// [`Window::All`]'s statistics, and any window that selects the whole
/// stream reads them too. A count-window median reads its own sorted
/// window, kept by one insert and one removal per push. Hour and day
/// windows that select a proper suffix, count-window means and
/// regressions, and AR's centred pass still read `obs`. An accumulator
/// no spec reads is not kept.
#[derive(Clone)]
struct Stream {
    obs: Vec<Observation>,
    sums: BandwidthSums,
    /// Bandwidths in `total_cmp` order (`MED`).
    sorted: Option<Vec<f64>>,
    /// For each count window `n` a median reads (`MED5/15/25`), the
    /// last `n` bandwidths in `total_cmp` order.
    count_sorted: Vec<(usize, Vec<f64>)>,
    /// All-history Gram accumulators, indexed by `RegKind as usize`.
    grams: [Option<GramAcc>; RegKind::ALL.len()],
    /// `RegKind::TimeOfDay`'s basis of each observation, for windowed
    /// time-of-day fits (`REGtod25hr`).
    tod: Option<Vec<[f64; MAX_DIM]>>,
}

impl Stream {
    /// An empty stream keeping what `specs` read.
    fn for_specs(specs: impl Iterator<Item = PredictorSpec>) -> Stream {
        let mut s = Stream {
            obs: Vec::new(),
            sums: BandwidthSums::new(),
            sorted: None,
            count_sorted: Vec::new(),
            grams: [None; RegKind::ALL.len()],
            tod: None,
        };
        for spec in specs {
            match spec {
                PredictorSpec::Median(Window::All) => s.sorted = Some(Vec::new()),
                PredictorSpec::Median(Window::LastN(n))
                    if n > 0 && s.count_sorted.iter().all(|&(m, _)| m != n) =>
                {
                    s.count_sorted.push((n, Vec::new()));
                }
                PredictorSpec::Regression(kind, Window::All) => {
                    s.grams[kind as usize] = Some(GramAcc::default());
                }
                PredictorSpec::Regression(RegKind::TimeOfDay, _) => s.tod = Some(Vec::new()),
                _ => {}
            }
        }
        s
    }

    fn push(&mut self, o: Observation) {
        let v = o.bandwidth_kbs;
        self.sums.push(v, self.obs.is_empty());
        if let Some(sorted) = &mut self.sorted {
            stats::insert_sorted(sorted, v);
        }
        for (n, window) in &mut self.count_sorted {
            if let Some(evicted) = self.obs.len().checked_sub(*n) {
                stats::remove_sorted(window, self.obs[evicted].bandwidth_kbs);
            }
            stats::insert_sorted(window, v);
        }
        for (kind, gram) in RegKind::ALL.into_iter().zip(&mut self.grams) {
            if let Some(g) = gram {
                *g = g.merge(GramAcc::of_obs(kind.basis_of_obs(&o), v));
            }
        }
        if let Some(tod) = &mut self.tod {
            tod.push(RegKind::TimeOfDay.basis_of_obs(&o));
        }
        self.obs.push(o);
    }

    /// Where `spec`'s window starts on this stream at `now`. Its answer
    /// is a function of `obs[start..]` (and, for a regression, of the
    /// target) alone, so specs of one [`family`] whose windows start
    /// at the same place answer alike.
    fn start(&self, spec: PredictorSpec, now: u64) -> usize {
        let w = match spec {
            PredictorSpec::Mean(w)
            | PredictorSpec::Median(w)
            | PredictorSpec::Ar(w)
            | PredictorSpec::Regression(_, w) => w,
            PredictorSpec::Last => Window::LastN(1),
        };
        self.obs.len() - w.select(&self.obs, now).len()
    }

    /// What the standard predictor `spec` describes answers on this
    /// stream, bit for bit, given where its window
    /// [`start`](Stream::start)s.
    fn predict(
        &self,
        spec: PredictorSpec,
        start: usize,
        now: u64,
        target_size: u64,
    ) -> Option<f64> {
        let sel = &self.obs[start..];
        // The whole stream is selected: read the all-history state.
        let whole = start == 0;
        let sums = whole.then_some(self.sums);
        match spec {
            PredictorSpec::Mean(_) => mean_bandwidth(sel, sums.map(|s| s.all)),
            PredictorSpec::Median(w) => {
                let window = self
                    .count_sorted
                    .iter()
                    .find(|&&(n, _)| w == Window::LastN(n));
                match (window, &self.sorted) {
                    (Some((_, sorted)), _) => stats::median_of_sorted(sorted),
                    (None, Some(sorted)) if whole => stats::median_of_sorted(sorted),
                    _ => median_bandwidth(sel),
                }
            }
            PredictorSpec::Ar(_) => arima::predict_selected(sel, sums),
            PredictorSpec::Last => sel.last().map(|o| o.bandwidth_kbs),
            PredictorSpec::Regression(kind, _) => {
                let gram = match (self.grams[kind as usize], &self.tod) {
                    (Some(gram), _) if whole => gram,
                    (_, Some(tod)) if kind == RegKind::TimeOfDay => sel
                        .iter()
                        .zip(&tod[start..])
                        .fold(GramAcc::default(), |acc, (o, &b)| {
                            acc.merge(GramAcc::of_obs(b, o.bandwidth_kbs))
                        }),
                    _ => GramAcc::from_slice(sel, kind),
                };
                let sum = sums.map(|s| s.all);
                regression::predict_selected(kind, sel, gram, sum, now, target_size)
            }
        }
    }
}

/// What a spec's answer depends on besides where its window starts:
/// the estimator, and a regression's covariates — the spec with its
/// window replaced by [`Window::All`].
fn family(spec: PredictorSpec) -> PredictorSpec {
    match spec {
        PredictorSpec::Mean(_) => PredictorSpec::Mean(Window::All),
        PredictorSpec::Median(_) => PredictorSpec::Median(Window::All),
        PredictorSpec::Ar(_) => PredictorSpec::Ar(Window::All),
        PredictorSpec::Last => PredictorSpec::Last,
        PredictorSpec::Regression(kind, _) => PredictorSpec::Regression(kind, Window::All),
    }
}

/// The leaderboard order over candidates scored `mapes`:
/// `(MAPE or +inf, name)` — see the module docs for the selection rule.
fn rank(
    candidates: &[NamedPredictor],
    mapes: &[Option<f64>],
    a: usize,
    b: usize,
) -> std::cmp::Ordering {
    let score = |i: usize| mapes[i].unwrap_or(f64::INFINITY);
    score(a)
        .total_cmp(&score(b))
        .then_with(|| candidates[a].name().cmp(candidates[b].name()))
}

/// An online tournament over a fixed candidate suite for one path.
pub struct Tournament {
    candidates: Vec<NamedPredictor>,
    /// Each candidate's [`NamedPredictor::spec`], read once.
    specs: Vec<Option<PredictorSpec>>,
    /// Global rolling error per candidate (all scored targets).
    scores: Vec<RollingMape>,
    /// Per-size-class rolling error per candidate, indexed
    /// `[candidate][SizeClass::index()]`. Scored only on targets of the
    /// matching class, mirroring the paper's classification insight:
    /// the best predictor differs per size regime.
    class_scores: Vec<[RollingMape; 4]>,
    /// Every absorbed observation in arrival order: what unclassified
    /// candidates see.
    all: Stream,
    /// The same split by size class (`[SizeClass::index()]`): what the
    /// classified half of the pool sees for a target of that class.
    by_class: [Stream; 4],
    opts: TournamentOptions,
    /// Current global leader (index into `candidates`), once anyone has
    /// scored.
    leader: Option<usize>,
    /// Current per-class leaders; a class with no scored targets yet
    /// has none and falls back to the global leader.
    class_leaders: [Option<usize>; 4],
    switches: u64,
    /// [`refresh_leaders`](Tournament::refresh_leaders)' two score
    /// columns, kept between observations.
    board_scratch: [Vec<Option<f64>>; 2],
    /// Per candidate, the nearest earlier candidate of the same
    /// [`family`] on the same stream (same spec up to the window, same
    /// classification): the chain [`observe`](Tournament::observe)
    /// walks to answer each (family, window start) once. Custom
    /// candidates are in no chain.
    same_family_prev: Vec<Option<usize>>,
    /// [`observe`](Tournament::observe)'s scratch: each candidate's
    /// `(window start, prediction)` for the target being scored.
    answers: Vec<(usize, Option<f64>)>,
}

impl Tournament {
    /// Tournament over an explicit candidate suite.
    pub fn new(candidates: Vec<NamedPredictor>, opts: TournamentOptions) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let n = candidates.len();
        let seed = candidates.iter().position(|c| c.name() == SEED_CHAMPION);
        let specs: Vec<Option<PredictorSpec>> = candidates.iter().map(|c| c.spec()).collect();
        // Which accumulators a stream keeps follows from the specs that
        // read it: unclassified candidates read `all`, classified ones
        // their target's class stream.
        let stream_for = |classified: bool| {
            let readers = candidates.iter().zip(&specs);
            Stream::for_specs(
                readers.filter_map(|(c, s)| s.filter(|_| c.is_classified() == classified)),
            )
        };
        let class_stream = stream_for(true);
        let family_of = |i: usize| specs[i].map(|s| (family(s), candidates[i].is_classified()));
        let same_family_prev = (0..n)
            .map(|j| {
                let key = family_of(j)?;
                (0..j).rev().find(|&i| family_of(i) == Some(key))
            })
            .collect();
        Tournament {
            all: stream_for(false),
            by_class: std::array::from_fn(|_| class_stream.clone()),
            candidates,
            specs,
            scores: (0..n).map(|_| RollingMape::new(WINDOW)).collect(),
            class_scores: (0..n)
                .map(|_| std::array::from_fn(|_| RollingMape::new(CLASS_WINDOW)))
                .collect(),
            opts,
            leader: seed,
            class_leaders: [seed; 4],
            switches: 0,
            board_scratch: Default::default(),
            same_family_prev,
            answers: Vec::with_capacity(n),
        }
    }

    /// Tournament over the default pool: the paper's 30 variants plus
    /// the regression family.
    pub fn with_default_suite(opts: TournamentOptions) -> Self {
        Tournament::new(extended_suite(), opts)
    }

    /// Feed one measured transfer: every candidate is scored on how
    /// well it would have predicted it (zero measurements are skipped,
    /// per the shared error convention; non-finite errors are dropped
    /// by the rolling windows), the observation joins the history, and
    /// the leaderboard is refreshed.
    pub fn observe(&mut self, o: Observation) {
        let class = SizeClass::of_bytes(o.file_size).index();
        // tidy: allow(float-eq): exact zero-measurement sentinel, same convention as eval::abs_pct_error
        if !self.all.obs.is_empty() && o.bandwidth_kbs != 0.0 {
            let mut answers = std::mem::take(&mut self.answers);
            answers.clear();
            for i in 0..self.candidates.len() {
                let answer = self.answer(i, class, o.at_unix, o.file_size, &answers);
                answers.push(answer);
                if let (_, Some(pred)) = answer {
                    let err = (o.bandwidth_kbs - pred).abs() / o.bandwidth_kbs.abs() * 100.0;
                    self.scores[i].record(err);
                    self.class_scores[i][class].record(err);
                }
            }
            self.answers = answers;
        }
        self.all.push(o);
        self.by_class[class].push(o);
        self.refresh_leaders(class);
    }

    /// The stream candidate `i` reads for a target of size class
    /// `class`.
    fn stream(&self, i: usize, class: usize) -> &Stream {
        if self.candidates[i].is_classified() {
            &self.by_class[class]
        } else {
            &self.all
        }
    }

    /// Candidate `i`'s prediction for a target of size class `class`.
    fn candidate_predict(&self, i: usize, class: usize, now: u64, target_size: u64) -> Option<f64> {
        self.answer(i, class, now, target_size, &[]).1
    }

    /// Candidate `i`'s prediction for a target of size class `class`,
    /// with where its window starts: by spec against its stream's
    /// accumulators, or, for a custom candidate, its own `predict_sized`
    /// over the stream's slice (start `usize::MAX`, which nothing
    /// reads). An earlier candidate of its family whose window starts at
    /// the same place has already answered, if `answers` (candidates
    /// `0..i`'s, in an `observe`) holds it.
    fn answer(
        &self,
        i: usize,
        class: usize,
        now: u64,
        target_size: u64,
        answers: &[(usize, Option<f64>)],
    ) -> (usize, Option<f64>) {
        let stream = self.stream(i, class);
        let Some(spec) = self.specs[i] else {
            let pred = self.candidates[i].predict_seen(&stream.obs, now, target_size);
            return (usize::MAX, pred);
        };
        let start = stream.start(spec, now);
        let mut prev = self.same_family_prev[i];
        while let Some(j) = prev {
            if let Some(&answer) = answers.get(j).filter(|a| a.0 == start) {
                return answer;
            }
            prev = self.same_family_prev[j];
        }
        (start, stream.predict(spec, start, now, target_size))
    }

    /// Rolling MAPE of a candidate by index, if it has scored in-window.
    pub fn rolling_mape(&self, idx: usize) -> Option<f64> {
        self.scores[idx].mape()
    }

    /// The candidate names, in registration order.
    pub fn candidate_names(&self) -> Vec<&str> {
        self.candidates.iter().map(|p| p.name()).collect()
    }

    /// The current global winner's name, once any candidate has scored.
    pub fn winner(&self) -> Option<&str> {
        self.leader.map(|i| self.candidates[i].name())
    }

    /// The current winner for one size class, once any candidate has
    /// scored on targets of that class.
    pub fn class_winner(&self, class: SizeClass) -> Option<&str> {
        self.class_leaders[class.index()].map(|i| self.candidates[i].name())
    }

    /// How many times leadership has changed hands between scored
    /// candidates, summed over the global and per-class leaderboards
    /// (initial takeovers are not switches).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of absorbed observations.
    pub fn observed(&self) -> usize {
        self.all.obs.len()
    }

    /// Timestamp of the newest absorbed observation — consumers (the
    /// replica broker) use `now - last_observed_at` as the estimate's
    /// age when ranking against other information sources.
    pub fn last_observed_at(&self) -> Option<u64> {
        self.all.obs.last().map(|o| o.at_unix)
    }

    /// Refresh one leaderboard's leader slot from its per-candidate
    /// rolling MAPEs, counting the switch. The best candidate is
    /// `(MAPE or +inf, name)`-minimal; an unscored board crowns nobody.
    fn refresh_board(
        candidates: &[NamedPredictor],
        mapes: &[Option<f64>],
        leader: &mut Option<usize>,
        switches: &mut u64,
    ) {
        let best = (0..candidates.len())
            .min_by(|&a, &b| rank(candidates, mapes, a, b))
            .expect("candidates is non-empty by construction");
        if mapes[best].is_none() {
            // Nobody has scored on this board yet; no leader to crown.
            return;
        }
        match *leader {
            Some(old) if old != best => {
                // The challenger must be strictly better: a tied
                // incumbent keeps its seat. An incumbent whose score left
                // the window (`+inf`) always loses.
                let challenger = mapes[best].unwrap_or(f64::INFINITY);
                let incumbent = mapes[old].unwrap_or(f64::INFINITY);
                if challenger < incumbent {
                    *leader = Some(best);
                    *switches += 1;
                }
            }
            None => *leader = Some(best),
            _ => {}
        }
    }

    /// Refresh the global leaderboard and the one class leaderboard
    /// that just absorbed a target.
    fn refresh_leaders(&mut self, class: usize) {
        let [mut global, mut per_class] = std::mem::take(&mut self.board_scratch);
        global.clear();
        global.extend(self.scores.iter().map(RollingMape::mape));
        Self::refresh_board(
            &self.candidates,
            &global,
            &mut self.leader,
            &mut self.switches,
        );
        // Class score with shrinkage: `CLASS_PRIOR` virtual samples at
        // the candidate's global MAPE anchor immature class boards to
        // the global ranking. A candidate unscored on both boards stays
        // unscored (None).
        per_class.clear();
        per_class.extend(self.class_scores.iter().zip(&global).map(|(boards, g)| {
            let b = &boards[class];
            match (b.mape(), *g) {
                (Some(cm), Some(gm)) => {
                    let n = b.count() as f64;
                    Some((n * cm + CLASS_PRIOR * gm) / (n + CLASS_PRIOR))
                }
                (cm, None) => cm,
                (None, gm) => gm,
            }
        }));
        Self::refresh_board(
            &self.candidates,
            &per_class,
            &mut self.class_leaders[class],
            &mut self.switches,
        );
        self.board_scratch = [global, per_class];
    }

    /// Predict for a transfer of `target_size` at `now`: the target's
    /// size-class leader is tried first (the best candidate *for this
    /// size regime*), then the global leader, then the rest of the
    /// global ranking (ties broken by name) until someone answers.
    /// Returns `(candidate name, prediction)`.
    pub fn predict(&self, now: u64, target_size: u64) -> Option<(&str, f64)> {
        let class = SizeClass::of_bytes(target_size).index();
        for i in [self.class_leaders[class], self.leader]
            .into_iter()
            .flatten()
        {
            if let Some(pred) = self.candidate_predict(i, class, now, target_size) {
                return Some((self.candidates[i].name(), pred));
            }
        }
        let global: Vec<Option<f64>> = self.scores.iter().map(RollingMape::mape).collect();
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by(|&a, &b| rank(&self.candidates, &global, a, b));
        for i in order {
            if let Some(pred) = self.candidate_predict(i, class, now, target_size) {
                return Some((self.candidates[i].name(), pred));
            }
        }
        None
    }
}

/// The result of replaying a series through a tournament.
#[derive(Debug, Clone)]
pub struct TournamentReport {
    /// Per-target outcomes in the same shape as a fixed predictor's
    /// report (name `TOURN`), so MAPE/percentile accessors apply.
    pub report: PredictorReport,
    /// Leadership changes over the replay.
    pub switches: u64,
    /// The winner at the end of the replay, if anyone scored.
    pub final_winner: Option<String>,
}

/// Replay a time-ordered series through a tournament, mirroring the
/// evaluation engines' protocol: after the training prefix, each
/// observation is first predicted (scored into the report), then fed to
/// the tournament. Emits `predict.tournament.*` metrics to `obs`.
pub fn replay_tournament(
    series: &[Observation],
    mut t: Tournament,
    obs: &ObsSink,
) -> TournamentReport {
    let training = t.opts.training;
    let mut report = PredictorReport {
        name: "TOURN".to_string(),
        outcomes: Vec::new(),
        declined: 0,
    };
    for (i, o) in series.iter().enumerate() {
        if i >= training {
            match t.predict(o.at_unix, o.file_size) {
                Some((_, pred)) => report.outcomes.push(PredictionOutcome {
                    at_unix: o.at_unix,
                    measured: o.bandwidth_kbs,
                    predicted: pred,
                    class: SizeClass::of_bytes(o.file_size),
                }),
                None => report.declined += 1,
            }
        }
        t.observe(*o);
    }
    obs.inc_by(
        names::PREDICT_TOURNAMENT_PREDICTIONS,
        report.outcomes.len() as u64,
    );
    obs.inc_by(names::PREDICT_TOURNAMENT_SWITCHES, t.switches());
    obs.gauge(
        names::PREDICT_TOURNAMENT_CANDIDATES,
        t.candidates.len() as f64,
    );
    TournamentReport {
        report,
        switches: t.switches(),
        final_winner: t.winner().map(str::to_string),
    }
}

/// Independent tournaments per source/destination pair. Deterministic
/// iteration (BTreeMaps, `src` then `dst` — the order of a
/// `(src, dst)`-keyed map) keeps multi-pair replays reproducible, and
/// nesting them lets a pair be looked up by borrowed `&str`: a `String`
/// is allocated only when a pair is first seen, not per record.
pub struct PairTournament {
    opts: TournamentOptions,
    suite: fn() -> Vec<NamedPredictor>,
    pairs: BTreeMap<String, BTreeMap<String, Tournament>>,
}

impl PairTournament {
    /// One tournament per pair, each over the default extended suite.
    pub fn new(opts: TournamentOptions) -> Self {
        PairTournament {
            opts,
            suite: extended_suite,
            pairs: BTreeMap::new(),
        }
    }

    /// Feed one observation for a pair, creating its tournament on
    /// first contact.
    pub fn observe(&mut self, src: &str, dst: &str, o: Observation) {
        self.tournament_mut(src, dst).observe(o);
    }

    /// Predict for a pair; `None` for never-seen pairs.
    pub fn predict(&self, src: &str, dst: &str, now: u64, target_size: u64) -> Option<(&str, f64)> {
        self.tournament(src, dst)?.predict(now, target_size)
    }

    /// The pair's tournament, created on demand.
    pub fn tournament_mut(&mut self, src: &str, dst: &str) -> &mut Tournament {
        if !self.pairs.contains_key(src) {
            self.pairs.insert(src.to_string(), BTreeMap::new());
        }
        let by_dst = self.pairs.get_mut(src).expect("inserted above if absent");
        if !by_dst.contains_key(dst) {
            by_dst.insert(dst.to_string(), Tournament::new((self.suite)(), self.opts));
        }
        by_dst.get_mut(dst).expect("inserted above if absent")
    }

    /// The pair's tournament, if it exists.
    pub fn tournament(&self, src: &str, dst: &str) -> Option<&Tournament> {
        self.pairs.get(src)?.get(dst)
    }

    /// Every pair's tournament, in `(src, dst)` order.
    fn tournaments(&self) -> impl Iterator<Item = &Tournament> {
        self.pairs.values().flat_map(BTreeMap::values)
    }

    /// Total leadership switches across pairs.
    pub fn switches(&self) -> u64 {
        self.tournaments().map(Tournament::switches).sum()
    }

    /// Number of tracked pairs.
    pub fn len(&self) -> usize {
        self.tournaments().count()
    }

    /// Whether no pair has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PAPER_MB;
    use crate::last::LastValue;
    use crate::mean::MeanPredictor;
    use crate::median::MedianPredictor;
    use crate::window::Window;
    use proptest::prelude::*;

    fn obs(i: u64, bw: f64) -> Observation {
        Observation::new(1_000 + i * 60, bw, 100 * PAPER_MB)
    }

    fn small_pool() -> Vec<NamedPredictor> {
        vec![
            NamedPredictor::new(Box::new(LastValue::new()), false),
            NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), false),
        ]
    }

    fn opts(training: usize) -> TournamentOptions {
        TournamentOptions { training }
    }

    #[test]
    fn rolling_mape_allocates_on_first_use_and_never_past_its_window() {
        let mut m = RollingMape::new(400);
        assert_eq!(m.errs.capacity(), 0, "a fresh board owns no heap slots");
        m.record(f64::NAN);
        assert_eq!(m.errs.capacity(), 0, "dropped errors allocate nothing");
        for i in 0..1_000 {
            m.record(i as f64);
            assert!(m.errs.capacity() <= 400);
        }
        assert_eq!(m.count(), 400);
        assert_eq!(m.mape(), Some((600..1_000).sum::<i32>() as f64 / 400.0));
        let mut one = RollingMape::new(1);
        one.record(1.0);
        one.record(3.0);
        assert_eq!((one.count(), one.mape()), (1, Some(3.0)));
    }

    /// An error as the boards see them, and what they must drop: ±0,
    /// repeats of a few small values, magnitudes far apart (so that
    /// reassociating the sum would move its bits) and non-finite inputs.
    fn arb_err() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            (0usize..3).prop_map(|i| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i]),
            (0usize..3).prop_map(|i| [0.1, 1.0 / 3.0, 7.0][i]),
            0.0f64..100.0,
            1e15f64..1e17,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every `record`, `mape` is `Iterator::sum` over the last
        /// `window` finite errors divided by their count, bit for bit —
        /// while the running sum serves it and after the first eviction.
        #[test]
        fn rolling_mape_is_the_in_window_sum_after_every_record(
            window in (0usize..4).prop_map(|i| [1, 2, 50, 400][i]),
            errs in prop::collection::vec(arb_err(), 0..900),
        ) {
            let mut board = RollingMape::new(window);
            let mut finite = Vec::new();
            for (i, &err) in errs.iter().enumerate() {
                board.record(err);
                if err.is_finite() {
                    finite.push(err);
                }
                let in_window = &finite[finite.len().saturating_sub(window)..];
                let want = (!in_window.is_empty())
                    .then(|| in_window.iter().sum::<f64>() / in_window.len() as f64);
                prop_assert_eq!(board.count(), in_window.len());
                prop_assert_eq!(
                    board.mape().map(f64::to_bits),
                    want.map(f64::to_bits),
                    "window {} after record {} ({})", window, i, err
                );
            }
        }
    }

    #[test]
    fn predict_before_any_history_declines() {
        let t = Tournament::new(small_pool(), opts(2));
        assert!(t.predict(0, PAPER_MB).is_none());
        assert_eq!(t.winner(), None);
    }

    #[test]
    fn rolling_window_recovers_from_regime_change() {
        // Phase 1: alternating noise — AVG wins. Phase 2: a step series
        // — LV must take the lead once the window rolls over, which the
        // all-time selector would take far longer to concede.
        let mut t = Tournament::new(small_pool(), opts(5));
        for i in 0..2 * WINDOW as u64 {
            let bw = if i % 2 == 0 { 90.0 } else { 110.0 };
            t.observe(obs(i, bw));
        }
        assert_eq!(t.winner(), Some("AVG"));
        for i in 2 * WINDOW as u64..4 * WINDOW as u64 {
            let bw = if (i / 10) % 2 == 0 { 500.0 } else { 1_500.0 };
            t.observe(obs(i, bw));
        }
        assert_eq!(t.winner(), Some("LV"));
        assert!(t.switches() >= 1);
    }

    #[test]
    fn ties_break_by_name_regardless_of_order() {
        let mk = |reversed: bool| {
            let mut pool = vec![
                NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), false),
                NamedPredictor::new(Box::new(MeanPredictor::new(Window::LastN(1_000))), false),
            ];
            if reversed {
                pool.reverse();
            }
            let mut t = Tournament::new(pool, opts(2));
            for i in 0..12 {
                t.observe(obs(i, 100.0 + (i % 3) as f64));
            }
            t.winner().map(str::to_string)
        };
        assert_eq!(mk(false), Some("AVG".to_string()));
        assert_eq!(mk(true), Some("AVG".to_string()));
    }

    #[test]
    fn nan_measurements_never_reach_the_windows() {
        let mut t = Tournament::new(small_pool(), opts(2));
        for i in 0..8 {
            t.observe(obs(i, 100.0));
        }
        t.observe(obs(8, f64::NAN));
        t.observe(obs(9, 100.0));
        for i in 0..2 {
            if let Some(m) = t.rolling_mape(i) {
                assert!(m.is_finite(), "candidate {i} mape {m}");
            }
        }
        assert!(t.winner().is_some());
    }

    #[test]
    fn zero_measurements_skip_scoring() {
        let mut t = Tournament::new(small_pool(), opts(2));
        for i in 0..6 {
            t.observe(obs(i, 100.0));
        }
        let counts: Vec<usize> = (0..2).map(|i| t.scores[i].count()).collect();
        t.observe(obs(6, 0.0));
        assert_eq!(
            counts,
            (0..2).map(|i| t.scores[i].count()).collect::<Vec<_>>()
        );
        assert_eq!(t.observed(), 7);
    }

    #[test]
    fn initial_takeover_is_not_a_switch() {
        let mut t = Tournament::new(small_pool(), opts(2));
        for i in 0..6 {
            t.observe(obs(i, 100.0));
        }
        assert!(t.winner().is_some());
        assert_eq!(t.switches(), 0);
    }

    #[test]
    fn predict_falls_back_when_winner_declines() {
        // Classified AVG declines for an unseen class; plain AVG answers.
        let pool = vec![
            NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), true),
            NamedPredictor::new(Box::new(MeanPredictor::new(Window::All)), false),
        ];
        let mut t = Tournament::new(pool, opts(2));
        for i in 0..10 {
            t.observe(obs(i, 100.0));
        }
        // Target in the 1 GB class, which has no history: the classified
        // variant declines, the unclassified one serves.
        let (name, pred) = t.predict(10_000, 1_000 * PAPER_MB).unwrap();
        assert_eq!(name, "AVG");
        assert_eq!(pred, 100.0);
    }

    #[test]
    fn seeded_champion_serves_until_dethroned() {
        let pool = vec![
            NamedPredictor::new(Box::new(LastValue::new()), false),
            NamedPredictor::new(Box::new(MedianPredictor::new(Window::All)), true),
        ];
        let mut t = Tournament::new(pool, opts(2));
        assert_eq!(t.winner(), Some(SEED_CHAMPION));
        // One observation: nothing is scored yet, the seed serves.
        t.observe(obs(0, 100.0));
        assert_eq!(t.winner(), Some(SEED_CHAMPION));
        assert_eq!(t.predict(10_000, 100 * PAPER_MB).unwrap().0, SEED_CHAMPION);
        // A steep ramp: LV tracks it, the median lags far behind — the
        // seed is dethroned on evidence, and that dethroning is a switch.
        for i in 1..12 {
            t.observe(obs(i, 100.0 * (i + 1) as f64));
        }
        assert_eq!(t.winner(), Some("LV"));
        assert!(t.switches() >= 1);
    }

    #[test]
    fn immature_class_board_defers_to_global() {
        // Alternating noise: AVG (~10% rolling error) beats LV (~20%).
        // Then a single 1 GB target that LV happens to nail exactly.
        let mut t = Tournament::new(small_pool(), opts(2));
        for i in 0..30 {
            t.observe(obs(i, if i % 2 == 0 { 90.0 } else { 110.0 }));
        }
        t.observe(Observation::new(1_000 + 30 * 60, 110.0, 1_000 * PAPER_MB));
        // Unshrunk, that one lucky sample would crown LV; with the prior
        // the immature board stays with the globally stronger AVG.
        let c1gb = SizeClass::C1GB.index();
        assert_eq!(t.class_scores[0][c1gb].mape(), Some(0.0), "LV nailed it");
        assert!(t.class_scores[1][c1gb].mape() > Some(0.0));
        assert_eq!(t.class_winner(SizeClass::C1GB), Some("AVG"));
    }

    #[test]
    fn same_series_replays_bit_identically() {
        let series: Vec<Observation> = (0..80)
            .map(|i| obs(i, 200.0 + (i as f64 * 13.0) % 70.0))
            .collect();
        let run = || {
            replay_tournament(
                &series,
                Tournament::new(small_pool(), opts(5)),
                &ObsSink::disabled(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.final_winner, b.final_winner);
        assert_eq!(a.report.outcomes.len(), b.report.outcomes.len());
        for (x, y) in a.report.outcomes.iter().zip(&b.report.outcomes) {
            assert_eq!(x.predicted.to_bits(), y.predicted.to_bits());
        }
    }

    #[test]
    fn replay_produces_fixed_report_shape() {
        let series: Vec<Observation> = (0..60)
            .map(|i| obs(i, 300.0 + (i as f64 * 17.0) % 90.0))
            .collect();
        let t = Tournament::new(small_pool(), opts(15));
        let out = replay_tournament(&series, t, &ObsSink::disabled());
        assert_eq!(out.report.name, "TOURN");
        assert_eq!(
            out.report.outcomes.len() + out.report.declined,
            series.len() - 15
        );
        assert!(out.report.mape().is_some());
        assert!(out.final_winner.is_some());
    }

    #[test]
    fn pair_tournaments_are_independent() {
        let mut pt = PairTournament::new(opts(2));
        assert!(pt.is_empty());
        assert_eq!((pt.len(), pt.switches()), (0, 0));
        // Arrival order is not key order, and "an"/"lisi" would collide
        // with "anl"/"isi" under a concatenated key.
        for i in 0..8 {
            pt.observe("anl", "lbl", obs(i, 9_000.0));
            pt.observe("lbl", "anl", obs(i, 500.0));
            pt.observe("anl", "isi", obs(i, 100.0));
            pt.observe("an", "lisi", obs(i, 7.0));
        }
        assert_eq!(pt.len(), 4);
        assert!(!pt.is_empty());
        for (src, dst, want) in [
            ("anl", "isi", 100.0),
            ("anl", "lbl", 9_000.0),
            ("lbl", "anl", 500.0),
            ("an", "lisi", 7.0),
        ] {
            let (_, got) = pt.predict(src, dst, 10_000, 100 * PAPER_MB).unwrap();
            assert_eq!(got, want, "{src}->{dst}");
            assert_eq!(pt.tournament(src, dst).unwrap().observed(), 8);
        }
        // Lookups never create a pair; only observation does.
        assert!(pt.predict("anl", "ucb", 10_000, PAPER_MB).is_none());
        assert!(pt.tournament("isi", "anl").is_none());
        assert_eq!(pt.len(), 4);
        // Iteration is (src, dst)-ordered, as the tuple-keyed map was.
        let order: Vec<(&str, &str)> = pt
            .pairs
            .iter()
            .flat_map(|(s, by_dst)| by_dst.keys().map(move |d| (s.as_str(), d.as_str())))
            .collect();
        assert_eq!(
            order,
            [
                ("an", "lisi"),
                ("anl", "isi"),
                ("anl", "lbl"),
                ("lbl", "anl")
            ]
        );
        // One pair's regime change switches only that pair's leader.
        let before = pt.switches();
        for i in 8..40 {
            let bw = if (i / 8) % 2 == 0 { 500.0 } else { 1_500.0 };
            pt.tournament_mut("anl", "isi").observe(obs(i, bw));
        }
        let isi = pt.tournament("anl", "isi").unwrap().switches();
        assert!(isi >= 1);
        assert_eq!(pt.switches(), before + isi);
    }
}
