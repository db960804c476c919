//! The streaming offer engine: flat enumeration, per-variant score
//! precomputation, and lazy best-first classification.
//!
//! The paper's steps 3–4 cost, score and sort *every* feasible system
//! offer before step 5 walks the ordered list — but in the common case the
//! first offer (or a short prefix) commits, so the full
//! materialize-and-sort is wasted work on the hot path. The scoring
//! kernels are separable over components:
//!
//! * `QoS_importance` is a **sum** of per-variant media importances;
//! * formula (1) cost is `CostCop + Σᵢ (CostNetᵢ + CostSerᵢ)` — additive
//!   per component in exact integer [`Money`];
//! * the SNS predicates (`desired.met_by`, `worst.met_by`) are per-variant
//!   conjunctions, and the cost ceiling is a predicate on the sum.
//!
//! [`OfferEngine`] exploits that structure: it clones the per-component
//! feasible variants once, precomputes each variant's partial scores
//! (importance, `CostNet + CostSer` for its duration, SNS flags), and then
//!
//! * **ranks** the whole product as plain data ([`RankedOffers`]: one
//!   small `Copy` [`ScoredCombo`] per offer, sorted by the classification
//!   order — bit-identical to [`classify`](crate::classify()) on the eagerly
//!   enumerated offers — paired with its engine, which turns an entry into
//!   a [`ScoredOffer`] only when step 5 attempts it or somebody reads the
//!   list as a slice), or
//! * **streams** offers in classified / reservation order lazily
//!   ([`OfferEngine::classified_stream`], `reservation_stream`): a binary
//!   heap over per-component variant lists sorted by score contribution,
//!   with Lawler-style successor expansion, yields the best remaining
//!   combination in O(k log n) per offer without touching the rest of the
//!   product.
//!
//! Exactness: per-offer scores are combined from the precomputed partials
//! in document component order with the same fold [`ScoredOffer::score`]
//! uses, so OIF values are bit-identical and ties resolve identically. The
//! stream's heap is ordered by that exact key; a small reorder buffer
//! (`KEY_SLACK`) absorbs the ≤ few-ULP disagreement between "sorted
//! per-component contributions" and the exactly-rounded sum, so the
//! emission order matches the ranked list *including ties* (equal keys
//! emit in enumeration-rank order).
//!
//! Streaming is declined ([`OfferEngine::streaming_supported`]) when a
//! profile produces non-finite importances (best-first pruning is unsound
//! under NaN) or the document has more components than the packed state
//! supports; callers then walk the ranked list, which handles both.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

use nod_cmfs::Guarantee;
use nod_mmdoc::{MonomediaId, Variant};

use crate::classify::{sort_key_cmp, ClassificationStrategy, ScoredOffer};
use crate::cost::CostModel;
use crate::money::Money;
use crate::offer::{EnumerationError, SystemOffer};
use crate::profile::UserProfile;
use crate::sns::StaticNegotiationStatus;

/// Maximum component count the packed heap state supports. Documents with
/// more monomedia are walked from the ranked list instead.
pub const MAX_STREAM_COMPONENTS: usize = 8;

/// Absolute slack on the best-first emission guard. Keys within this band
/// of the heap frontier are held in the reorder buffer until the frontier
/// drops below, then emitted in exact `(key, rank)` order. Must exceed the
/// worst-case rounding disagreement between a state's exactly-computed key
/// and the non-increasing real-valued path bound (≲ 1e-10 for sums of at
/// most nine double terms at these magnitudes); must stay below genuine
/// key differences, which derive from milli-dollar cost grids and anchored
/// importance values. Violating the upper bound only delays emission, it
/// never reorders it.
const KEY_SLACK: f64 = 1e-6;

/// Per-variant precomputed partial scores.
#[derive(Debug, Clone)]
struct VariantScore {
    /// `media_importance` of the variant's QoS.
    importance: f64,
    /// `CostNetᵢ` and `CostSerᵢ` for this component's duration (kept apart
    /// so explain's score rows can cite the split without re-pricing).
    net: Money,
    ser: Money,
    /// Does the variant meet the profile's *desired* spec?
    meets_desired: bool,
    /// Does the variant meet the profile's *worst acceptable* spec?
    meets_worst: bool,
}

impl VariantScore {
    fn cost(&self) -> Money {
        self.net + self.ser
    }
}

/// One document component: the owned feasible variants plus their scores.
#[derive(Debug, Clone)]
struct Component {
    variants: Vec<Variant>,
    scores: Vec<VariantScore>,
}

/// One system offer as plain data, scored exactly as [`ScoredOffer::score`]
/// would score it. The chosen variants are not stored: they are decoded
/// from `rank` and the engine's strides ([`OfferEngine::materialize`]).
#[derive(Debug, Clone, Copy)]
pub struct ScoredCombo {
    /// Lexicographic enumeration rank of the combination — its index in
    /// the eager enumeration order.
    pub rank: u64,
    /// Formula (1) document cost.
    pub cost: Money,
    /// QoS importance (sum of per-variant importances).
    pub qos_importance: f64,
    /// Overall importance factor.
    pub oif: f64,
    /// Static negotiation status.
    pub sns: StaticNegotiationStatus,
    /// Worst-acceptable QoS met *and* within the cost ceiling.
    pub satisfies_request: bool,
}

/// Add one offer to the `(desirable, acceptable, constraint)` populations.
fn tally(census: &mut (u64, u64, u64), sns: StaticNegotiationStatus) {
    match sns {
        StaticNegotiationStatus::Desirable => census.0 += 1,
        StaticNegotiationStatus::Acceptable => census.1 += 1,
        StaticNegotiationStatus::Constraint => census.2 += 1,
    }
}

/// Which sorted-contribution axis a stream orders by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyKind {
    /// OIF descending (SnsThenOif phases and OifOnly).
    Oif,
    /// Cost ascending.
    Cost,
    /// QoS importance descending.
    Qos,
}

impl KeyKind {
    fn for_strategy(strategy: ClassificationStrategy) -> KeyKind {
        match strategy {
            ClassificationStrategy::SnsThenOif | ClassificationStrategy::OifOnly => KeyKind::Oif,
            ClassificationStrategy::CostOnly => KeyKind::Cost,
            ClassificationStrategy::QosOnly => KeyKind::Qos,
        }
    }
}

/// Which variants a phase enumerates per component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mask {
    Full,
    Desired,
    Worst,
    DesiredAndWorst,
}

/// Which combinations a phase emits (evaluated on the whole combination:
/// `all_des` / `all_wst` are the per-component conjunctions, `within` is
/// `cost ≤ max_cost`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Filter {
    All,
    /// `within` — Desirable under a Desired mask; satisfying under a
    /// Worst mask.
    Within,
    /// `within ∧ ¬all_des` — Acceptable ∩ satisfying (Worst mask).
    WithinNotAllDesired,
    /// `within ∧ ¬all_wst` — Desirable ∖ satisfying (Desired mask).
    WithinNotAllWorst,
    /// `¬within` — Acceptable ∖ satisfying (Worst mask).
    NotWithin,
    /// `¬(all_des ∧ within)` — Acceptable (Worst mask).
    NotDesirable,
    /// `¬all_wst ∧ ¬(all_des ∧ within)` — Constraint (Full mask).
    Constraint,
    /// `¬(all_wst ∧ within)` — the non-satisfying tail (Full mask).
    NotSatisfying,
}

impl Filter {
    fn accepts(self, all_des: bool, all_wst: bool, within: bool) -> bool {
        match self {
            Filter::All => true,
            Filter::Within => within,
            Filter::WithinNotAllDesired => within && !all_des,
            Filter::WithinNotAllWorst => within && !all_wst,
            Filter::NotWithin => !within,
            Filter::NotDesirable => !(all_des && within),
            Filter::Constraint => !(all_wst || (all_des && within)),
            Filter::NotSatisfying => !(all_wst && within),
        }
    }
}

/// A best-first frontier state: a packed position vector plus its exact
/// key. Plain data — the streaming path allocates nothing per combination
/// beyond amortized heap growth.
#[derive(Debug, Clone, Copy)]
struct State {
    /// Exact strategy key, negated-cost for CostOnly so "larger is better"
    /// holds uniformly.
    key: f64,
    /// Enumeration (arena) rank — the explicit tertiary tie key. Equal
    /// strategy keys emit in rank order, matching the tertiary key
    /// [`crate::classify::classify`] sorts by on the eager path.
    rank: u64,
    /// Document cost (for filters and emission).
    cost: Money,
    /// Per-component index into the phase's *sorted* lists.
    pos: [u16; MAX_STREAM_COMPONENTS],
    /// Successor rule: only components ≥ `last` advance, so every
    /// combination is generated exactly once (its unique non-decreasing
    /// increment path).
    last: u8,
    all_des: bool,
    all_wst: bool,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    /// Max-heap priority: larger key first, then smaller rank first.
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

/// Counters describing how hard a stream worked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Combinations emitted to the caller.
    pub yielded: usize,
    /// Frontier states pushed onto the heap (including filtered ones).
    pub heap_pushes: usize,
    /// Frontier states popped and expanded.
    pub expanded: usize,
}

/// The per-negotiation offer engine (see the module docs).
#[derive(Debug, Clone)]
pub struct OfferEngine {
    components: Vec<Component>,
    strategy: ClassificationStrategy,
    copyright: Money,
    cost_per_dollar: f64,
    max_cost: Money,
    total: usize,
    strides: Vec<u64>,
    finite: bool,
}

impl OfferEngine {
    /// Build the engine over step 2's per-component feasible variants:
    /// clone the variants, precompute every per-variant partial score.
    /// Fails exactly like the eager enumeration (no feasible variant for a
    /// component, or the product exceeds `cap`).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        per_mono: &[(MonomediaId, Vec<&Variant>)],
        durations: &HashMap<MonomediaId, u64>,
        profile: &UserProfile,
        cost_model: &CostModel,
        guarantee: Guarantee,
        strategy: ClassificationStrategy,
        cap: usize,
    ) -> Result<OfferEngine, EnumerationError> {
        for (mono, variants) in per_mono {
            if variants.is_empty() {
                return Err(EnumerationError::NoFeasibleVariant(*mono));
            }
        }
        let total: usize = per_mono
            .iter()
            .map(|(_, v)| v.len())
            .try_fold(1usize, |acc, n| acc.checked_mul(n))
            .ok_or(EnumerationError::TooManyOffers { cap })?;
        if total > cap {
            return Err(EnumerationError::TooManyOffers { cap });
        }
        let mut finite = profile.importance.cost_per_dollar.is_finite();
        let components: Vec<Component> = per_mono
            .iter()
            .map(|(mono, variants)| {
                let duration_ms = durations.get(mono).copied().unwrap_or(0);
                let scores: Vec<VariantScore> = variants
                    .iter()
                    .map(|v| {
                        let importance = profile.importance.media_importance(&v.qos);
                        finite &= importance.is_finite();
                        let (net, ser) = cost_model.monomedia_cost(v, duration_ms, guarantee);
                        VariantScore {
                            importance,
                            net,
                            ser,
                            meets_desired: profile.desired.met_by(&v.qos),
                            meets_worst: profile.worst.met_by(&v.qos),
                        }
                    })
                    .collect();
                Component {
                    variants: variants.iter().map(|&v| v.clone()).collect(),
                    scores,
                }
            })
            .collect();
        // Lexicographic rank strides: last component varies fastest.
        let mut strides = vec![1u64; components.len()];
        for c in (0..components.len().saturating_sub(1)).rev() {
            strides[c] = strides[c + 1] * components[c + 1].variants.len() as u64;
        }
        Ok(OfferEngine {
            components,
            strategy,
            copyright: cost_model.copyright,
            cost_per_dollar: profile.importance.cost_per_dollar,
            max_cost: profile.max_cost,
            total,
            strides,
            finite,
        })
    }

    /// Number of feasible system offers (the full product size).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Can the lazy best-first streams run? False when a profile produces
    /// non-finite importances (best-first pruning is unsound under NaN) or
    /// the component count exceeds [`MAX_STREAM_COMPONENTS`]; the ranked
    /// list ([`RankedOffers`]) handles those cases.
    pub fn streaming_supported(&self) -> bool {
        self.finite
            && self.components.len() <= MAX_STREAM_COMPONENTS
            && self
                .components
                .iter()
                .all(|c| c.variants.len() <= u16::MAX as usize)
    }

    /// Number of document components (streams per offer).
    pub(crate) fn components(&self) -> usize {
        self.components.len()
    }

    /// Identifies the variants the combination at `rank` chooses for
    /// components `0..=component`: two ranks share the value exactly when
    /// they share that prefix.
    pub(crate) fn prefix(&self, rank: u64, component: usize) -> u64 {
        rank / self.strides[component]
    }

    /// The chosen variants of the combination at enumeration `rank` with
    /// their `(CostNetᵢ, CostSerᵢ)`, decoded from the strides, in document
    /// component order.
    pub(crate) fn streams_at(
        &self,
        rank: u64,
    ) -> impl Iterator<Item = (&Variant, Money, Money)> + Clone {
        // One division per component: what is left of the rank after the
        // components before this one.
        let mut rest = rank;
        self.strides
            .iter()
            .zip(&self.components)
            .map(move |(&stride, comp)| {
                let p = (rest / stride) as usize;
                rest %= stride;
                (&comp.variants[p], comp.scores[p].net, comp.scores[p].ser)
            })
    }

    /// Materialize every system offer in enumeration order.
    pub fn offers(&self) -> Vec<SystemOffer> {
        let mut offers = Vec::with_capacity(self.total);
        self.for_each_combo(|combo| offers.push(self.materialize(&combo).offer));
        offers
    }

    /// The whole product as plain data in classified order — scored with
    /// the [`ScoredOffer::score`]-identical fold and sorted by the same
    /// explicit `(strategy key, rank)` order as [`classify`](crate::classify).
    /// `keep`, indexed by enumeration rank, drops pruned offers first.
    pub(crate) fn ranked(&self, keep: Option<&[bool]>) -> Vec<ScoredCombo> {
        let mut entries = Vec::with_capacity(self.total);
        self.for_each_combo(|combo| {
            if keep.is_none_or(|k| k[combo.rank as usize]) {
                entries.push(combo);
            }
        });
        entries.sort_unstable_by(|a, b| self.order_cmp(a, b));
        entries
    }

    /// The full materialized classified list, built from the ranked
    /// entries. Bit-identical to running [`classify`](crate::classify())
    /// over the eagerly enumerated offers.
    pub fn classify_all(&self) -> Vec<ScoredOffer> {
        self.materialize_all(&self.ranked(None))
    }

    fn materialize_all(&self, entries: &[ScoredCombo]) -> Vec<ScoredOffer> {
        entries.iter().map(|c| self.materialize(c)).collect()
    }

    /// Score every combination of the product, in enumeration (rank)
    /// order, without materializing any of them.
    fn for_each_combo(&self, mut visit: impl FnMut(ScoredCombo)) {
        let mut odo = vec![0usize; self.components.len()];
        for row in 0..self.total {
            if row > 0 {
                for (slot, comp) in odo.iter_mut().zip(&self.components).rev() {
                    *slot += 1;
                    if *slot < comp.variants.len() {
                        break;
                    }
                    *slot = 0;
                }
            }
            visit(self.score_with(|c| odo[c]));
        }
    }

    /// Score the combination whose component `c` takes variant
    /// `index_of(c)`, with the same fold the eager path uses, so the
    /// resulting values are bit-identical to [`ScoredOffer::score`]'s.
    fn score_with(&self, index_of: impl Fn(usize) -> usize) -> ScoredCombo {
        let mut cost = self.copyright;
        let mut all_des = true;
        let mut all_wst = true;
        let mut rank = 0u64;
        // Identical fold to `qos_importance`: `iter().map(..).sum()` in
        // document component order.
        let qos_importance: f64 = self
            .components
            .iter()
            .enumerate()
            .map(|(c, comp)| {
                let p = index_of(c);
                let s = &comp.scores[p];
                cost += s.cost();
                all_des &= s.meets_desired;
                all_wst &= s.meets_worst;
                rank += p as u64 * self.strides[c];
                s.importance
            })
            .sum();
        let oif = qos_importance - self.cost_per_dollar * cost.dollars();
        let within = cost <= self.max_cost;
        let sns = if all_des && within {
            StaticNegotiationStatus::Desirable
        } else if all_wst {
            StaticNegotiationStatus::Acceptable
        } else {
            StaticNegotiationStatus::Constraint
        };
        ScoredCombo {
            rank,
            cost,
            qos_importance,
            oif,
            sns,
            satisfies_request: within && all_wst,
        }
    }

    /// Turn a combination into the [`ScoredOffer`] the eager path would
    /// have produced for it.
    pub fn materialize(&self, combo: &ScoredCombo) -> ScoredOffer {
        ScoredOffer {
            offer: SystemOffer {
                variants: (self.streams_at(combo.rank).map(|(v, ..)| v.clone())).collect(),
                cost: combo.cost,
            },
            sns: combo.sns,
            oif: combo.oif,
            qos_importance: combo.qos_importance,
            satisfies_request: combo.satisfies_request,
        }
    }

    /// Count the SNS classes over the whole product without sorting or
    /// materializing (recorder support for the streaming path): returns
    /// `(desirable, acceptable, constraint)`.
    pub fn sns_census(&self) -> (u64, u64, u64) {
        let mut census = (0, 0, 0);
        self.for_each_combo(|combo| tally(&mut census, combo.sns));
        census
    }

    /// Map streamed combinations to their indices in the classified list
    /// (`classify_all` order) by a counting sweep over the product — no
    /// allocation proportional to the product, no sort. O(total·(k + m))
    /// for m targets.
    pub fn classified_indices(&self, targets: &[&ScoredCombo]) -> Vec<usize> {
        let mut counts = vec![0usize; targets.len()];
        self.for_each_combo(|combo| {
            for (t, count) in targets.iter().zip(counts.iter_mut()) {
                *count += usize::from(self.order_cmp(&combo, t) == Ordering::Less);
            }
        });
        counts
    }

    /// The classification order on plain entries: `classify::sort_key_cmp`
    /// on the strategy key, then the enumeration rank, so the order is
    /// total and ties keep enumeration order.
    fn order_cmp(&self, a: &ScoredCombo, b: &ScoredCombo) -> Ordering {
        let by_oif = |x: &ScoredCombo, y: &ScoredCombo| y.oif.total_cmp(&x.oif);
        match self.strategy {
            ClassificationStrategy::SnsThenOif => a.sns.cmp(&b.sns).then_with(|| by_oif(a, b)),
            ClassificationStrategy::OifOnly => by_oif(a, b),
            ClassificationStrategy::CostOnly => a.cost.cmp(&b.cost),
            ClassificationStrategy::QosOnly => b.qos_importance.total_cmp(&a.qos_importance),
        }
        .then_with(|| a.rank.cmp(&b.rank))
    }

    /// Per-variant contribution to the stream's ordering axis.
    fn contribution(&self, kind: KeyKind, score: &VariantScore) -> f64 {
        match kind {
            KeyKind::Oif => score.importance - self.cost_per_dollar * score.cost().dollars(),
            KeyKind::Cost => -(score.cost().millis() as f64),
            KeyKind::Qos => score.importance,
        }
    }

    /// Per-component variant indices sorted by contribution, descending,
    /// stable (equal contributions keep enumeration order).
    fn sorted_lists(&self, kind: KeyKind) -> Vec<Vec<u16>> {
        self.components
            .iter()
            .map(|comp| {
                let mut idx: Vec<u16> = (0..comp.variants.len() as u16).collect();
                idx.sort_by(|&a, &b| {
                    self.contribution(kind, &comp.scores[b as usize])
                        .total_cmp(&self.contribution(kind, &comp.scores[a as usize]))
                });
                idx
            })
            .collect()
    }

    fn mask_allows(&self, mask: Mask, component: usize, variant_idx: usize) -> bool {
        let s = &self.components[component].scores[variant_idx];
        match mask {
            Mask::Full => true,
            Mask::Desired => s.meets_desired,
            Mask::Worst => s.meets_worst,
            Mask::DesiredAndWorst => s.meets_desired && s.meets_worst,
        }
    }

    /// The phase sequence whose concatenation is exactly the classified
    /// order. For SnsThenOif the SNS classes are disjoint sub-products
    /// enumerated best-class-first; other strategies are a single phase.
    fn classified_phases(&self) -> Vec<(Mask, Filter)> {
        match self.strategy {
            ClassificationStrategy::SnsThenOif => vec![
                (Mask::Desired, Filter::Within),
                (Mask::Worst, Filter::NotDesirable),
                (Mask::Full, Filter::Constraint),
            ],
            _ => vec![(Mask::Full, Filter::All)],
        }
    }

    /// The phase sequence whose concatenation is exactly
    /// `reservation_order(classify_all())`: satisfying offers in classified
    /// order, then the rest in classified order.
    fn reservation_phases(&self) -> Vec<(Mask, Filter)> {
        match self.strategy {
            ClassificationStrategy::SnsThenOif => vec![
                // Satisfying: Desirable ∩ satisfying, then Acceptable ∩
                // satisfying (Desirable ⊆ within by definition).
                (Mask::DesiredAndWorst, Filter::Within),
                (Mask::Worst, Filter::WithinNotAllDesired),
                // The rest, classified order: Desirable ∖ satisfying,
                // Acceptable ∖ satisfying, Constraint.
                (Mask::Desired, Filter::WithinNotAllWorst),
                (Mask::Worst, Filter::NotWithin),
                (Mask::Full, Filter::Constraint),
            ],
            _ => vec![
                (Mask::Worst, Filter::Within),
                (Mask::Full, Filter::NotSatisfying),
            ],
        }
    }

    /// Stream every offer lazily in classified (`classify_all`) order.
    ///
    /// # Panics
    /// Panics if [`streaming_supported`](Self::streaming_supported) is
    /// false.
    pub fn classified_stream(&self) -> OfferStream<'_> {
        OfferStream::new(self, self.classified_phases())
    }

    /// Stream every offer lazily in step-5 reservation order (satisfying
    /// offers first, both halves in classified order).
    ///
    /// # Panics
    /// Panics if [`streaming_supported`](Self::streaming_supported) is
    /// false.
    pub fn reservation_stream(&self) -> OfferStream<'_> {
        OfferStream::new(self, self.reservation_phases())
    }
}

/// A lazy best-first offer stream (see the module docs). Yields every
/// combination exactly once, in the order the corresponding eager sort
/// would produce.
pub struct OfferStream<'e> {
    engine: &'e OfferEngine,
    kind: KeyKind,
    /// Per-component variant indices in contribution order, computed once
    /// per stream; each phase masks them.
    sorted: Vec<Vec<u16>>,
    phases: Vec<(Mask, Filter)>,
    next_phase: usize,
    current: Option<PhaseEnum>,
    /// Work counters.
    pub stats: StreamStats,
}

/// One phase's frontier: the masked sorted lists, the expansion heap, and
/// the reorder buffer.
struct PhaseEnum {
    /// Per component: variant indices in contribution order, masked.
    lists: Vec<Vec<u16>>,
    filter: Filter,
    heap: BinaryHeap<State>,
    /// Popped states not yet safe to emit (exact-order reorder buffer).
    /// Ordered by the same `(key, rank)` total order as the frontier, so
    /// equal-key states — duplicated variants — drain in arena order.
    pending: BinaryHeap<State>,
}

impl<'e> OfferStream<'e> {
    fn new(engine: &'e OfferEngine, phases: Vec<(Mask, Filter)>) -> Self {
        assert!(
            engine.streaming_supported(),
            "streaming unsupported for this engine (walk RankedOffers)"
        );
        let kind = KeyKind::for_strategy(engine.strategy);
        OfferStream {
            engine,
            kind,
            sorted: engine.sorted_lists(kind),
            phases,
            next_phase: 0,
            current: None,
            stats: StreamStats::default(),
        }
    }

    /// The next combination in stream order, or `None` when the product is
    /// exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<ScoredCombo> {
        loop {
            if self.current.is_none() {
                if self.next_phase >= self.phases.len() {
                    return None;
                }
                let (mask, filter) = self.phases[self.next_phase];
                self.next_phase += 1;
                if let Some(phase) = self.open_phase(mask, filter) {
                    self.current = Some(phase);
                }
                continue;
            }
            match self.advance_current() {
                Some(combo) => {
                    self.stats.yielded += 1;
                    return Some(combo);
                }
                None => {
                    self.current = None;
                }
            }
        }
    }

    /// Build a phase's frontier, or `None` when the mask empties a
    /// component (the phase contributes nothing).
    fn open_phase(&mut self, mask: Mask, filter: Filter) -> Option<PhaseEnum> {
        let eng = self.engine;
        let mut lists: Vec<Vec<u16>> = Vec::with_capacity(self.sorted.len());
        for (c, order) in self.sorted.iter().enumerate() {
            let masked: Vec<u16> = order
                .iter()
                .copied()
                .filter(|&v| eng.mask_allows(mask, c, v as usize))
                .collect();
            if masked.is_empty() {
                return None;
            }
            lists.push(masked);
        }
        let mut phase = PhaseEnum {
            lists,
            filter,
            heap: BinaryHeap::new(),
            pending: BinaryHeap::new(),
        };
        let root = self.state_at(&phase, [0u16; MAX_STREAM_COMPONENTS], 0);
        phase.heap.push(root);
        self.stats.heap_pushes += 1;
        Some(phase)
    }

    /// Score the state whose per-component *sorted-list* positions are
    /// `pos`, with the exact strategy key.
    fn state_at(&self, phase: &PhaseEnum, pos: [u16; MAX_STREAM_COMPONENTS], last: u8) -> State {
        Self::state_for(self.engine, self.kind, phase, pos, last)
    }

    /// Pop/expand until the reorder buffer's best entry is provably final,
    /// then emit it.
    fn advance_current(&mut self) -> Option<ScoredCombo> {
        let eng = self.engine;
        let k = eng.components.len();
        loop {
            let phase = self.current.as_mut().expect("current phase");
            let emit_now = match (phase.pending.peek(), phase.heap.peek()) {
                (Some(p), Some(h)) => p.key > h.key + KEY_SLACK,
                (Some(_), None) => true,
                (None, None) => return None,
                (None, Some(_)) => false,
            };
            if emit_now {
                let s = self.current.as_mut().unwrap().pending.pop().unwrap();
                let phase = self.current.as_ref().unwrap();
                let mut orig = [0u16; MAX_STREAM_COMPONENTS];
                for (c, slot) in orig.iter_mut().enumerate().take(k) {
                    *slot = phase.lists[c][s.pos[c] as usize];
                }
                return Some(eng.score_with(|c| orig[c] as usize));
            }
            // Expand the frontier's best state: push its successors, keep
            // it in the reorder buffer when the phase filter accepts it.
            let s = phase.heap.pop().expect("non-empty heap");
            self.stats.expanded += 1;
            let mut pushes = 0usize;
            {
                let phase = self.current.as_mut().unwrap();
                for c in (s.last as usize)..k {
                    if (s.pos[c] as usize) + 1 < phase.lists[c].len() {
                        let mut pos = s.pos;
                        pos[c] += 1;
                        pushes += 1;
                        let child = {
                            // Re-borrow immutably for scoring.
                            let phase_ref: &PhaseEnum = phase;
                            Self::state_for(eng, self.kind, phase_ref, pos, c as u8)
                        };
                        phase.heap.push(child);
                    }
                }
                let within = s.cost <= eng.max_cost;
                if phase.filter.accepts(s.all_des, s.all_wst, within) {
                    phase.pending.push(s);
                }
            }
            self.stats.heap_pushes += pushes;
        }
    }

    /// Static variant of [`state_at`](Self::state_at) usable under a
    /// mutable phase borrow.
    fn state_for(
        eng: &OfferEngine,
        kind: KeyKind,
        phase: &PhaseEnum,
        pos: [u16; MAX_STREAM_COMPONENTS],
        last: u8,
    ) -> State {
        let k = eng.components.len();
        let mut orig = [0u16; MAX_STREAM_COMPONENTS];
        for (c, slot) in orig.iter_mut().enumerate().take(k) {
            *slot = phase.lists[c][pos[c] as usize];
        }
        let mut cost = eng.copyright;
        let mut all_des = true;
        let mut all_wst = true;
        let mut rank = 0u64;
        for (c, &slot) in orig.iter().enumerate().take(k) {
            let s = &eng.components[c].scores[slot as usize];
            cost += s.cost();
            all_des &= s.meets_desired;
            all_wst &= s.meets_worst;
            rank += slot as u64 * eng.strides[c];
        }
        let key = match kind {
            KeyKind::Oif => {
                let qos: f64 = (0..k)
                    .map(|c| eng.components[c].scores[orig[c] as usize].importance)
                    .sum();
                qos - eng.cost_per_dollar * cost.dollars()
            }
            KeyKind::Cost => -(cost.millis() as f64),
            KeyKind::Qos => (0..k)
                .map(|c| eng.components[c].scores[orig[c] as usize].importance)
                .sum(),
        };
        State {
            key,
            rank,
            cost,
            pos,
            last,
            all_des,
            all_wst,
        }
    }
}

/// The classified offer list as plain data over its engine: one
/// [`ScoredCombo`] per (unpruned) offer, in classified order. This is what
/// [`prepare`](crate::negotiate::prepare) hands to step 5; an entry becomes
/// a [`ScoredOffer`] only when it is attempted, explained or read.
#[derive(Debug, Clone)]
pub struct RankedOffers {
    engine: OfferEngine,
    entries: Vec<ScoredCombo>,
}

impl RankedOffers {
    /// Rank `engine`'s whole product; `keep`, indexed by enumeration rank,
    /// drops pruned offers first.
    pub fn new(engine: OfferEngine, keep: Option<&[bool]>) -> RankedOffers {
        let entries = engine.ranked(keep);
        RankedOffers { engine, entries }
    }

    /// Number of classified offers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in classified order.
    pub fn entries(&self) -> &[ScoredCombo] {
        &self.entries
    }

    /// The engine the entries' ranks decode against.
    pub(crate) fn engine(&self) -> &OfferEngine {
        &self.engine
    }

    /// The streams of the offer at classified index `idx`: each chosen
    /// variant (no clone) with its `(CostNetᵢ, CostSerᵢ)`, in document
    /// component order.
    pub(crate) fn streams(&self, idx: usize) -> impl Iterator<Item = (&Variant, Money, Money)> {
        self.engine.streams_at(self.entries[idx].rank)
    }

    /// The offer at classified index `idx`, materialized.
    pub fn materialize(&self, idx: usize) -> ScoredOffer {
        self.engine.materialize(&self.entries[idx])
    }

    /// Step 5's attempt order: indices of the offers that satisfy the
    /// user's request, in classified order, then the rest, likewise.
    pub fn reservation_order(&self) -> impl Iterator<Item = usize> + '_ {
        let pick = move |wanted: bool| {
            (0..self.entries.len()).filter(move |&i| self.entries[i].satisfies_request == wanted)
        };
        pick(true).chain(pick(false))
    }

    /// SNS class populations: `(desirable, acceptable, constraint)`.
    pub(crate) fn sns_census(&self) -> (u64, u64, u64) {
        let mut census = (0, 0, 0);
        self.entries.iter().for_each(|e| tally(&mut census, e.sns));
        census
    }
}

/// The classified offer list of a [`crate::negotiate::NegotiationOutcome`]
/// — **deferred** until somebody actually reads it (adaptation,
/// diagnostics, the TUI). Step 5 walks plain [`RankedOffers`] (or a short
/// streamed prefix); any slice access (via `Deref`) materializes every
/// entry exactly once, ranking first when the streamed walk never had to;
/// `len()` is known without materializing.
pub struct OfferList {
    len: usize,
    cells: OnceLock<Vec<ScoredOffer>>,
    source: Mutex<Option<Source>>,
}

/// What a deferred [`OfferList`] materializes from.
enum Source {
    /// The streamed walk's engine: not ranked yet.
    Engine(OfferEngine),
    Ranked(RankedOffers),
}

impl OfferList {
    /// An already-materialized list.
    pub fn from_vec(offers: Vec<ScoredOffer>) -> OfferList {
        let len = offers.len();
        let cells = OnceLock::new();
        let _ = cells.set(offers);
        OfferList {
            len,
            cells,
            source: Mutex::new(None),
        }
    }

    /// A deferred list backed by the engine; ranks and materializes on
    /// first access.
    pub fn deferred(engine: OfferEngine) -> OfferList {
        OfferList {
            len: engine.total(),
            cells: OnceLock::new(),
            source: Mutex::new(Some(Source::Engine(engine))),
        }
    }

    /// A deferred list over ranked entries; materializes on first access.
    pub fn ranked(list: RankedOffers) -> OfferList {
        OfferList {
            len: list.len(),
            cells: OnceLock::new(),
            source: Mutex::new(Some(Source::Ranked(list))),
        }
    }

    /// Number of classified offers (available without materializing).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Has the full list been computed yet?
    pub fn is_materialized(&self) -> bool {
        self.cells.get().is_some()
    }

    /// The classified offers, materializing them on first call.
    pub fn as_slice(&self) -> &[ScoredOffer] {
        self.cells.get_or_init(|| {
            let source = self.source.lock().expect("offer list lock").take();
            match source.expect("deferred offer list carries its source") {
                Source::Engine(engine) => engine.classify_all(),
                Source::Ranked(list) => list.engine.materialize_all(&list.entries),
            }
        })
    }

    /// The classified offers by value (materializing if needed).
    pub fn into_vec(self) -> Vec<ScoredOffer> {
        self.as_slice();
        self.cells.into_inner().expect("materialized above")
    }
}

impl Deref for OfferList {
    type Target = [ScoredOffer];
    fn deref(&self) -> &[ScoredOffer] {
        self.as_slice()
    }
}

impl From<Vec<ScoredOffer>> for OfferList {
    fn from(offers: Vec<ScoredOffer>) -> OfferList {
        OfferList::from_vec(offers)
    }
}

impl Default for OfferList {
    fn default() -> OfferList {
        OfferList::from_vec(Vec::new())
    }
}

impl<'a> IntoIterator for &'a OfferList {
    type Item = &'a ScoredOffer;
    type IntoIter = std::slice::Iter<'a, ScoredOffer>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl std::fmt::Debug for OfferList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(offers) = self.cells.get() {
            f.debug_list().entries(offers).finish()
        } else {
            write!(f, "OfferList {{ len: {}, deferred }}", self.len)
        }
    }
}

/// `sort_key_cmp` re-exposed for the equivalence tests (comparing streamed
/// against sorted orders including tie handling).
pub fn offer_order_cmp(
    strategy: ClassificationStrategy,
    a: &ScoredOffer,
    b: &ScoredOffer,
) -> Ordering {
    sort_key_cmp(strategy, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;
    use crate::profile::{MmQosSpec, UserProfile};
    use nod_mmdoc::prelude::*;

    fn variant(id: u64, mono: u64, color: ColorDepth, fps: u32, server: u64) -> Variant {
        Variant {
            id: VariantId(id),
            monomedia: MonomediaId(mono),
            format: Format::Mpeg1,
            qos: MediaQos::Video(VideoQos {
                color,
                resolution: Resolution::new(640),
                frame_rate: FrameRate::new(fps),
            }),
            blocks: BlockStats::new(10_000, 5_000),
            blocks_per_second: fps,
            file_bytes: 1_000_000,
            server: ServerId(server),
        }
    }

    fn profile() -> UserProfile {
        let spec = MmQosSpec {
            video: Some(VideoQos {
                color: ColorDepth::Color,
                resolution: Resolution::TV,
                frame_rate: FrameRate::TV,
            }),
            ..MmQosSpec::default()
        };
        UserProfile::strict("engine-tests", spec, Money::from_dollars(50))
    }

    fn engine_over(variants: Vec<Variant>) -> OfferEngine {
        let refs: Vec<&Variant> = variants.iter().collect();
        let per_mono = vec![(MonomediaId(1), refs)];
        let durations: HashMap<MonomediaId, u64> = [(MonomediaId(1), 60_000)].into();
        OfferEngine::build(
            &per_mono,
            &durations,
            &profile(),
            &CostModel::era_default(),
            Guarantee::Guaranteed,
            ClassificationStrategy::SnsThenOif,
            10_000,
        )
        .expect("engine builds")
    }

    #[test]
    fn offer_list_defers_materialization_until_read() {
        let engine = engine_over(vec![
            variant(1, 1, ColorDepth::Color, 25, 0),
            variant(2, 1, ColorDepth::Grey, 15, 1),
        ]);
        let list = OfferList::deferred(engine);
        assert_eq!(list.len(), 2);
        assert!(!list.is_empty());
        assert!(!list.is_materialized());
        assert!(format!("{list:?}").contains("deferred"));
        // First element access forces the full classification, once.
        let first_oif = list[0].oif;
        assert!(list.is_materialized());
        assert_eq!(list.as_slice().len(), 2);
        assert_eq!(list[0].oif, first_oif);
    }

    #[test]
    fn stream_breaks_ties_in_enumeration_order() {
        // Three replicas with identical QoS and identical cost: their sort
        // keys are fully equal, so the stream must fall back to the stable
        // tie-break — enumeration (rank) order — exactly like the eager
        // stable sort does.
        let engine = engine_over(vec![
            variant(1, 1, ColorDepth::Color, 25, 0),
            variant(2, 1, ColorDepth::Color, 25, 1),
            variant(3, 1, ColorDepth::Color, 25, 2),
        ]);
        let eager = engine.classify_all();
        let mut stream = engine.classified_stream();
        for (i, expected) in eager.iter().enumerate() {
            let combo = stream.next().expect("stream matches eager length");
            assert_eq!(combo.rank, i as u64, "ties must keep enumeration order");
            assert_eq!(&engine.materialize(&combo), expected);
        }
        assert!(stream.next().is_none());
    }

    #[test]
    fn duplicated_variants_stream_matches_eager_bit_exact() {
        // Two components, each carrying exact duplicate variants (same QoS,
        // same blocks, same server — only the id differs): large runs of
        // fully-equal strategy keys across a multi-component product. The
        // stream's reorder buffer must drain those runs in enumeration
        // (arena) order, bit-exactly matching the eager classify — which
        // now sorts by the same explicit tertiary key.
        let vars1 = [
            variant(1, 1, ColorDepth::Color, 25, 0),
            variant(2, 1, ColorDepth::Color, 25, 0), // dup of 1
            variant(3, 1, ColorDepth::Grey, 15, 1),
            variant(4, 1, ColorDepth::Grey, 15, 1), // dup of 3
        ];
        let vars2 = [
            variant(5, 2, ColorDepth::Color, 25, 1),
            variant(6, 2, ColorDepth::Color, 25, 1), // dup of 5
            variant(7, 2, ColorDepth::Color, 25, 1), // dup of 5
        ];
        let refs1: Vec<&Variant> = vars1.iter().collect();
        let refs2: Vec<&Variant> = vars2.iter().collect();
        let per_mono = vec![(MonomediaId(1), refs1), (MonomediaId(2), refs2)];
        let durations: HashMap<MonomediaId, u64> =
            [(MonomediaId(1), 60_000), (MonomediaId(2), 60_000)].into();
        for strategy in [
            ClassificationStrategy::SnsThenOif,
            ClassificationStrategy::OifOnly,
            ClassificationStrategy::CostOnly,
            ClassificationStrategy::QosOnly,
        ] {
            let engine = OfferEngine::build(
                &per_mono,
                &durations,
                &profile(),
                &CostModel::era_default(),
                Guarantee::Guaranteed,
                strategy,
                10_000,
            )
            .expect("engine builds");
            let eager = engine.classify_all();
            assert_eq!(eager.len(), 12);
            let mut stream = engine.classified_stream();
            for (i, expected) in eager.iter().enumerate() {
                let combo = stream.next().expect("stream matches eager length");
                let got = engine.materialize(&combo);
                let ids =
                    |o: &ScoredOffer| o.offer.variants.iter().map(|v| v.id).collect::<Vec<_>>();
                assert_eq!(ids(&got), ids(expected), "{strategy:?} position {i}");
                assert_eq!(
                    got.oif.to_bits(),
                    expected.oif.to_bits(),
                    "{strategy:?} position {i}"
                );
                assert_eq!(got.offer.cost, expected.offer.cost);
                assert_eq!(got.sns, expected.sns);
            }
            assert!(stream.next().is_none());
        }
    }

    #[test]
    fn stream_stats_account_for_every_yield() {
        let engine = engine_over(vec![
            variant(1, 1, ColorDepth::SuperColor, 30, 0),
            variant(2, 1, ColorDepth::Color, 25, 0),
            variant(3, 1, ColorDepth::Grey, 15, 1),
            variant(4, 1, ColorDepth::BlackWhite, 5, 1),
        ]);
        let mut stream = engine.reservation_stream();
        let mut yielded = 0;
        while stream.next().is_some() {
            yielded += 1;
        }
        assert_eq!(yielded, engine.total());
        assert_eq!(stream.stats.yielded, yielded);
        assert!(stream.stats.heap_pushes >= yielded);
    }

    #[test]
    fn census_matches_classification() {
        let engine = engine_over(vec![
            variant(1, 1, ColorDepth::SuperColor, 30, 0),
            variant(2, 1, ColorDepth::Color, 25, 0),
            variant(3, 1, ColorDepth::Grey, 15, 1),
        ]);
        let (d, a, c) = engine.sns_census();
        let eager = engine.classify_all();
        let count = |s: StaticNegotiationStatus| eager.iter().filter(|o| o.sns == s).count() as u64;
        assert_eq!(d, count(StaticNegotiationStatus::Desirable));
        assert_eq!(a, count(StaticNegotiationStatus::Acceptable));
        assert_eq!(c, count(StaticNegotiationStatus::Constraint));
        assert_eq!(d + a + c, eager.len() as u64);
    }
}
