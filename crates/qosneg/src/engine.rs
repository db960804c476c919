//! The offer engine: flat enumeration, per-variant score precomputation,
//! and the one offer order every step-5 walk reads — ranked lazily.
//!
//! The paper's steps 3–4 cost, score and sort *every* feasible system
//! offer before step 5 walks the ordered list — but in the common case the
//! first offer (or a short prefix) commits, so materializing and fully
//! sorting the product is wasted work on the hot path. The scoring kernels
//! are separable over components:
//!
//! * `QoS_importance` is a **sum** of per-variant media importances;
//! * formula (1) cost is `CostCop + Σᵢ (CostNetᵢ + CostSerᵢ)` — additive
//!   per component in exact integer [`Money`];
//! * the SNS predicates (`desired.met_by`, `worst.met_by`) are per-variant
//!   conjunctions, and the cost ceiling is a predicate on the sum.
//!
//! [`OfferEngine`] exploits that structure: it clones the per-component
//! feasible variants once and precomputes each variant's partial scores
//! (importance, `CostNet + CostSer` for its duration, SNS flags).
//! [`RankedOffers`] then scores the whole product as plain data in one
//! odometer pass (one small `Copy` [`ScoredCombo`] per offer, counting the
//! offers that satisfy the request as it goes) and **orders it on demand**
//! by the classification order — bit-identical to
//! [`classify`](crate::classify()) on the eagerly enumerated offers: the
//! first ordering step puts the [`HEAD`] best entries in place (a
//! selection plus a sort of that head, linear in the product), the next
//! sorts the rest. Step 5 walks it with a [`WalkCursor`] — satisfying
//! offers in classified order, then the rest — so an attempted offer's
//! index *is* its classified position, and an entry becomes a
//! [`ScoredOffer`] only when it commits or somebody reads the list as a
//! slice. [`OfferEngine::reservation_stream`] is the same walk over a
//! borrowed engine.
//!
//! Exactness: per-offer scores are combined from the precomputed partials
//! in document component order with the same fold [`ScoredOffer::score`]
//! uses, so OIF values are bit-identical; the order compares the strategy
//! key with `total_cmp` and then the enumeration rank, so it is total —
//! ties keep enumeration order, NaN and infinite importances sort where
//! [`classify`](crate::classify()) puts them — and selecting a head of it
//! yields exactly the full sort's prefix.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

use nod_cmfs::Guarantee;
use nod_mmdoc::{MonomediaId, Variant};

use crate::classify::{ClassificationStrategy, ScoredOffer};
use crate::cost::CostModel;
use crate::money::Money;
use crate::offer::{EnumerationError, SystemOffer};
use crate::profile::UserProfile;
use crate::sns::StaticNegotiationStatus;

/// Inert: kept only because `benchmark/` names it; delete in the next
/// benchmark PR. It limits nothing — documents of any width take the one
/// walk.
#[doc(hidden)]
pub const MAX_STREAM_COMPONENTS: usize = 8;

/// How many offers the first ordering step puts in place. Most walks
/// commit one of the first few offers of the classified order; a walk (or
/// a reader) that needs more pays one sort of the rest.
pub const HEAD: usize = 8;

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
        let components: Vec<Component> = per_mono
            .iter()
            .map(|(mono, variants)| {
                let duration_ms = durations.get(mono).copied().unwrap_or(0);
                let scores: Vec<VariantScore> = variants
                    .iter()
                    .map(|v| {
                        let importance = profile.importance.media_importance(&v.qos);
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
        })
    }

    /// Number of feasible system offers (the full product size).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Inert: kept only because `benchmark/` names it; delete in the next
    /// benchmark PR. Always `true` — every engine takes the one walk.
    #[doc(hidden)]
    pub fn streaming_supported(&self) -> bool {
        true
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

    /// The full materialized classified list: score, order and
    /// materialize everything. Bit-identical to running
    /// [`classify`](crate::classify()) over the eagerly enumerated offers.
    pub fn classify_all(&self) -> Vec<ScoredOffer> {
        let mut ranking = Ranking::score(self, None);
        ranking.order_to(ranking.entries.len());
        self.materialize_all(&ranking.entries)
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

    /// Step 5's attempt order over a borrowed engine — the same walk
    /// [`commit_prepared`](crate::negotiate::commit_prepared) makes over a
    /// [`RankedOffers`]: satisfying offers in classified order, then the
    /// rest. Scores the product up front; each `next()` orders only as far
    /// as it has to.
    pub fn reservation_stream(&self) -> impl Iterator<Item = ScoredCombo> {
        let mut ranking = Ranking::score(self, None);
        let mut cursor = WalkCursor::default();
        std::iter::from_fn(move || ranking.advance(&mut cursor).map(|idx| ranking.entries[idx]))
    }
}

/// Where a step-5 walk stands in a ranked product: satisfying offers in
/// classified order first, then the rest, likewise. Start from
/// `WalkCursor::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkCursor {
    /// Next classified index the current pass looks at.
    at: usize,
    /// Offers yielded so far, over both passes.
    yielded: usize,
}

/// The scored product, ordered on demand: `entries[..ordered]` are the
/// first `ordered` offers of the classified order, in place; the rest all
/// sort after them, in no particular order yet.
#[derive(Debug, Clone)]
struct Ranking {
    strategy: ClassificationStrategy,
    entries: Vec<ScoredCombo>,
    ordered: usize,
    /// How many entries satisfy the user's request.
    satisfying: usize,
}

impl Ranking {
    /// Score `engine`'s whole product in enumeration order with the
    /// [`ScoredOffer::score`]-identical fold; `keep`, indexed by
    /// enumeration rank, drops pruned offers first.
    fn score(engine: &OfferEngine, keep: Option<&[bool]>) -> Ranking {
        let mut entries = Vec::with_capacity(engine.total);
        let mut satisfying = 0;
        engine.for_each_combo(|combo| {
            if keep.is_none_or(|k| k[combo.rank as usize]) {
                satisfying += usize::from(combo.satisfies_request);
                entries.push(combo);
            }
        });
        Ranking {
            strategy: engine.strategy,
            entries,
            ordered: 0,
            satisfying,
        }
    }

    /// Put (at least) the first `n` entries of the classified order in
    /// place: a request within [`HEAD`] selects and sorts that head, linear
    /// in the product; anything deeper sorts the rest.
    #[inline]
    fn order_to(&mut self, n: usize) {
        if n > self.ordered {
            self.order_more(n);
        }
    }

    /// The ordering step itself, out of line: a walk checks `order_to` once
    /// per offer and takes this at most twice.
    #[cold]
    fn order_more(&mut self, n: usize) {
        let strategy = self.strategy;
        let cmp = |a: &ScoredCombo, b: &ScoredCombo| order_cmp(strategy, a, b);
        if n <= HEAD && HEAD < self.entries.len() {
            self.entries.select_nth_unstable_by(HEAD - 1, cmp);
            self.entries[..HEAD].sort_unstable_by(cmp);
            self.ordered = HEAD;
        } else {
            self.entries[self.ordered..].sort_unstable_by(cmp);
            self.ordered = self.entries.len();
        }
    }

    /// The classified index of the walk's next offer, ordering as far as
    /// the walk has got.
    #[inline]
    fn advance(&mut self, cursor: &mut WalkCursor) -> Option<usize> {
        if cursor.yielded == self.entries.len() {
            return None;
        }
        // The first pass ends with the last satisfying offer — known from
        // the count, not by looking at (and so ordering) the tail — and the
        // second starts over from the top.
        let rest = cursor.yielded >= self.satisfying;
        if cursor.yielded == self.satisfying {
            cursor.at = 0;
        }
        loop {
            let idx = cursor.at;
            cursor.at += 1;
            self.order_to(idx + 1);
            if self.entries[idx].satisfies_request != rest {
                cursor.yielded += 1;
                return Some(idx);
            }
        }
    }
}

/// The classification order on plain entries: `classify`'s strategy key,
/// then the enumeration rank, so the order is total and ties keep
/// enumeration order.
fn order_cmp(strategy: ClassificationStrategy, a: &ScoredCombo, b: &ScoredCombo) -> Ordering {
    let by_oif = |x: &ScoredCombo, y: &ScoredCombo| y.oif.total_cmp(&x.oif);
    match strategy {
        ClassificationStrategy::SnsThenOif => a.sns.cmp(&b.sns).then_with(|| by_oif(a, b)),
        ClassificationStrategy::OifOnly => by_oif(a, b),
        ClassificationStrategy::CostOnly => a.cost.cmp(&b.cost),
        ClassificationStrategy::QosOnly => b.qos_importance.total_cmp(&a.qos_importance),
    }
    .then_with(|| a.rank.cmp(&b.rank))
}

/// The classified offer list as plain data over its engine: one
/// [`ScoredCombo`] per (unpruned) offer, scored up front and ordered on
/// demand (see the module docs). This is what
/// [`prepare`](crate::negotiate::prepare) hands to step 5; an entry becomes
/// a [`ScoredOffer`] only when it commits, or when somebody reads the list.
/// Every accessor orders as far as it needs first, so none ever returns an
/// entry that is not in its classified position.
#[derive(Debug, Clone)]
pub struct RankedOffers {
    engine: OfferEngine,
    ranking: Ranking,
}

impl RankedOffers {
    /// Score `engine`'s whole product; `keep`, indexed by enumeration rank,
    /// drops pruned offers first. Nothing is ordered yet.
    pub fn new(engine: OfferEngine, keep: Option<&[bool]>) -> RankedOffers {
        let ranking = Ranking::score(&engine, keep);
        RankedOffers { engine, ranking }
    }

    /// Number of classified offers.
    pub fn len(&self) -> usize {
        self.ranking.entries.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.ranking.entries.is_empty()
    }

    /// The entries, in classified order (orders the whole list).
    pub fn entries(&mut self) -> &[ScoredCombo] {
        self.ranking.order_to(self.ranking.entries.len());
        &self.ranking.entries
    }

    /// The entry at classified index `idx`.
    #[inline]
    pub fn entry(&mut self, idx: usize) -> &ScoredCombo {
        self.ranking.order_to(idx + 1);
        &self.ranking.entries[idx]
    }

    /// The engine the entries' ranks decode against.
    pub(crate) fn engine(&self) -> &OfferEngine {
        &self.engine
    }

    /// The offer at classified index `idx`, materialized.
    pub fn materialize(&mut self, idx: usize) -> ScoredOffer {
        let combo = *self.entry(idx);
        self.engine.materialize(&combo)
    }

    /// Step 5's walk: the classified index of the next offer to attempt —
    /// the offers that satisfy the user's request, in classified order,
    /// then the rest, likewise — or `None` when `cursor` has yielded them
    /// all.
    #[inline]
    pub fn next_attempt(&mut self, cursor: &mut WalkCursor) -> Option<usize> {
        self.ranking.advance(cursor)
    }

    /// The whole of step 5's attempt order, from a fresh cursor.
    pub fn reservation_order(&mut self) -> impl Iterator<Item = usize> + '_ {
        let mut cursor = WalkCursor::default();
        std::iter::from_fn(move || self.next_attempt(&mut cursor))
    }

    /// SNS class populations: `(desirable, acceptable, constraint)`.
    pub(crate) fn sns_census(&self) -> (u64, u64, u64) {
        let mut census = (0, 0, 0);
        for entry in &self.ranking.entries {
            match entry.sns {
                StaticNegotiationStatus::Desirable => census.0 += 1,
                StaticNegotiationStatus::Acceptable => census.1 += 1,
                StaticNegotiationStatus::Constraint => census.2 += 1,
            }
        }
        census
    }
}

/// The classified offer list of a [`crate::negotiate::NegotiationOutcome`]
/// — **deferred** until somebody actually reads it (adaptation,
/// diagnostics, the TUI). Step 5 walks plain [`RankedOffers`], ordering
/// only as far as it gets; any slice access (via `Deref`) finishes the
/// ordering and materializes every entry exactly once; `len()` is known
/// without either.
pub struct OfferList {
    len: usize,
    cells: OnceLock<Vec<ScoredOffer>>,
    source: Mutex<Option<RankedOffers>>,
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

    /// A deferred list over ranked entries; orders and materializes on
    /// first access.
    pub fn ranked(list: RankedOffers) -> OfferList {
        OfferList {
            len: list.len(),
            cells: OnceLock::new(),
            source: Mutex::new(Some(list)),
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
            let mut list = source.expect("deferred offer list carries its source");
            list.ranking.order_to(list.len());
            list.engine.materialize_all(&list.ranking.entries)
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

    /// The paper-literal reference: classify the eagerly enumerated offers.
    fn reference(engine: &OfferEngine) -> Vec<ScoredOffer> {
        crate::classify::classify(engine.offers(), &profile(), engine.strategy)
    }

    #[test]
    fn offer_list_defers_materialization_until_read() {
        let engine = engine_over(vec![
            variant(1, 1, ColorDepth::Color, 25, 0),
            variant(2, 1, ColorDepth::Grey, 15, 1),
        ]);
        let list = OfferList::ranked(RankedOffers::new(engine, None));
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
    fn ties_keep_enumeration_order_in_the_head_and_past_it() {
        // Twelve replicas with identical QoS and identical cost: every sort
        // key is equal, so the order must fall back to the explicit
        // tie-break — enumeration (rank) order — in the selected head and
        // in the rest sorted later, exactly like the reference sort.
        let engine = engine_over(
            (1..=12)
                .map(|id| variant(id, 1, ColorDepth::Color, 25, id % 3))
                .collect(),
        );
        let want = reference(&engine);
        let mut ranked = RankedOffers::new(engine, None);
        for (i, expected) in want.iter().enumerate() {
            assert_eq!(
                ranked.entry(i).rank,
                i as u64,
                "ties keep enumeration order"
            );
            assert_eq!(&ranked.materialize(i), expected);
        }
    }

    #[test]
    fn the_first_step_orders_a_head_and_the_next_the_rest() {
        let engine = engine_over(
            (1..=20)
                .map(|id| variant(id, 1, ColorDepth::Color, 5 + id as u32, id % 2))
                .collect(),
        );
        let want = reference(&engine);
        let mut ranked = RankedOffers::new(engine, None);
        assert_eq!(ranked.ranking.ordered, 0, "scoring orders nothing");
        ranked.entry(0);
        assert_eq!(ranked.ranking.ordered, HEAD);
        ranked.entry(HEAD - 1);
        assert_eq!(ranked.ranking.ordered, HEAD);
        ranked.entry(HEAD);
        assert_eq!(ranked.ranking.ordered, want.len());
        let got: Vec<ScoredOffer> = (0..want.len()).map(|i| ranked.materialize(i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn census_matches_classification() {
        let engine = engine_over(vec![
            variant(1, 1, ColorDepth::SuperColor, 30, 0),
            variant(2, 1, ColorDepth::Color, 25, 0),
            variant(3, 1, ColorDepth::Grey, 15, 1),
        ]);
        let want = reference(&engine);
        let (d, a, c) = RankedOffers::new(engine, None).sns_census();
        let count = |s: StaticNegotiationStatus| want.iter().filter(|o| o.sns == s).count() as u64;
        assert_eq!(d, count(StaticNegotiationStatus::Desirable));
        assert_eq!(a, count(StaticNegotiationStatus::Acceptable));
        assert_eq!(c, count(StaticNegotiationStatus::Constraint));
        assert_eq!(d + a + c, want.len() as u64);
    }
}
