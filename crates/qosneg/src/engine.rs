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
//! [`OfferEngine`] exploits that structure. Step 2 feeds it each
//! component's feasible variants as it finds them ([`EngineBuilder`]); it
//! clones each one once into one flat variant array and precomputes its
//! partial scores (importance, `CostNet + CostSer` for its duration, SNS
//! flags, the client's decode cost) into a parallel score array, each
//! component an offset, a length and a rank stride into both.
//! [`RankedOffers`] then scores the whole product in one depth-first pass
//! into one 16-byte integer key per offer (order key, enumeration rank,
//! the walk's flags) and **orders the keys on demand** — bit-identical to
//! [`classify`](crate::classify()) on the eagerly enumerated offers: the
//! first ordering step puts the [`HEAD`] best keys in place (a selection
//! plus a sort of that head, linear in the product), the next sorts the
//! rest. Step 5 walks it with a [`WalkCursor`] — satisfying offers in
//! classified order, then the rest — reading rank and flags off the key,
//! so an attempted offer's index *is* its classified position. A reader
//! of scores rebuilds the [`ScoredCombo`] ([`OfferEngine::combo_at`]); an
//! offer becomes a [`ScoredOffer`] only when it commits or somebody
//! materializes it. The same list is what a negotiation outcome, an
//! advance booking and an active session keep, and adaptation walks it
//! again with a fresh cursor. [`OfferEngine::reservation_stream`] is the
//! same walk over a borrowed engine.
//!
//! Exactness: per-offer scores are combined from the precomputed partials
//! in document component order with the same left fold
//! [`ScoredOffer::score`] uses — a combination's sums extend its prefix's,
//! from `Sum`'s own neutral element, in the pass and in `combo_at` alike —
//! so OIF values are bit-identical, and so is the decode verdict
//! ([`ClientMachine::can_decode_concurrently`] sums the same costs the same
//! way). Keys compare as plain integers — the SNS class, the
//! order-preserving `u64` image of the float key that `total_cmp` compares
//! (`total_key`), then the unique rank — so the order is total: ties keep
//! enumeration order, −0.0 sorts beside +0.0 and NaN and infinite
//! importances sort where [`classify`](crate::classify()) puts them, and
//! selecting a head of it yields exactly the full sort's prefix.

use std::collections::HashMap;
use std::ops::Range;

use nod_client::ClientMachine;
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
    /// [`ClientMachine::decode_cost`] of the variant on the engine's client.
    decode_cost: f64,
}

impl VariantScore {
    fn cost(&self) -> Money {
        self.net + self.ser
    }
}

/// One document component: where its feasible variants sit in the
/// engine's flat arrays.
#[derive(Debug, Clone, Copy)]
struct Component {
    mono: MonomediaId,
    duration_ms: u64,
    /// Index of its first variant in `variants` and `scores`.
    start: usize,
    /// How many feasible variants it has.
    len: usize,
    /// Lexicographic rank stride: the product of the later components'
    /// lengths (the last component varies fastest).
    stride: u64,
}

impl Component {
    fn range(&self) -> Range<usize> {
        self.start..self.start + self.len
    }
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
    /// The engine's client can decode every stream of the offer at once —
    /// [`ClientMachine::can_decode_concurrently`]'s verdict, scored here
    /// because it is static per (client, offer). Step 5 refuses an offer
    /// without it before asking any server.
    pub decodable: bool,
}

/// The partial scores of a combination's first components.
#[derive(Clone, Copy)]
struct Prefix {
    rank: u64,
    cost: Money,
    importance: f64,
    decode: f64,
    desired: bool,
    worst: bool,
}

impl Prefix {
    /// This prefix extended by the `p`th variant of `comp`, scored `s`.
    #[inline]
    fn then(&self, comp: &Component, p: usize, s: &VariantScore) -> Prefix {
        Prefix {
            rank: self.rank + p as u64 * comp.stride,
            cost: self.cost + s.cost(),
            importance: self.importance + s.importance,
            decode: self.decode + s.decode_cost,
            desired: self.desired & s.meets_desired,
            worst: self.worst & s.meets_worst,
        }
    }
}

/// The per-negotiation offer engine (see the module docs).
#[derive(Debug, Clone)]
pub struct OfferEngine {
    /// Every component's feasible variants, component after component.
    variants: Vec<Variant>,
    /// Their partial scores, index for index.
    scores: Vec<VariantScore>,
    components: Vec<Component>,
    strategy: ClassificationStrategy,
    copyright: Money,
    cost_per_dollar: f64,
    max_cost: Money,
    /// The client's concurrent decode budget.
    decode_budget: f64,
    total: usize,
}

/// Step 2's output, assembled as step 2 runs: each document component in
/// order with the feasible variants it keeps, each cloned and scored on
/// arrival. [`EngineBuilder::finish`] then checks the product the way the
/// eager enumeration would.
pub struct EngineBuilder<'a> {
    client: &'a ClientMachine,
    profile: &'a UserProfile,
    cost_model: &'a CostModel,
    guarantee: Guarantee,
    engine: OfferEngine,
}

impl EngineBuilder<'_> {
    /// Add the next document component and its feasible variants, cloning
    /// each once and precomputing its partial scores.
    pub fn component<'v>(
        &mut self,
        mono: MonomediaId,
        duration_ms: u64,
        feasible: impl Iterator<Item = &'v Variant>,
    ) {
        let engine = &mut self.engine;
        let start = engine.variants.len();
        for v in feasible {
            let (net, ser) = self
                .cost_model
                .monomedia_cost(v, duration_ms, self.guarantee);
            engine.scores.push(VariantScore {
                importance: self.profile.importance.media_importance(&v.qos),
                net,
                ser,
                meets_desired: self.profile.desired.met_by(&v.qos),
                meets_worst: self.profile.worst.met_by(&v.qos),
                decode_cost: self.client.decode_cost(v),
            });
            engine.variants.push(v.clone());
        }
        engine.components.push(Component {
            mono,
            duration_ms,
            start,
            len: engine.variants.len() - start,
            stride: 1,
        });
    }

    /// Feasible variants added so far, over every component.
    pub fn variants(&self) -> usize {
        self.engine.variants.len()
    }

    /// The engine, or the eager enumeration's failure: the first component
    /// without a feasible variant, or a product past `cap` or 2^56 − 1.
    pub fn finish(self, cap: usize) -> Result<OfferEngine, EnumerationError> {
        let mut engine = self.engine;
        if let Some(empty) = engine.components.iter().find(|c| c.len == 0) {
            return Err(EnumerationError::NoFeasibleVariant(empty.mono));
        }
        let total = (engine.components.iter())
            .try_fold(1usize, |acc, c| acc.checked_mul(c.len))
            .filter(|&total| total <= cap && (total as u64) < 1 << RANK_BITS)
            .ok_or(EnumerationError::TooManyOffers { cap })?;
        let mut stride = 1u64;
        for c in engine.components.iter_mut().rev() {
            c.stride = stride;
            stride *= c.len as u64;
        }
        engine.total = total;
        Ok(engine)
    }
}

impl OfferEngine {
    /// Start an engine for `client`'s request under `profile`: add the
    /// document's components in order ([`EngineBuilder::component`]), then
    /// finish. `components` and `variants` size the engine once: the
    /// document's component count and a bound on the variants its
    /// components will add (step 2 passes the document's stored count).
    pub fn builder<'a>(
        client: &'a ClientMachine,
        profile: &'a UserProfile,
        cost_model: &'a CostModel,
        guarantee: Guarantee,
        strategy: ClassificationStrategy,
        components: usize,
        variants: usize,
    ) -> EngineBuilder<'a> {
        EngineBuilder {
            client,
            profile,
            cost_model,
            guarantee,
            engine: OfferEngine {
                variants: Vec::with_capacity(variants),
                scores: Vec::with_capacity(variants),
                components: Vec::with_capacity(components),
                strategy,
                copyright: cost_model.copyright,
                cost_per_dollar: profile.importance.cost_per_dollar,
                max_cost: profile.max_cost,
                decode_budget: client.decode_budget,
                total: 0,
            },
        }
    }

    /// The engine over per-component variant lists and a duration map,
    /// through [`OfferEngine::builder`] for a workstation with an unbounded
    /// decode budget, so every offer counts as decodable. Kept only because
    /// `benchmark/` calls it (and never walks the result); delete in the
    /// next benchmark PR.
    #[doc(hidden)]
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
        let client = ClientMachine {
            decode_budget: f64::INFINITY,
            ..ClientMachine::era_workstation(nod_mmdoc::ClientId(0))
        };
        let variants = per_mono.iter().map(|(_, vs)| vs.len()).sum();
        let mut builder = Self::builder(
            &client,
            profile,
            cost_model,
            guarantee,
            strategy,
            per_mono.len(),
            variants,
        );
        for (mono, variants) in per_mono {
            let duration_ms = durations.get(mono).copied().unwrap_or(0);
            builder.component(*mono, duration_ms, variants.iter().copied());
        }
        builder.finish(cap)
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

    /// `(monomedia id, duration_ms)` per component, in document order.
    pub(crate) fn durations(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (self.components.iter()).map(|c| (c.mono.0, c.duration_ms))
    }

    /// How many feasible variants component `component` has.
    pub(crate) fn variants_of(&self, component: usize) -> usize {
        self.components[component].len
    }

    /// How many distinct prefixes the components before the last one
    /// have between them: `Σ_{d < last} Π_{i ≤ d} lenᵢ`.
    pub(crate) fn inner_prefixes(&self) -> usize {
        let inner = self.components.len().saturating_sub(1);
        (self.components[..inner].iter())
            .map(|c| self.total / c.stride as usize)
            .sum()
    }

    /// The variant the combination at enumeration `rank` chooses for each
    /// component, as an index into the component's feasible variants, in
    /// document component order.
    pub(crate) fn choices(&self, rank: u64) -> impl Iterator<Item = usize> + Clone + '_ {
        // One division per component: what is left of the rank after the
        // components before this one.
        let mut rest = rank;
        self.components.iter().map(move |comp| {
            let choice = (rest / comp.stride) as usize;
            rest %= comp.stride;
            choice
        })
    }

    /// The chosen variants of the combination at enumeration `rank` (a
    /// [`ScoredCombo::rank`]) with their `(CostNetᵢ, CostSerᵢ)`, decoded
    /// from the strides, in document component order: an offer's streams
    /// read by reference, nothing materialized.
    pub fn streams_at(&self, rank: u64) -> impl Iterator<Item = (&Variant, Money, Money)> + Clone {
        (self.components.iter().zip(self.choices(rank))).map(|(comp, choice)| {
            let i = comp.start + choice;
            (&self.variants[i], self.scores[i].net, self.scores[i].ser)
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
        let mut ranking = Ranking::score(self);
        ranking.order_to(ranking.keys.len());
        (ranking.keys.iter())
            .map(|k| self.materialize(&self.combo_at(k.rank())))
            .collect()
    }

    /// Score every combination of the product, in enumeration (rank)
    /// order, without materializing any of them: a depth-first walk over
    /// the components whose call stack is the odometer, each level
    /// extending its prefix's partial sums by one variant.
    fn for_each_combo(&self, mut visit: impl FnMut(ScoredCombo)) {
        if self.components.is_empty() {
            visit(self.combo(self.empty_prefix()));
        } else {
            self.descend(0, self.empty_prefix(), &mut visit);
        }
    }

    /// The sums of no component at all.
    fn empty_prefix(&self) -> Prefix {
        Prefix {
            rank: 0,
            cost: self.copyright,
            // `Sum`'s neutral element, so every sum below is the exact
            // left fold `qos_importance` and `can_decode_concurrently`
            // compute.
            importance: std::iter::empty::<f64>().sum(),
            decode: std::iter::empty::<f64>().sum(),
            desired: true,
            worst: true,
        }
    }

    /// Every combination extending `prefix` through components `c..`.
    fn descend(&self, c: usize, prefix: Prefix, visit: &mut impl FnMut(ScoredCombo)) {
        let comp = &self.components[c];
        let last = c + 1 == self.components.len();
        for (p, s) in self.scores[comp.range()].iter().enumerate() {
            let next = prefix.then(comp, p, s);
            if last {
                visit(self.combo(next));
            } else {
                self.descend(c + 1, next, visit);
            }
        }
    }

    /// The combination at enumeration `rank`, bit for bit as the
    /// depth-first pass scores it: the same partials in the same fold.
    pub fn combo_at(&self, rank: u64) -> ScoredCombo {
        let sums = (self.components.iter().zip(self.choices(rank)))
            .fold(self.empty_prefix(), |prefix, (comp, p)| {
                prefix.then(comp, p, &self.scores[comp.start + p])
            });
        self.combo(sums)
    }

    /// The scores of a whole combination, from its sums — the same
    /// formulas [`ScoredOffer::score`] applies.
    fn combo(&self, sums: Prefix) -> ScoredCombo {
        let oif = sums.importance - self.cost_per_dollar * sums.cost.dollars();
        let within = sums.cost <= self.max_cost;
        let sns = if sums.desired && within {
            StaticNegotiationStatus::Desirable
        } else if sums.worst {
            StaticNegotiationStatus::Acceptable
        } else {
            StaticNegotiationStatus::Constraint
        };
        ScoredCombo {
            rank: sums.rank,
            cost: sums.cost,
            qos_importance: sums.importance,
            oif,
            sns,
            satisfies_request: within && sums.worst,
            decodable: sums.decode <= self.decode_budget,
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
    pub fn reservation_stream(&self) -> impl Iterator<Item = ScoredCombo> + '_ {
        let mut ranking = Ranking::score(self);
        let mut cursor = WalkCursor::default();
        std::iter::from_fn(move || {
            (ranking.advance(&mut cursor)).map(|idx| self.combo_at(ranking.keys[idx].rank()))
        })
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

/// Bits of a key's rank field, so a product must stay below 2^56 offers.
const RANK_BITS: u32 = 56;

/// One ranked offer as one integer, high bits to low: the strategy's order
/// key (66 bits for SNS-then-OIF, else 64), the rank, then the SNS class (2
/// bits), `satisfies_request` and `decodable`. Ranks are unique in a list,
/// so the integer order is the strategy's, ties in enumeration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct OfferKey(u128);

impl OfferKey {
    /// `combo`'s key under `strategy`.
    fn new(strategy: ClassificationStrategy, combo: &ScoredCombo) -> OfferKey {
        let (sns, oif) = (combo.sns as u128, !total_key(combo.oif) as u128);
        let order = match strategy {
            ClassificationStrategy::SnsThenOif => sns << 64 | oif,
            ClassificationStrategy::OifOnly => oif,
            ClassificationStrategy::CostOnly => (combo.cost.millis() as u64 ^ 1 << 63) as u128,
            ClassificationStrategy::QosOnly => !total_key(combo.qos_importance) as u128,
        };
        let flags = sns << 2 | (combo.satisfies_request as u128) << 1 | combo.decodable as u128;
        OfferKey(order << (RANK_BITS + 4) | (combo.rank as u128) << 4 | flags)
    }

    pub(crate) fn rank(self) -> u64 {
        (self.0 >> 4) as u64 & ((1 << RANK_BITS) - 1)
    }

    pub(crate) fn decodable(self) -> bool {
        self.0 & 1 != 0
    }

    fn satisfies(self) -> bool {
        self.0 & 2 != 0
    }

    fn sns(self) -> usize {
        (self.0 >> 2) as usize & 3
    }
}

/// The scored product, ordered on demand: `keys[..ordered]` are the first
/// `ordered` offers of the classified order, in place; the rest all sort
/// after them, in no particular order yet.
#[derive(Debug, Clone)]
struct Ranking {
    keys: Vec<OfferKey>,
    ordered: usize,
    /// How many offers satisfy the user's request.
    satisfying: usize,
}

impl Ranking {
    /// Score `engine`'s whole product in enumeration order with the
    /// [`ScoredOffer::score`]-identical fold, keeping each offer's key.
    fn score(engine: &OfferEngine) -> Ranking {
        let mut keys = Vec::with_capacity(engine.total);
        let mut satisfying = 0;
        engine.for_each_combo(|combo| {
            satisfying += usize::from(combo.satisfies_request);
            keys.push(OfferKey::new(engine.strategy, &combo));
        });
        Ranking {
            keys,
            ordered: 0,
            satisfying,
        }
    }

    /// Put (at least) the first `n` keys of the classified order in place.
    #[inline]
    fn order_to(&mut self, n: usize) {
        if n > self.ordered {
            self.order_more(n);
        }
    }

    /// The ordering step itself, out of line: a walk checks `order_to` once
    /// per offer and takes this at most twice. A request within [`HEAD`]
    /// selects and sorts that head, linear in the product; anything deeper
    /// sorts the rest.
    #[cold]
    fn order_more(&mut self, n: usize) {
        if n <= HEAD && HEAD < self.keys.len() {
            self.keys.select_nth_unstable(HEAD - 1);
            self.keys[..HEAD].sort_unstable();
            self.ordered = HEAD;
        } else {
            self.keys[self.ordered..].sort_unstable();
            self.ordered = self.keys.len();
        }
    }

    /// The classified index of the walk's next offer, ordering as far as
    /// the walk has got.
    #[inline]
    fn advance(&mut self, cursor: &mut WalkCursor) -> Option<usize> {
        if cursor.yielded == self.keys.len() {
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
            if self.keys[idx].satisfies() != rest {
                cursor.yielded += 1;
                return Some(idx);
            }
        }
    }
}

/// `x` as an unsigned integer in the order [`f64::total_cmp`] puts it:
/// flipping every bit of a negative float reverses its magnitude order and
/// puts it below every positive one, whose sign bit is set to lift it. So
/// −NaN < −∞ < … < −0.0 < +0.0 < … < +∞ < +NaN, as `total_cmp` has it; a
/// descending key is the complement.
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The classified offer list as plain data over its engine: one 16-byte
/// key per offer, scored up front and ordered on demand, each entry's
/// [`ScoredCombo`] rebuilt when read (see the module docs). This is what
/// [`prepare`](crate::negotiate::prepare) hands to step 5, and what an
/// outcome and an active session keep for adaptation; an entry becomes a
/// [`ScoredOffer`] only when it commits, or when somebody materializes it.
/// Every accessor orders as far as it needs first, so none ever returns an
/// entry that is not in its classified position.
#[derive(Debug, Clone)]
pub struct RankedOffers {
    engine: OfferEngine,
    ranking: Ranking,
}

impl Default for RankedOffers {
    /// The empty list, carried by an outcome that ranked no offers.
    fn default() -> RankedOffers {
        RankedOffers {
            engine: OfferEngine {
                variants: Vec::new(),
                scores: Vec::new(),
                components: Vec::new(),
                strategy: ClassificationStrategy::SnsThenOif,
                copyright: Money::ZERO,
                cost_per_dollar: 0.0,
                max_cost: Money::ZERO,
                decode_budget: 0.0,
                total: 0,
            },
            ranking: Ranking {
                keys: Vec::new(),
                ordered: 0,
                satisfying: 0,
            },
        }
    }
}

impl RankedOffers {
    /// Score `engine`'s whole product. Nothing is ordered yet.
    pub fn new(engine: OfferEngine) -> RankedOffers {
        let ranking = Ranking::score(&engine);
        RankedOffers { engine, ranking }
    }

    /// Number of classified offers.
    pub fn len(&self) -> usize {
        self.ranking.keys.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.ranking.keys.is_empty()
    }

    /// The entries, in classified order (orders the whole list).
    pub fn entries(&mut self) -> impl Iterator<Item = ScoredCombo> + '_ {
        self.ranking.order_to(self.len());
        (self.ranking.keys.iter()).map(|k| self.engine.combo_at(k.rank()))
    }

    /// The entry at classified index `idx`.
    pub fn entry(&mut self, idx: usize) -> ScoredCombo {
        let rank = self.key(idx).rank();
        self.engine.combo_at(rank)
    }

    /// The key at classified index `idx`.
    #[inline]
    pub(crate) fn key(&mut self, idx: usize) -> OfferKey {
        self.ranking.order_to(idx + 1);
        self.ranking.keys[idx]
    }

    /// The engine the entries' ranks decode against.
    pub fn engine(&self) -> &OfferEngine {
        &self.engine
    }

    /// The offer at classified index `idx`, materialized.
    pub fn materialize(&mut self, idx: usize) -> ScoredOffer {
        let combo = self.entry(idx);
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

    /// SNS class populations: `[desirable, acceptable, constraint]`.
    pub(crate) fn sns_census(&self) -> [u64; 3] {
        let mut census = [0; 3];
        for key in &self.ranking.keys {
            census[key.sns()] += 1;
        }
        census
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;
    use crate::profile::{MmQosSpec, UserProfile};
    use nod_mmdoc::prelude::*;
    use std::cmp::Ordering;

    const STRATEGIES: [ClassificationStrategy; 4] = [
        ClassificationStrategy::SnsThenOif,
        ClassificationStrategy::OifOnly,
        ClassificationStrategy::CostOnly,
        ClassificationStrategy::QosOnly,
    ];

    fn client() -> ClientMachine {
        ClientMachine::era_workstation(ClientId(0))
    }

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
        let (client, profile, model) = (client(), profile(), CostModel::era_default());
        let strategy = ClassificationStrategy::SnsThenOif;
        let mut builder = OfferEngine::builder(
            &client,
            &profile,
            &model,
            Guarantee::Guaranteed,
            strategy,
            1,
            variants.len(),
        );
        builder.component(MonomediaId(1), 60_000, variants.iter());
        builder.finish(10_000).expect("engine builds")
    }

    /// The paper-literal reference: classify the eagerly enumerated offers.
    fn reference(engine: &OfferEngine) -> Vec<ScoredOffer> {
        crate::classify::classify(engine.offers(), &profile(), engine.strategy)
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
        let mut ranked = RankedOffers::new(engine);
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
        let mut ranked = RankedOffers::new(engine);
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
    fn finish_fails_like_the_eager_enumeration() {
        let (client, profile, model) = (client(), profile(), CostModel::era_default());
        let strategy = ClassificationStrategy::SnsThenOif;
        let three: Vec<Variant> = (1..=3)
            .map(|id| variant(id, 1, ColorDepth::Color, 25, 0))
            .collect();
        let build = |lists: &[&[Variant]], cap| {
            let guarantee = Guarantee::Guaranteed;
            let stored = lists.iter().map(|l| l.len()).sum();
            let mut b =
                OfferEngine::builder(&client, &profile, &model, guarantee, strategy, 3, stored);
            for (c, list) in lists.iter().enumerate() {
                b.component(MonomediaId(c as u64 + 1), 60_000, list.iter());
            }
            (b.variants(), b.finish(cap))
        };
        // The first empty component is reported, after every component
        // has been read.
        let (read, result) = build(&[&three, &[], &three, &[]], 100);
        assert_eq!(read, 6);
        assert_eq!(
            result.unwrap_err(),
            EnumerationError::NoFeasibleVariant(MonomediaId(2))
        );
        // A product of 27 fits a cap of 27, not one of 26.
        let (_, result) = build(&[&three, &three, &three], 26);
        assert_eq!(
            result.unwrap_err(),
            EnumerationError::TooManyOffers { cap: 26 }
        );
        let engine = build(&[&three, &three, &three], 27).1.expect("fits");
        assert_eq!(engine.total(), 27);
        // Ranks decode last-component-fastest into the flat arrays.
        let ids: Vec<u64> = engine.streams_at(14).map(|(v, ..)| v.id.0).collect();
        assert_eq!(ids, [2, 2, 3]);
        assert_eq!(engine.choices(14).collect::<Vec<_>>(), [1, 1, 2]);
        // 3 prefixes of component 0 and 9 of components 0–1.
        assert_eq!(engine.inner_prefixes(), 12);
    }

    #[test]
    fn a_product_too_wide_for_the_rank_field_is_refused_whatever_the_cap() {
        let (client, profile, model) = (client(), profile(), CostModel::era_default());
        let strategy = ClassificationStrategy::SnsThenOif;
        let list = |n: u64| -> Vec<Variant> {
            (1..=n)
                .map(|id| variant(id, 1, ColorDepth::Color, 25, 0))
                .collect()
        };
        let build = |lists: &[Vec<Variant>]| {
            let guarantee = Guarantee::Guaranteed;
            let stored = lists.iter().map(Vec::len).sum();
            let mut b =
                OfferEngine::builder(&client, &profile, &model, guarantee, strategy, 8, stored);
            for (c, list) in lists.iter().enumerate() {
                b.component(MonomediaId(c as u64 + 1), 60_000, list.iter());
            }
            b.finish(usize::MAX)
        };
        // 128^8 = 2^56 offers: one past the widest rank.
        let wide = vec![list(128); 8];
        assert_eq!(
            build(&wide).unwrap_err(),
            EnumerationError::TooManyOffers { cap: usize::MAX }
        );
        // 128^7 · 64 = 2^55 offers fit; `finish` scores none of them.
        let mut fits = vec![list(128); 7];
        fits.push(list(64));
        assert_eq!(build(&fits).expect("fits").total(), 1 << 55);
    }

    /// The key order `order_more` sorted by before the key was packed: the
    /// strategy's key, then the enumeration rank.
    fn tuple_cmp(strategy: ClassificationStrategy, a: &ScoredCombo, b: &ScoredCombo) -> Ordering {
        let key = |c: &ScoredCombo| match strategy {
            ClassificationStrategy::SnsThenOif => (c.sns as u8, !total_key(c.oif), 0, c.rank),
            ClassificationStrategy::OifOnly => (0, !total_key(c.oif), 0, c.rank),
            ClassificationStrategy::CostOnly => (0, 0, c.cost.millis(), c.rank),
            ClassificationStrategy::QosOnly => (0, !total_key(c.qos_importance), 0, c.rank),
        };
        key(a).cmp(&key(b))
    }

    #[test]
    fn the_packed_key_orders_like_the_tuple_and_keeps_the_flags() {
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() | 1);
        let floats = [
            0.0,
            -0.0,
            nan,
            -nan,
            other_nan,
            -other_nan,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -1.5,
        ];
        let costs = [i64::MIN, -1, 0, 1, 2_500, i64::MAX].map(Money::from_millis);
        let classes = [
            StaticNegotiationStatus::Desirable,
            StaticNegotiationStatus::Acceptable,
            StaticNegotiationStatus::Constraint,
        ];
        let mut rng = nod_simcore::StreamRng::new(43);
        let pick = |rng: &mut nod_simcore::StreamRng, n: usize| rng.below(n as u64) as usize;
        for strategy in STRATEGIES {
            // Few distinct scores over many ranks: equal scores at
            // different ranks, the widest rank among them.
            let combos: Vec<ScoredCombo> = (0..96u64)
                .map(|i| ScoredCombo {
                    rank: if i == 0 {
                        (1 << RANK_BITS) - 1
                    } else {
                        i * 7_919
                    },
                    cost: costs[pick(&mut rng, costs.len())],
                    qos_importance: floats[pick(&mut rng, floats.len())],
                    oif: floats[pick(&mut rng, floats.len())],
                    sns: classes[pick(&mut rng, classes.len())],
                    satisfies_request: rng.chance(0.5),
                    decodable: rng.chance(0.5),
                })
                .collect();
            for a in &combos {
                let key = OfferKey::new(strategy, a);
                assert_eq!(key.rank(), a.rank);
                assert_eq!(key.sns(), a.sns as usize);
                assert_eq!(key.satisfies(), a.satisfies_request);
                assert_eq!(key.decodable(), a.decodable);
                for b in &combos {
                    assert_eq!(
                        key.cmp(&OfferKey::new(strategy, b)),
                        tuple_cmp(strategy, a, b),
                        "{strategy:?}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn combo_at_rebuilds_the_scored_combo_bit_for_bit() {
        let mut rng = nod_simcore::StreamRng::new(7);
        let depths = [
            ColorDepth::BlackWhite,
            ColorDepth::Grey,
            ColorDepth::Color,
            ColorDepth::SuperColor,
        ];
        let model = CostModel::era_default();
        let mut checked = [0usize; 2];
        for strategy in STRATEGIES {
            for width in 1..=10u64 {
                let mut profile = profile();
                profile.importance.color = [0.0; 4].map(|_| rng.range_f64(-2.0, 2.0));
                profile.importance.cost_per_dollar = rng.range_f64(0.0, 0.3);
                let mut client = client();
                client.decode_budget = rng.range_f64(4.0, 7.0) * width as f64;
                let lists: Vec<Vec<Variant>> = (0..width)
                    .map(|c| {
                        (0..rng.range_u64(1, 3))
                            .map(|v| {
                                let color = depths[rng.below(4) as usize];
                                let fps = rng.range_u64(5, 30) as u32;
                                variant(c * 3 + v + 1, c + 1, color, fps, rng.below(3))
                            })
                            .collect()
                    })
                    .collect();
                let stored = lists.iter().map(Vec::len).sum();
                let guarantee = Guarantee::Guaranteed;
                let (c, p) = (&client, &profile);
                let mut b = OfferEngine::builder(c, p, &model, guarantee, strategy, 10, stored);
                for (c, list) in lists.iter().enumerate() {
                    b.component(MonomediaId(c as u64 + 1), 60_000, list.iter());
                }
                let engine = b.finish(usize::MAX).expect("fits");
                engine.for_each_combo(|want| {
                    let got = engine.combo_at(want.rank);
                    let tag = format!("{strategy:?}, {width} components, rank {}", want.rank);
                    assert_eq!(got.rank, want.rank, "{tag}");
                    assert_eq!(got.cost, want.cost, "{tag}");
                    assert_eq!(got.qos_importance.to_bits(), want.qos_importance.to_bits());
                    assert_eq!(got.oif.to_bits(), want.oif.to_bits(), "{tag}");
                    assert_eq!(got.sns, want.sns, "{tag}");
                    assert_eq!(got.satisfies_request, want.satisfies_request, "{tag}");
                    assert_eq!(got.decodable, want.decodable, "{tag}");
                    checked[usize::from(want.decodable)] += 1;
                });
            }
        }
        assert!(checked[0] > 1_000 && checked[1] > 1_000, "{checked:?}");
    }

    #[test]
    fn a_ranked_list_stores_sixteen_bytes_per_offer() {
        let engine = engine_over(
            (1..=20)
                .map(|id| variant(id, 1, ColorDepth::Color, 5 + id as u32, id % 2))
                .collect(),
        );
        let ranked = RankedOffers::new(engine);
        assert_eq!(size_of::<OfferKey>(), 16);
        assert_eq!(ranked.ranking.keys.capacity(), ranked.len());
        assert_eq!(size_of_val(&ranked.ranking.keys[..]), 16 * ranked.len());
    }

    #[test]
    fn the_decode_flag_is_the_clients_verdict_on_the_whole_offer() {
        let (profile, model) = (profile(), CostModel::era_default());
        let strategy = ClassificationStrategy::SnsThenOif;
        let lists: Vec<Vec<Variant>> = (0..3u64)
            .map(|c| {
                (0..3u64)
                    .map(|v| {
                        variant(
                            c * 3 + v + 1,
                            c + 1,
                            ColorDepth::Color,
                            10 + 7 * v as u32,
                            0,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut flagged = [0usize; 2];
        for budget in [0.0, 1.0, 2.5, 4.0, 6.0, f64::INFINITY, f64::NAN] {
            let mut client = client();
            client.decode_budget = budget;
            let mut b = OfferEngine::builder(
                &client,
                &profile,
                &model,
                Guarantee::Guaranteed,
                strategy,
                3,
                lists.iter().map(Vec::len).sum(),
            );
            for (c, list) in lists.iter().enumerate() {
                b.component(MonomediaId(c as u64 + 1), 60_000, list.iter());
            }
            let engine = b.finish(100).expect("fits");
            engine.for_each_combo(|combo| {
                let streams = engine.streams_at(combo.rank).map(|(v, ..)| v);
                assert_eq!(
                    combo.decodable,
                    client.can_decode_concurrently(streams),
                    "budget {budget}, rank {}",
                    combo.rank
                );
                flagged[usize::from(combo.decodable)] += 1;
            });
        }
        assert!(flagged[0] > 0 && flagged[1] > 0, "{flagged:?}");
    }

    #[test]
    fn total_key_orders_like_total_cmp() {
        let nan = f64::NAN;
        let values = [
            -nan,
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 4.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            nan,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn census_matches_classification() {
        let engine = engine_over(vec![
            variant(1, 1, ColorDepth::SuperColor, 30, 0),
            variant(2, 1, ColorDepth::Color, 25, 0),
            variant(3, 1, ColorDepth::Grey, 15, 1),
        ]);
        let want = reference(&engine);
        let [d, a, c] = RankedOffers::new(engine).sns_census();
        let count = |s: StaticNegotiationStatus| want.iter().filter(|o| o.sns == s).count() as u64;
        assert_eq!(d, count(StaticNegotiationStatus::Desirable));
        assert_eq!(a, count(StaticNegotiationStatus::Acceptable));
        assert_eq!(c, count(StaticNegotiationStatus::Constraint));
        assert_eq!(d + a + c, want.len() as u64);
    }
}
