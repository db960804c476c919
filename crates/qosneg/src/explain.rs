//! Decision provenance: per-negotiation "explain" artifacts.
//!
//! The negotiation is a five-step decision procedure, but its normal
//! outputs — aggregate counters, causal spans, a terminal status — cannot
//! answer "why did session 4412 get offer 7 instead of offer 3, and which
//! link refused the better one?". This module carries the load-bearing
//! facts of each step in a [`DecisionLog`]:
//!
//! * the score decomposition (QoS importance vs CostNet vs CostSer) for
//!   the top-k classified offers plus the chosen one ([`ScoreRow`]),
//! * every refused step-5 commit with the concrete shortfall — which
//!   server or link said no, requested vs available ([`RefusalRecord`],
//!   [`Shortfall`]),
//! * choice-period settlement ([`Settlement`]) and adaptation verdicts
//!   including the make-before-break check ([`AdaptationRecord`]).
//!
//! Collection is opt-in via [`NegotiationContext::explain`]; the disabled
//! path is a boolean check per walk and allocates nothing. Only the walk's
//! live facts — refusals, the chosen rank, the status — are captured as it
//! runs; the rest of a log (score rows, durations, counts) depends only on
//! the catalog and the request, and is derived from them
//! ([`explain_attempts`]) when a log is wanted. A broker drive keeps only
//! live facts, down to its capacity ledger, which records per admission
//! the session, the held offer's index and the commit instant; the broker
//! derives each [`LedgerRow`] and completes each retained session as
//! [`write_jsonl`] reaches it. Logs are plain data with
//! [`ToJson`]/[`FromJson`] impls, serialized as JSON lines
//! ([`ExplainArtifact`]) so a `--explain-out` artifact is diffable,
//! byte-identical for the same seed, and queryable offline by the
//! `nod_explain` CLI. Parsing ignores keys a log no longer has, so an
//! artifact written before a field was dropped still loads.
//!
//! [`NegotiationContext::explain`]: crate::negotiate::NegotiationContext::explain
//! [`explain_attempts`]: crate::negotiate::explain_attempts

use std::borrow::Borrow;
use std::io::{self, Write};

use nod_obs::RetentionStats;
use nod_simcore::json::{FromJson, Json, JsonError, ToJson};
use nod_simcore::json_struct;

use crate::engine::RankedOffers;
use crate::money::Money;
use crate::negotiate::NegotiationStatus;
use crate::sns::StaticNegotiationStatus;

/// How many top-ranked offers get a full [`ScoreRow`] in each log (the
/// chosen offer is appended when it ranks below this).
pub const EXPLAIN_TOP_K: usize = 8;

/// The concrete resource shortfall behind one refused commit: which
/// quantity ran out, requested vs available. Stack-only (`Copy`), so
/// capturing it costs no allocation even on the refusal path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Shortfall {
    /// No quantitative shortfall (load-independent refusals).
    #[default]
    None,
    /// The client cannot decode the offer's streams concurrently.
    DecodeBudget,
    /// No route, or the path's jitter/loss/delay violate the §6 bounds.
    PathQos,
    /// Estimated startup exceeds the time profile's bound, ms.
    Startup {
        /// The estimate, ms.
        estimated_ms: u64,
        /// The bound, ms.
        limit_ms: u64,
    },
    /// The server's disk round schedule cannot absorb the stream, µs.
    Disk {
        /// Current round usage, µs.
        used_us: u64,
        /// Additional cost of the stream, µs.
        requested_us: u64,
        /// Round capacity, µs.
        capacity_us: u64,
    },
    /// The server's network interface is out of bandwidth, bits/s.
    Interface {
        /// Currently reserved, bits/s.
        used_bps: u64,
        /// Requested, bits/s.
        requested_bps: u64,
        /// Interface capacity, bits/s.
        capacity_bps: u64,
    },
    /// The server's concurrent-stream limit is full.
    StreamLimit {
        /// The configured limit.
        limit: u64,
    },
    /// The server is draining (admission paused).
    AdmissionPaused,
    /// A link on the path could not carry the stream's bandwidth.
    Link {
        /// The saturated link.
        link: u64,
        /// Requested, bits/s.
        requested_bps: u64,
        /// Still available on the link, bits/s.
        available_bps: u64,
    },
}

impl ToJson for Shortfall {
    fn to_json(&self) -> Json {
        match *self {
            Shortfall::None => Json::Str("None".to_string()),
            Shortfall::DecodeBudget => Json::Str("DecodeBudget".to_string()),
            Shortfall::PathQos => Json::Str("PathQos".to_string()),
            Shortfall::AdmissionPaused => Json::Str("AdmissionPaused".to_string()),
            Shortfall::Startup {
                estimated_ms,
                limit_ms,
            } => Json::tagged(
                "Startup",
                Json::Obj(vec![
                    ("estimated_ms".to_string(), estimated_ms.to_json()),
                    ("limit_ms".to_string(), limit_ms.to_json()),
                ]),
            ),
            Shortfall::Disk {
                used_us,
                requested_us,
                capacity_us,
            } => Json::tagged(
                "Disk",
                Json::Obj(vec![
                    ("used_us".to_string(), used_us.to_json()),
                    ("requested_us".to_string(), requested_us.to_json()),
                    ("capacity_us".to_string(), capacity_us.to_json()),
                ]),
            ),
            Shortfall::Interface {
                used_bps,
                requested_bps,
                capacity_bps,
            } => Json::tagged(
                "Interface",
                Json::Obj(vec![
                    ("used_bps".to_string(), used_bps.to_json()),
                    ("requested_bps".to_string(), requested_bps.to_json()),
                    ("capacity_bps".to_string(), capacity_bps.to_json()),
                ]),
            ),
            Shortfall::StreamLimit { limit } => Json::tagged(
                "StreamLimit",
                Json::Obj(vec![("limit".to_string(), limit.to_json())]),
            ),
            Shortfall::Link {
                link,
                requested_bps,
                available_bps,
            } => Json::tagged(
                "Link",
                Json::Obj(vec![
                    ("link".to_string(), link.to_json()),
                    ("requested_bps".to_string(), requested_bps.to_json()),
                    ("available_bps".to_string(), available_bps.to_json()),
                ]),
            ),
        }
    }
}

impl FromJson for Shortfall {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Json::Str(s) = v {
            return match s.as_str() {
                "None" => Ok(Shortfall::None),
                "DecodeBudget" => Ok(Shortfall::DecodeBudget),
                "PathQos" => Ok(Shortfall::PathQos),
                "AdmissionPaused" => Ok(Shortfall::AdmissionPaused),
                other => Err(JsonError(format!("unknown Shortfall variant `{other}`"))),
            };
        }
        let (tag, inner) = v.as_tagged()?;
        let get = |k: &str| -> Result<u64, JsonError> { u64::from_json(inner.field(k)?) };
        match tag {
            "Startup" => Ok(Shortfall::Startup {
                estimated_ms: get("estimated_ms")?,
                limit_ms: get("limit_ms")?,
            }),
            "Disk" => Ok(Shortfall::Disk {
                used_us: get("used_us")?,
                requested_us: get("requested_us")?,
                capacity_us: get("capacity_us")?,
            }),
            "Interface" => Ok(Shortfall::Interface {
                used_bps: get("used_bps")?,
                requested_bps: get("requested_bps")?,
                capacity_bps: get("capacity_bps")?,
            }),
            "StreamLimit" => Ok(Shortfall::StreamLimit {
                limit: get("limit")?,
            }),
            "Link" => Ok(Shortfall::Link {
                link: get("link")?,
                requested_bps: get("requested_bps")?,
                available_bps: get("available_bps")?,
            }),
            other => Err(JsonError(format!("unknown Shortfall variant `{other}`"))),
        }
    }
}

impl std::fmt::Display for Shortfall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Shortfall::None => write!(f, "no quantitative shortfall"),
            Shortfall::DecodeBudget => write!(f, "client decode budget exceeded"),
            Shortfall::PathQos => write!(f, "path QoS out of bounds or unroutable"),
            Shortfall::AdmissionPaused => write!(f, "server draining (admission paused)"),
            Shortfall::Startup {
                estimated_ms,
                limit_ms,
            } => write!(f, "startup {estimated_ms} ms > {limit_ms} ms bound"),
            Shortfall::Disk {
                used_us,
                requested_us,
                capacity_us,
            } => write!(
                f,
                "disk round {used_us}+{requested_us} µs > {capacity_us} µs"
            ),
            Shortfall::Interface {
                used_bps,
                requested_bps,
                capacity_bps,
            } => write!(
                f,
                "interface {used_bps}+{requested_bps} bps > {capacity_bps} bps"
            ),
            Shortfall::StreamLimit { limit } => write!(f, "stream limit {limit} reached"),
            Shortfall::Link {
                link,
                requested_bps,
                available_bps,
            } => write!(
                f,
                "link {link}: requested {requested_bps} bps, {available_bps} bps available"
            ),
        }
    }
}

impl Shortfall {
    /// The variant's index and its quantities in field order, zero-padded:
    /// how a [`RefusalRecord`] stores it.
    fn pack(self) -> (u8, [u64; 3]) {
        match self {
            Shortfall::None => (0, [0; 3]),
            Shortfall::DecodeBudget => (1, [0; 3]),
            Shortfall::PathQos => (2, [0; 3]),
            Shortfall::Startup {
                estimated_ms,
                limit_ms,
            } => (3, [estimated_ms, limit_ms, 0]),
            Shortfall::Disk {
                used_us,
                requested_us,
                capacity_us,
            } => (4, [used_us, requested_us, capacity_us]),
            Shortfall::Interface {
                used_bps,
                requested_bps,
                capacity_bps,
            } => (5, [used_bps, requested_bps, capacity_bps]),
            Shortfall::StreamLimit { limit } => (6, [limit, 0, 0]),
            Shortfall::AdmissionPaused => (7, [0; 3]),
            Shortfall::Link {
                link,
                requested_bps,
                available_bps,
            } => (8, [link, requested_bps, available_bps]),
        }
    }

    /// The shortfall [`Shortfall::pack`] gave `(variant, q)` for.
    fn unpack(variant: u8, q: [u64; 3]) -> Shortfall {
        match variant {
            0 => Shortfall::None,
            1 => Shortfall::DecodeBudget,
            2 => Shortfall::PathQos,
            3 => Shortfall::Startup {
                estimated_ms: q[0],
                limit_ms: q[1],
            },
            4 => Shortfall::Disk {
                used_us: q[0],
                requested_us: q[1],
                capacity_us: q[2],
            },
            5 => Shortfall::Interface {
                used_bps: q[0],
                requested_bps: q[1],
                capacity_bps: q[2],
            },
            6 => Shortfall::StreamLimit { limit: q[0] },
            7 => Shortfall::AdmissionPaused,
            _ => Shortfall::Link {
                link: q[0],
                requested_bps: q[1],
                available_bps: q[2],
            },
        }
    }
}

/// Score decomposition of one classified offer: the terms the ordering
/// actually compared, not just the final rank.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRow {
    /// Rank in the classified list (0 = best).
    pub rank: u64,
    /// The offer's streams: `(variant id, serving server)` per document
    /// component, in component order.
    pub streams: Vec<(u64, u64)>,
    /// Static negotiation status (DESIRABLE / ACCEPTABLE / CONSTRAINT).
    pub sns: StaticNegotiationStatus,
    /// QoS importance component (before cost subtraction).
    pub qos_importance: f64,
    /// Overall importance factor (the classification's tiebreak score).
    pub oif: f64,
    /// Σ CostNetᵢ of the offer's streams.
    pub cost_net: Money,
    /// Σ CostSerᵢ of the offer's streams.
    pub cost_ser: Money,
    /// Total document cost (CostNet + CostSer + copyright).
    pub cost_total: Money,
    /// Satisfies the worst-acceptable QoS and cost ceiling?
    pub satisfies_request: bool,
    /// Is this the offer step 5 finally reserved?
    pub chosen: bool,
}

json_struct!(ScoreRow {
    rank,
    streams,
    sns,
    qos_importance,
    oif,
    cost_net,
    cost_ser,
    cost_total,
    satisfies_request,
    chosen,
});

impl ScoreRow {
    /// Decompose the offer at classified index `rank` of `ranked`: its
    /// scores from the entry, its streams and their CostNet/CostSer split
    /// from the engine's per-variant prices — exactly what formula (1)
    /// summed, nothing re-priced, no offer materialized.
    fn of(ranked: &mut RankedOffers, rank: usize, chosen: bool) -> ScoreRow {
        let combo = ranked.entry(rank);
        let mut cost_net = Money::default();
        let mut cost_ser = Money::default();
        let streams = ranked
            .engine()
            .streams_at(combo.rank)
            .map(|(v, net, ser)| {
                cost_net += net;
                cost_ser += ser;
                (v.id.0, v.server.0)
            })
            .collect();
        ScoreRow {
            rank: rank as u64,
            streams,
            sns: combo.sns,
            qos_importance: combo.qos_importance,
            oif: combo.oif,
            cost_net,
            cost_ser,
            cost_total: combo.cost,
            satisfies_request: combo.satisfies_request,
            chosen,
        }
    }
}

/// Stable refusal kind — the same labels as the `reason` dimension of
/// the `negotiation.commit.refused` counter. `Copy`, so a contended walk
/// that refuses the whole classified list records every verdict without
/// allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RefusalKind {
    /// The client cannot decode the offer's streams concurrently.
    DecodeBudget,
    /// No route, or the path's QoS violates the §6 bounds.
    PathQos,
    /// Estimated startup exceeds the time profile's bound.
    Startup,
    /// The server refused admission (disk round, interface, stream
    /// limit, or draining).
    Server,
    /// A link on the path could not carry the stream.
    Network,
}

impl RefusalKind {
    /// The stable label (`decode_budget`, `path_qos`, `startup`,
    /// `server`, `network`).
    pub fn as_str(self) -> &'static str {
        match self {
            RefusalKind::DecodeBudget => "decode_budget",
            RefusalKind::PathQos => "path_qos",
            RefusalKind::Startup => "startup",
            RefusalKind::Server => "server",
            RefusalKind::Network => "network",
        }
    }

    /// Would retrying the same offer later plausibly succeed?
    ///
    /// Server, network and path-QoS refusals depend on current load —
    /// they are what FAILEDTRYLATER's "try later" refers to, and release
    /// of other sessions' resources can clear them. Decode-budget and
    /// startup refusals are static properties of the client and the
    /// route; waiting does not change them.
    pub fn transient(self) -> bool {
        match self {
            RefusalKind::Server | RefusalKind::Network | RefusalKind::PathQos => true,
            RefusalKind::DecodeBudget | RefusalKind::Startup => false,
        }
    }
}

impl std::fmt::Display for RefusalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for RefusalKind {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }
}

impl FromJson for RefusalKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let Json::Str(s) = v else {
            return Err(JsonError("RefusalKind expects a string".to_string()));
        };
        match s.as_str() {
            "decode_budget" => Ok(RefusalKind::DecodeBudget),
            "path_qos" => Ok(RefusalKind::PathQos),
            "startup" => Ok(RefusalKind::Startup),
            "server" => Ok(RefusalKind::Server),
            "network" => Ok(RefusalKind::Network),
            other => Err(JsonError(format!("unknown RefusalKind `{other}`"))),
        }
    }
}

/// One refused step-5 (or adaptation) commit, in 40 bytes: which offer,
/// what kind of resource said no, the server when one is implicated, and
/// the concrete shortfall. The walk's only description of a refusal, from
/// the commit attempt to the artifact line; a retained run keeps tens of
/// thousands of them. The shortfall is stored as its variant and up to
/// three quantities, and a missing server as `u64::MAX`; the accessors
/// give back the values [`RefusalRecord::new`] was handed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefusalRecord {
    rank: u32,
    kind: RefusalKind,
    shortfall_variant: u8,
    server: u64,
    quantities: [u64; 3],
}

impl RefusalRecord {
    /// The refusal of the offer at classified `rank`, of `kind`, with the
    /// refusing server, when one is implicated, and the concrete
    /// shortfall. Ranks are bounded by the enumeration cap, far below
    /// `u32::MAX`.
    pub fn new(rank: u64, kind: RefusalKind, server: Option<u64>, shortfall: Shortfall) -> Self {
        let (shortfall_variant, quantities) = shortfall.pack();
        RefusalRecord {
            rank: 0,
            kind,
            shortfall_variant,
            server: server.unwrap_or(u64::MAX),
            quantities,
        }
        .at_rank(rank)
    }

    /// The same refusal, cited for the offer at classified `rank`: a
    /// refused prefix refuses every offer that shares it alike.
    pub fn at_rank(self, rank: u64) -> Self {
        RefusalRecord {
            rank: u32::try_from(rank).expect("a classified rank fits in u32"),
            ..self
        }
    }

    /// Rank of the refused offer in the classified list.
    pub fn rank(&self) -> u64 {
        self.rank as u64
    }

    /// Stable refusal kind.
    pub fn kind(&self) -> RefusalKind {
        self.kind
    }

    /// The refusing server, when one is implicated.
    pub fn server(&self) -> Option<u64> {
        Some(self.server).filter(|&s| s != u64::MAX)
    }

    /// The concrete shortfall.
    pub fn shortfall(&self) -> Shortfall {
        Shortfall::unpack(self.shortfall_variant, self.quantities)
    }
}

/// The kind, the server when one is implicated, and the shortfall:
/// `server refusal at srv2: disk round 980+40 µs > 1000 µs`.
impl std::fmt::Display for RefusalRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} refusal", self.kind)?;
        if let Some(server) = self.server() {
            write!(f, " at {}", nod_mmdoc::ServerId(server))?;
        }
        write!(f, ": {}", self.shortfall())
    }
}

impl ToJson for RefusalRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rank".to_string(), self.rank().to_json()),
            ("kind".to_string(), self.kind.to_json()),
            ("server".to_string(), self.server().to_json()),
            ("shortfall".to_string(), self.shortfall().to_json()),
        ])
    }
}

impl FromJson for RefusalRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let rank = u64::from_json(v.field("rank")?)?;
        if rank > u32::MAX as u64 {
            return Err(JsonError(format!("RefusalRecord.rank {rank} out of range")));
        }
        Ok(RefusalRecord::new(
            rank,
            RefusalKind::from_json(v.field("kind")?)?,
            Option::<u64>::from_json(v.field("server")?)?,
            Shortfall::from_json(v.field("shortfall")?)?,
        ))
    }
}

/// The per-negotiation decision log: what each paper step decided and why.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionLog {
    /// Variants surviving step-2 compatibility filtering.
    pub feasible_variants: u64,
    /// System offers enumerated in step 3/4.
    pub offers_enumerated: u64,
    /// `(monomedia id, duration_ms)` of the document's components — kept
    /// so score rows can be (re)decomposed after the fact.
    pub durations_ms: Vec<(u64, u64)>,
    /// Score decomposition of the top-[`EXPLAIN_TOP_K`] classified offers
    /// (plus the chosen offer when it ranks below the cut).
    pub scores: Vec<ScoreRow>,
    /// Every refused commit of the step-5 walk, in attempt order.
    pub refusals: Vec<RefusalRecord>,
    /// Rank of the offer finally reserved.
    pub chosen_rank: Option<u64>,
    /// Terminal [`NegotiationStatus`] (serialized in the paper spelling,
    /// `SUCCEEDED` / `FAILEDTRYLATER` / …). `None` only on a log whose
    /// negotiation never reached a terminal status.
    ///
    /// [`NegotiationStatus`]: crate::negotiate::NegotiationStatus
    pub status: Option<NegotiationStatus>,
}

json_struct!(DecisionLog {
    feasible_variants,
    offers_enumerated,
    durations_ms,
    scores,
    refusals,
    chosen_rank,
    status,
});

impl DecisionLog {
    /// Record the top-k score rows of a scored list, ordering only those k.
    pub fn record_scores(&mut self, ranked: &mut RankedOffers) {
        let top = ranked.len().min(EXPLAIN_TOP_K);
        self.scores.clear();
        self.scores.reserve_exact(top);
        self.scores
            .extend((0..top).map(|rank| ScoreRow::of(ranked, rank, false)));
    }

    /// Mark the offer at classified index `rank` of `ranked` as the
    /// reserved one, appending its row when it ranks below the top-k cut.
    pub fn mark_chosen(&mut self, ranked: &mut RankedOffers, rank: usize) {
        self.chosen_rank = Some(rank as u64);
        match self.scores.iter_mut().find(|r| r.rank == rank as u64) {
            Some(row) => row.chosen = true,
            None => self.scores.push(ScoreRow::of(ranked, rank, true)),
        }
    }
}

/// One adaptation verdict: which alternates were tried, which committed,
/// and whether the transition held the old resources until the new ones
/// were in place (make-before-break).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationRecord {
    /// What triggered the adaptation (`server_congestion`,
    /// `network_congestion`, `user_request`).
    pub reason: String,
    /// Rank of the offer in difficulty (excluded from the re-walk).
    pub from_rank: u64,
    /// Refused alternates, in attempt order.
    pub attempts: Vec<RefusalRecord>,
    /// Rank of the alternate that committed, if any.
    pub new_rank: Option<u64>,
    /// `true` iff the current reservation was still held when the
    /// alternate committed — the make-before-break invariant. A failed
    /// adaptation also reports `true`: the session kept its resources.
    pub make_before_break: bool,
}

json_struct!(AdaptationRecord {
    reason,
    from_rank,
    attempts,
    new_rank,
    make_before_break,
});

/// One negotiation attempt of a broker-driven session (arrival or retry).
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptExplain {
    /// Virtual instant of the attempt, ms.
    pub at_ms: u64,
    /// The attempt's decision log.
    pub decisions: DecisionLog,
}

json_struct!(AttemptExplain { at_ms, decisions });

/// Choice-period settlement of an admitted session (paper step 6).
#[derive(Debug, Clone, PartialEq)]
pub struct Settlement {
    /// When the admission (resource commit) happened, ms.
    pub admitted_at_ms: u64,
    /// How long the simulated user deliberated, ms.
    pub choice_delay_ms: u64,
    /// Did the user confirm? (Always `true` for the current broker, which
    /// models acceptance; kept so decline policies stay representable.)
    pub confirmed: bool,
}

json_struct!(Settlement {
    admitted_at_ms,
    choice_delay_ms,
    confirmed,
});

/// The full provenance of one session: every attempt's decision log plus
/// settlement and adaptation history.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionExplain {
    /// Session index (spec order).
    pub session: u64,
    /// Arrival instant, ms.
    pub arrival_ms: u64,
    /// Terminal fate label (`admitted`, `admitted_degraded`, `starved`,
    /// `rejected`, `errored`).
    pub fate: String,
    /// Arrival → terminal event, ms.
    pub duration_ms: u64,
    /// Every negotiation attempt, in order.
    pub attempts: Vec<AttemptExplain>,
    /// Choice-period settlement, when one happened.
    pub settlement: Option<Settlement>,
    /// Adaptation verdicts, in order.
    pub adaptations: Vec<AdaptationRecord>,
}

json_struct!(SessionExplain {
    session,
    arrival_ms,
    fate,
    duration_ms,
    attempts,
    settlement,
    adaptations,
});

/// One reserved stream of an admitted session, for the capacity ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRow {
    /// The serving server.
    pub server: u64,
    /// Charged network bandwidth, bits/s (0 for discrete media).
    pub bps: u64,
}

json_struct!(StreamRow { server, bps });

/// One admission in the capacity ledger: who held what, from when to
/// when. Unlike [`SessionExplain`] (tail-retained), the ledger keeps
/// **every** admitted session — it is what lets `nod_explain` rebuild
/// per-resource utilization timelines over virtual time. A broker drive
/// records less per admission and derives these rows when it writes an
/// artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Session index.
    pub session: u64,
    /// Admission (resource commit) instant, ms.
    pub admit_ms: u64,
    /// Departure instant, ms (equal to `admit_ms` when the session never
    /// held what it committed).
    pub depart_ms: u64,
    /// The reserved streams.
    pub streams: Vec<StreamRow>,
}

json_struct!(LedgerRow {
    session,
    admit_ms,
    depart_ms,
    streams,
});

/// Artifact header: where the artifact came from and how it was sampled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplainMeta {
    /// Producing tool (`run_contended`, `run_scenario`, `run_fleet`).
    pub source: String,
    /// Workload seed.
    pub seed: u64,
    /// Total sessions driven.
    pub sessions: u64,
    /// Retention: slowest sessions kept.
    pub top_k: u64,
    /// Retention: baseline sample cadence (0 = none).
    pub sample_every: u64,
    /// Retention: baseline sample seed.
    pub sample_seed: u64,
}

json_struct!(ExplainMeta {
    source,
    seed,
    sessions,
    top_k,
    sample_every,
    sample_seed,
});

/// What a run hands back before the artifact header is known: the ledger,
/// the tail-retained session explanations (sorted by session id) and the
/// retention totals. A broker drive's ledger holds its own compact
/// entries (`L`) instead of [`LedgerRow`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainData<L = LedgerRow> {
    /// Capacity ledger, one entry per admitted session.
    pub ledger: Vec<L>,
    /// Retained per-session explanations, ascending session id.
    pub sessions: Vec<SessionExplain>,
    /// Tail-retention totals.
    pub stats: RetentionStats,
}

impl<L> Default for ExplainData<L> {
    fn default() -> Self {
        ExplainData {
            ledger: Vec::new(),
            sessions: Vec::new(),
            stats: RetentionStats::default(),
        }
    }
}

/// A complete `--explain-out` artifact: meta + ledger + sessions + stats,
/// serialized as JSON lines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplainArtifact {
    /// Artifact header.
    pub meta: ExplainMeta,
    /// Capacity ledger (every admitted session).
    pub ledger: Vec<LedgerRow>,
    /// Tail-retained session explanations.
    pub sessions: Vec<SessionExplain>,
    /// Retention totals.
    pub stats: RetentionStats,
}

/// Write an artifact as JSON lines: one `meta` line, one `ledger` line per
/// admission, one `session` line per retained explanation, one final
/// `stats` line. Each row and session is taken from its iterator only when
/// its line is written, so a writer that derives them holds one at a time.
pub fn write_jsonl<R: Borrow<LedgerRow>, S: Borrow<SessionExplain>>(
    out: &mut impl Write,
    meta: &ExplainMeta,
    ledger: impl IntoIterator<Item = R>,
    sessions: impl IntoIterator<Item = S>,
    stats: &RetentionStats,
) -> io::Result<()> {
    let mut line = |tag: &str, v: Json| {
        let line = Json::Obj(vec![(tag.to_string(), v)]).to_string_compact();
        writeln!(out, "{line}")
    };
    line("meta", meta.to_json())?;
    for row in ledger {
        line("ledger", row.borrow().to_json())?;
    }
    for s in sessions {
        line("session", s.borrow().to_json())?;
    }
    line("stats", stats.to_json())
}

impl ExplainArtifact {
    /// Assemble an artifact from a run's data and its header.
    pub fn new(meta: ExplainMeta, data: ExplainData) -> Self {
        ExplainArtifact {
            meta,
            ledger: data.ledger,
            sessions: data.sessions,
            stats: data.stats,
        }
    }

    /// Write as JSON lines ([`write_jsonl`]). Fully deterministic for a
    /// given artifact.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        write_jsonl(out, &self.meta, &self.ledger, &self.sessions, &self.stats)
    }

    /// Parse a JSON-lines artifact produced by [`write_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Self, JsonError> {
        let mut art = ExplainArtifact::default();
        for (n, raw) in text.lines().enumerate() {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let v = nod_simcore::json::from_str::<Json>(raw)
                .map_err(|e| JsonError(format!("line {}: {}", n + 1, e.0)))?;
            let (tag, inner) = v.as_tagged()?;
            match tag {
                "meta" => art.meta = ExplainMeta::from_json(inner)?,
                "ledger" => art.ledger.push(LedgerRow::from_json(inner)?),
                "session" => art.sessions.push(SessionExplain::from_json(inner)?),
                "stats" => art.stats = RetentionStats::from_json(inner)?,
                other => return Err(JsonError(format!("line {}: unknown tag `{other}`", n + 1))),
            }
        }
        Ok(art)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::engine::OfferEngine;
    use nod_cmfs::Guarantee;
    use nod_mmdoc::prelude::*;

    /// `art` as JSON lines.
    fn to_jsonl(art: &ExplainArtifact) -> String {
        let mut out = Vec::new();
        art.write_jsonl(&mut out).expect("a Vec takes every write");
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    fn sample_artifact() -> ExplainArtifact {
        ExplainArtifact {
            meta: ExplainMeta {
                source: "test".to_string(),
                seed: 7,
                sessions: 3,
                top_k: 16,
                sample_every: 64,
                sample_seed: 0,
            },
            ledger: vec![
                LedgerRow {
                    session: 1,
                    admit_ms: 10,
                    depart_ms: 4_010,
                    streams: vec![StreamRow {
                        server: 0,
                        bps: 1_200_000,
                    }],
                },
                LedgerRow {
                    session: 2,
                    admit_ms: 20,
                    depart_ms: 20,
                    streams: Vec::new(),
                },
            ],
            sessions: vec![SessionExplain {
                session: 1,
                arrival_ms: 10,
                fate: "admitted".to_string(),
                duration_ms: 0,
                attempts: vec![AttemptExplain {
                    at_ms: 10,
                    decisions: DecisionLog {
                        feasible_variants: 4,
                        offers_enumerated: 8,
                        durations_ms: vec![(1, 60_000)],
                        scores: vec![],
                        refusals: vec![
                            RefusalRecord::new(
                                0,
                                RefusalKind::Server,
                                Some(0),
                                Shortfall::Disk {
                                    used_us: 900,
                                    requested_us: 200,
                                    capacity_us: 1_000,
                                },
                            ),
                            RefusalRecord::new(
                                1,
                                RefusalKind::Network,
                                Some(1),
                                Shortfall::Link {
                                    link: 4,
                                    requested_bps: 1_200_000,
                                    available_bps: 300_000,
                                },
                            ),
                        ],
                        chosen_rank: Some(2),
                        status: Some(NegotiationStatus::Succeeded),
                    },
                }],
                settlement: Some(Settlement {
                    admitted_at_ms: 10,
                    choice_delay_ms: 900,
                    confirmed: true,
                }),
                adaptations: vec![AdaptationRecord {
                    reason: "server_congestion".to_string(),
                    from_rank: 2,
                    attempts: vec![],
                    new_rank: Some(3),
                    make_before_break: true,
                }],
            }],
            stats: RetentionStats {
                finished: 3,
                kept_failed: 1,
                kept_head: 1,
                kept_slow: 1,
                dropped: 1,
                truncated_events: 0,
            },
        }
    }

    #[test]
    fn artifact_round_trips_through_jsonl() {
        let art = sample_artifact();
        let text = to_jsonl(&art);
        let back = ExplainArtifact::from_jsonl(&text).unwrap();
        assert_eq!(art, back);
        // Serialization is deterministic.
        assert_eq!(text, to_jsonl(&back));
    }

    #[test]
    fn a_session_line_with_the_dropped_pruned_key_still_parses() {
        // A session line as artifacts carried it while decision logs still
        // had a `pruned` list: the key is ignored, everything else loads.
        let line = r#"{"session":{"session":6,"arrival_ms":3108,"fate":"admitted","duration_ms":0,"attempts":[{"at_ms":3108,"decisions":{"feasible_variants":14,"offers_enumerated":96,"durations_ms":[[8,152000]],"pruned":[{"victim_variants":[3],"victim_cost":4000,"dominator_variants":[2],"dominator_cost":3000}],"scores":[{"rank":0,"streams":[[28,0]],"sns":"Acceptable","qos_importance":44.5,"oif":23.25,"cost_net":1104,"cost_ser":780,"cost_total":2134,"satisfies_request":true,"chosen":true}],"refusals":[],"chosen_rank":0,"status":"SUCCEEDED"}}],"settlement":null,"adaptations":[]}}"#;
        let art = ExplainArtifact::from_jsonl(line).expect("the old line parses");
        let [session] = art.sessions.as_slice() else {
            panic!("one session line, got {:?}", art.sessions);
        };
        assert_eq!((session.session, session.arrival_ms), (6, 3108));
        let d = &session.attempts[0].decisions;
        assert_eq!((d.feasible_variants, d.offers_enumerated), (14, 96));
        assert_eq!(d.durations_ms.as_slice(), [(8, 152_000)]);
        assert_eq!(d.scores.len(), 1);
        assert_eq!(d.scores[0].cost_total, Money::from_millis(2_134));
        assert_eq!(d.chosen_rank, Some(0));
        assert_eq!(d.status, Some(NegotiationStatus::Succeeded));
        // Written back, the line simply no longer has the key.
        let rewritten = to_jsonl(&art);
        assert!(!rewritten.contains("pruned"), "{rewritten}");
        assert_eq!(ExplainArtifact::from_jsonl(&rewritten).unwrap(), art);
    }

    #[test]
    fn shortfall_variants_round_trip() {
        let cases = [
            Shortfall::None,
            Shortfall::DecodeBudget,
            Shortfall::PathQos,
            Shortfall::AdmissionPaused,
            Shortfall::Startup {
                estimated_ms: 900,
                limit_ms: 500,
            },
            Shortfall::Disk {
                used_us: 1,
                requested_us: 2,
                capacity_us: 3,
            },
            Shortfall::Interface {
                used_bps: 4,
                requested_bps: 5,
                capacity_bps: 6,
            },
            Shortfall::StreamLimit { limit: 40 },
            Shortfall::Link {
                link: 2,
                requested_bps: 7,
                available_bps: 8,
            },
        ];
        assert!(std::mem::size_of::<RefusalRecord>() <= 40);
        for (rank, s) in cases.into_iter().enumerate() {
            let back = Shortfall::from_json(&s.to_json()).unwrap();
            assert_eq!(s, back);
            assert!(!s.to_string().is_empty());
            // A refusal record gives back what it was handed.
            let server = (rank % 2 == 0).then_some(rank as u64);
            let record = RefusalRecord::new(rank as u64, RefusalKind::Server, server, s);
            assert_eq!(
                (
                    record.rank(),
                    record.kind(),
                    record.server(),
                    record.shortfall()
                ),
                (rank as u64, RefusalKind::Server, server, s)
            );
            assert_eq!(RefusalRecord::from_json(&record.to_json()).unwrap(), record);
        }
    }

    #[test]
    fn transient_follows_load_dependence() {
        // Load-dependent refusals can clear as other sessions release;
        // the client's decode budget and the route's startup cannot.
        let cases = [
            (RefusalKind::Server, true),
            (RefusalKind::Network, true),
            (RefusalKind::PathQos, true),
            (RefusalKind::DecodeBudget, false),
            (RefusalKind::Startup, false),
        ];
        for (kind, transient) in cases {
            assert_eq!(kind.transient(), transient, "{kind}");
        }
    }

    #[test]
    fn a_record_renders_its_kind_server_and_shortfall() {
        let disk = Shortfall::Disk {
            used_us: 980,
            requested_us: 40,
            capacity_us: 1000,
        };
        let link = Shortfall::Link {
            link: 3,
            requested_bps: 7,
            available_bps: 2,
        };
        let startup = Shortfall::Startup {
            estimated_ms: 900,
            limit_ms: 500,
        };
        let cases = [
            (
                RefusalRecord::new(0, RefusalKind::Server, Some(2), disk),
                "server refusal at srv2: disk round 980+40 µs > 1000 µs",
            ),
            (
                RefusalRecord::new(1, RefusalKind::Network, Some(4), link),
                "network refusal at srv4: link 3: requested 7 bps, 2 bps available",
            ),
            (
                RefusalRecord::new(2, RefusalKind::PathQos, Some(0), Shortfall::PathQos),
                "path_qos refusal at srv0: path QoS out of bounds or unroutable",
            ),
            (
                RefusalRecord::new(3, RefusalKind::Startup, None, startup),
                "startup refusal: startup 900 ms > 500 ms bound",
            ),
            (
                RefusalRecord::new(4, RefusalKind::DecodeBudget, None, Shortfall::DecodeBudget),
                "decode_budget refusal: client decode budget exceeded",
            ),
        ];
        for (record, text) in cases {
            assert_eq!(record.to_string(), text);
            // The rank is the offer's, not part of the reason.
            assert_eq!(record.at_rank(9).to_string(), text);
            assert_eq!(record.at_rank(9).rank(), 9);
        }
    }

    #[test]
    fn mark_chosen_appends_rows_past_the_cut() {
        // One component, twelve variants: twelve single-stream offers.
        let variants: Vec<Variant> = (1..=12)
            .map(|id| Variant {
                id: VariantId(id),
                monomedia: MonomediaId(1),
                format: Format::Mpeg1,
                qos: MediaQos::Video(VideoQos {
                    color: ColorDepth::Color,
                    resolution: Resolution::TV,
                    frame_rate: FrameRate::new(30 - id as u32),
                }),
                blocks: BlockStats::new(10_000, 5_000),
                blocks_per_second: 30 - id as u32,
                file_bytes: 1_000_000,
                server: ServerId(id % 2),
            })
            .collect();
        let model = CostModel::era_default();
        let profile = crate::profile::tv_news_profile();
        let strategy = crate::ClassificationStrategy::SnsThenOif;
        let client = nod_client::ClientMachine::era_workstation(nod_mmdoc::ClientId(0));
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
        let engine = builder.finish(1_000).expect("engine builds");
        let mut ranked = RankedOffers::new(engine);
        let mut log = DecisionLog::default();
        log.record_scores(&mut ranked);
        assert_eq!(log.scores.len(), EXPLAIN_TOP_K);
        for (rank, row) in log.scores.iter().enumerate() {
            let offer = ranked.materialize(rank);
            let v = &offer.offer.variants[0];
            assert_eq!(row.rank, rank as u64);
            assert_eq!(row.streams.as_slice(), [(v.id.0, v.server.0)]);
            assert_eq!(row.oif.to_bits(), offer.oif.to_bits());
            assert_eq!(
                (row.cost_net, row.cost_ser),
                model.monomedia_cost(v, 60_000, Guarantee::Guaranteed)
            );
            assert_eq!(
                model.copyright + row.cost_net + row.cost_ser,
                row.cost_total
            );
        }
        // Chosen within the recorded rows: marked in place.
        log.mark_chosen(&mut ranked, 0);
        assert_eq!(log.scores.len(), EXPLAIN_TOP_K);
        assert!(log.scores[0].chosen);
        // Chosen past the cut: appended.
        log.mark_chosen(&mut ranked, 11);
        assert_eq!(log.scores.len(), EXPLAIN_TOP_K + 1);
        assert_eq!(log.scores[EXPLAIN_TOP_K].rank, 11);
        assert!(log.scores[EXPLAIN_TOP_K].chosen);
        assert_eq!(log.chosen_rank, Some(11));
    }
}
