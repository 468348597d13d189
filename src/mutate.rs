//! Offline dataset mutation: replay a traffic script against a warm
//! engine, prove the cache repair across mutations sound, and write the
//! mutated snapshot.
//!
//! This is the batch-side twin of the serve `update_edges` method. The
//! CLI front end (`kor mutate`) reads a `.korbin` snapshot, obtains a
//! mutation script — either generated from a seeded
//! [`kor_data::traffic::TrafficConfig`] or loaded from a JSON file —
//! and replays it phase by phase with [`run_mutate`]:
//!
//! 1. a **warm** engine answers the snapshot's canned queries (warming
//!    the τ/σ context cache, the Opt-2 bound trees, and the greedy
//!    forward trees), then applies each phase with
//!    `KorEngine::apply_edge_mutations`, which repairs every cached tree
//!    instead of evicting it;
//! 2. with `verify` on, a **cold** engine is rebuilt from scratch on
//!    the mutated graph after every phase and both replay the canned
//!    queries; the two answer digests (same FNV-1a fold as
//!    [`crate::batch::BatchReport::result_digest`]) must match bit for
//!    bit, or the run fails — a live check of the byte-identity
//!    contract in `docs/ARCHITECTURE.md`.
//!
//! Scripts serialize to JSON in the wire format of `update_edges`
//! (`{"phases": [[{"from": .., "to": .., "op": ..}]]}`), so a script
//! emitted by `kor mutate --emit-script` replays both offline and over
//! a socket. [`mutation_to_json`] and [`mutation_from_json`] own that
//! shape for both front ends.

use std::sync::Arc;

use kor_core::{Algo, KorEngine, KorQuery, MutationReport, SearchRequest};
use kor_data::snapshot::Snapshot;
use kor_graph::{EdgeMutation, Graph, MutationKind, NodeId};

use crate::batch::{digest_outcomes, QueryOutcome};
use crate::json::{check_keys, req_f64, req_str, req_u32, FieldError, JsonValue};

/// Knobs for one [`run_mutate`] replay.
#[derive(Debug, Clone)]
pub struct MutateConfig {
    /// Algorithm used for the warm-up and verification replays.
    pub algo: Algo,
    /// Rebuild a cold engine after every phase and require its canned
    /// replay digest to equal the warm engine's.
    pub verify: bool,
}

/// What one phase of the script did to the warm engine.
#[derive(Debug, Clone, Copy)]
pub struct PhaseOutcome {
    /// Mutations applied in this phase.
    pub applied: usize,
    /// Carry-over counters from the engine (epoch, retained/evicted per
    /// cache family, trees repaired and rebuilt).
    pub report: MutationReport,
    /// Canned-replay digest on the warm engine (present when verifying).
    pub warm_digest: Option<u64>,
    /// Canned-replay digest on a cold rebuild (present when verifying).
    pub cold_digest: Option<u64>,
}

/// Everything a mutation replay produced.
#[derive(Debug, Clone)]
pub struct MutateReport {
    /// One entry per script phase, in order.
    pub phases: Vec<PhaseOutcome>,
    /// Whether every phase was digest-verified against a cold engine.
    pub verified: bool,
}

impl MutateReport {
    /// Cache entries kept warm across the whole script.
    pub fn total_retained(&self) -> usize {
        self.phases.iter().map(|p| p.report.total_retained()).sum()
    }

    /// Cache entries evicted across the whole script.
    pub fn total_evicted(&self) -> usize {
        self.phases.iter().map(|p| p.report.total_evicted()).sum()
    }

    /// Trees the repair changed across the whole script.
    pub fn total_repaired(&self) -> usize {
        self.phases.iter().map(|p| p.report.trees_repaired).sum()
    }

    /// Render the summary as JSON (same conventions as the batch
    /// summary; digests print as zero-padded hex).
    pub fn to_json(&self) -> String {
        let phases: Vec<JsonValue> = self
            .phases
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("applied", JsonValue::from(p.applied)),
                    ("epoch", p.report.epoch.into()),
                ];
                fields.extend(report_fields(&p.report));
                if let Some(d) = p.warm_digest {
                    fields.push(("warm_digest", format!("{d:016x}").into()));
                }
                if let Some(d) = p.cold_digest {
                    fields.push(("cold_digest", format!("{d:016x}").into()));
                }
                JsonValue::obj(fields)
            })
            .collect();
        JsonValue::obj([
            ("phases", JsonValue::Arr(phases)),
            ("verified", self.verified.into()),
            ("retained", self.total_retained().into()),
            ("evicted", self.total_evicted().into()),
            ("repaired", self.total_repaired().into()),
        ])
        .render()
    }
}

/// Replays `script` against a warm engine built from `world`, then
/// installs the mutated graph back into `world`.
///
/// With `config.verify` set, the snapshot must carry canned queries;
/// after every phase both the warm engine and a cold rebuild replay
/// them and any digest mismatch aborts with an error describing the
/// phase — that failure mode existing is the point of the flag.
pub fn run_mutate(
    world: &mut Snapshot,
    script: &[Vec<EdgeMutation>],
    config: &MutateConfig,
) -> Result<MutateReport, String> {
    if config.verify && world.query_count() == 0 {
        return Err(
            "--verify needs canned queries to replay (generate with `kor gen` \
             or can a workload with `kor ingest --per-set`)"
                .into(),
        );
    }

    let mut engine = KorEngine::new(Arc::new(world.graph.clone()));
    // Warm the caches before the first phase so carry-over has
    // something to carry; without queries there is nothing to warm (or
    // verify) and the replay is just a fold of `apply_mutations`.
    if world.query_count() > 0 {
        let _ = replay_digest(&engine, world, &config.algo)?;
    }

    let mut phases = Vec::with_capacity(script.len());
    for (i, batch) in script.iter().enumerate() {
        let (next, report) = engine
            .apply_edge_mutations(batch)
            .map_err(|e| format!("phase {i}: {e}"))?;
        engine = next;
        let (warm_digest, cold_digest) = if config.verify {
            let warm = replay_digest(&engine, world, &config.algo)?;
            let cold_engine = KorEngine::new(Arc::new(engine.graph().clone()));
            let cold = replay_digest(&cold_engine, world, &config.algo)?;
            if warm != cold {
                return Err(format!(
                    "phase {i}: warm replay digest {warm:016x} != cold {cold:016x} — \
                     the cache repair left a stale tree"
                ));
            }
            (Some(warm), Some(cold))
        } else {
            (None, None)
        };
        phases.push(PhaseOutcome {
            applied: batch.len(),
            report,
            warm_digest,
            cold_digest,
        });
    }

    world.graph = engine.graph().clone();
    Ok(MutateReport {
        phases,
        verified: config.verify,
    })
}

/// Answers every canned query of `world` sequentially on `engine` and
/// folds the outcomes into the batch answer digest. Sequential on
/// purpose: the digest is order-defined and mutation replays are about
/// correctness, not throughput.
pub(crate) fn replay_digest<G: AsRef<Graph>>(
    engine: &KorEngine<G>,
    world: &Snapshot,
    algo: &Algo,
) -> Result<u64, String> {
    let graph = engine.graph();
    let request = SearchRequest::new(algo.clone());
    let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(world.query_count());
    for (set_index, set) in world.query_sets.iter().enumerate() {
        for q in &set.queries {
            let base = QueryOutcome::pending(outcomes.len(), set_index, set.keyword_count);
            let answer = KorQuery::new(graph, q.source, q.target, q.keywords.clone(), q.budget)
                .and_then(|q| engine.search(&q, &request));
            outcomes.push(base.answered(answer));
        }
    }
    Ok(digest_outcomes(&outcomes))
}

/// The eight carry-over counters of a [`MutationReport`] as JSON
/// fields, in the order both `kor mutate` and `update_edges` print them.
pub(crate) fn report_fields(report: &MutationReport) -> [(&'static str, JsonValue); 8] {
    [
        ("contexts_retained", report.contexts_retained.into()),
        ("contexts_evicted", report.contexts_evicted.into()),
        ("opt2_retained", report.opt2_retained.into()),
        ("opt2_evicted", report.opt2_evicted.into()),
        ("pair_trees_retained", report.pair_trees_retained.into()),
        ("pair_trees_evicted", report.pair_trees_evicted.into()),
        ("trees_repaired", report.trees_repaired.into()),
        ("trees_rebuilt", report.trees_rebuilt.into()),
    ]
}

/// Renders one mutation in the `update_edges` wire shape:
/// `{"from", "to", "op"}`, plus `"objective"` and `"budget"` for
/// `reopen` and `scale`.
pub fn mutation_to_json(m: &EdgeMutation) -> JsonValue {
    let mut fields = vec![
        ("from", JsonValue::from(u64::from(m.from.0))),
        ("to", u64::from(m.to.0).into()),
        ("op", m.kind.op_name().into()),
    ];
    match m.kind {
        MutationKind::Close => {}
        MutationKind::Reopen { objective, budget } | MutationKind::Scale { objective, budget } => {
            fields.push(("objective", objective.into()));
            fields.push(("budget", budget.into()));
        }
    }
    JsonValue::obj(fields)
}

/// Parses one mutation in the `update_edges` wire shape — the only
/// parser of that shape, used by the wire and by scripts alike. Strict:
/// unknown keys, wrong types, missing weights and weights on `close`
/// are errors, answered `bad_request` on the wire.
pub fn mutation_from_json(item: &JsonValue) -> Result<EdgeMutation, FieldError> {
    if !matches!(item, JsonValue::Obj(_)) {
        return Err(FieldError("each mutation must be an object".into()));
    }
    check_keys(item, &["from", "to", "op", "objective", "budget"])?;
    let from = NodeId(req_u32(item, "from")?);
    let to = NodeId(req_u32(item, "to")?);
    match req_str(item, "op")? {
        "close" => {
            if let Some(key) = ["objective", "budget"]
                .into_iter()
                .find(|key| item.get(key).is_some())
            {
                return Err(FieldError(format!(
                    "\"{key}\" does not apply to op \"close\""
                )));
            }
            Ok(EdgeMutation::close(from, to))
        }
        "reopen" => Ok(EdgeMutation::reopen(
            from,
            to,
            req_f64(item, "objective")?,
            req_f64(item, "budget")?,
        )),
        "scale" => Ok(EdgeMutation::scale(
            from,
            to,
            req_f64(item, "objective")?,
            req_f64(item, "budget")?,
        )),
        other => Err(FieldError(format!(
            "unknown op {other:?} (expected close, reopen, or scale)"
        ))),
    }
}

/// Renders a script as JSON: `{"phases": [[mutation, ...], ...]}`, each
/// mutation in the `update_edges` wire shape ([`mutation_to_json`]).
pub fn script_to_json(script: &[Vec<EdgeMutation>]) -> String {
    let phases: Vec<JsonValue> = script
        .iter()
        .map(|batch| JsonValue::Arr(batch.iter().map(mutation_to_json).collect()))
        .collect();
    JsonValue::obj([("phases", JsonValue::Arr(phases))]).render()
}

/// Parses a script produced by [`script_to_json`] (or written by hand
/// in the same shape). Each mutation goes through
/// [`mutation_from_json`], so a script is exactly as strict as the
/// wire.
pub fn script_from_json(text: &str) -> Result<Vec<Vec<EdgeMutation>>, String> {
    let root = JsonValue::parse(text).map_err(|e| format!("script: {e}"))?;
    let phases = root
        .get("phases")
        .and_then(JsonValue::as_arr)
        .ok_or("script: missing \"phases\" array")?;
    phases
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            let batch = phase
                .as_arr()
                .ok_or_else(|| format!("script phase {i}: not an array"))?;
            batch
                .iter()
                .map(|m| mutation_from_json(m).map_err(|e| format!("script phase {i}: {e}")))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_data::{generate_traffic, generate_world, GenConfig, TrafficConfig};

    fn world() -> Snapshot {
        generate_world(&GenConfig::grid(6, 5, 3))
    }

    fn algo() -> Algo {
        Algo::BucketBound(kor_core::BucketBoundParams::default())
    }

    #[test]
    fn scripts_round_trip_through_json() {
        let w = world();
        let script = generate_traffic(&w.graph, &TrafficConfig::base(7));
        let json = script_to_json(&script);
        let back = script_from_json(&json).unwrap();
        assert_eq!(script, back);
        // And the rendering is stable (a replayable artifact).
        assert_eq!(json, script_to_json(&back));
    }

    #[test]
    fn malformed_scripts_are_rejected() {
        for (text, needle) in [
            ("{}", "phases"),
            (r#"{"phases": 3}"#, "phases"),
            (
                r#"{"phases": [[{"from": 0, "to": 1, "op": "demolish"}]]}"#,
                "demolish",
            ),
            (
                r#"{"phases": [[{"from": 0, "to": 1, "op": "scale"}]]}"#,
                "objective",
            ),
            (
                r#"{"phases": [[{"from": 0, "to": 1, "op": "close", "budget": 2}]]}"#,
                "close",
            ),
            (
                r#"{"phases": [[{"from": -1, "to": 1, "op": "close"}]]}"#,
                "from",
            ),
        ] {
            let err = script_from_json(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn run_mutate_verifies_and_installs_the_mutated_graph() {
        let mut w = world();
        let script = generate_traffic(&w.graph, &TrafficConfig::base(11));
        let before_edges = w.graph.edge_count();
        let report = run_mutate(
            &mut w,
            &script,
            &MutateConfig {
                algo: algo(),
                verify: true,
            },
        )
        .unwrap();
        assert_eq!(report.phases.len(), script.len());
        assert!(report.verified);
        for (p, batch) in report.phases.iter().zip(&script) {
            assert_eq!(p.applied, batch.len());
            assert_eq!(p.warm_digest, p.cold_digest);
        }
        assert_eq!(
            report.phases.last().unwrap().report.epoch,
            script.len() as u64
        );
        // The base profile closes more edges than it reopens, so the
        // installed graph must differ from the input.
        assert_ne!(w.graph.edge_count(), before_edges);
        // Every warm entry is carried across every phase, and on this
        // strongly connected grid the batches change some trees, which
        // the repair brings up to date without a cold rebuild.
        assert_eq!(report.total_evicted(), 0);
        assert!(report.total_retained() > 0, "no cache entry was carried");
        assert!(report.total_repaired() > 0, "no tree was repaired");
        assert!(report.phases.iter().all(|p| p.report.trees_rebuilt == 0));
    }

    #[test]
    fn verify_without_queries_is_an_error() {
        let mut w = world();
        w.query_sets.clear();
        let err = run_mutate(
            &mut w,
            &[],
            &MutateConfig {
                algo: algo(),
                verify: true,
            },
        )
        .unwrap_err();
        assert!(err.contains("canned queries"), "{err}");
    }
}
