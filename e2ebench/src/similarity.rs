//! The paper's similarity pipeline, in-process: fold the workload's
//! document stream into a synopsis, register its subscriptions in a
//! `SimilarityEngine`, find the candidate pairs at or above the threshold,
//! and group the subscriptions into communities.

use std::time::Instant;

use tps_core::{LshConfig, PatternId, SimilarityEngine};
use tps_pattern::TreePattern;
use tps_routing::{CommunityClustering, CommunityConfig};
use tps_synopsis::{IngestTarget, Synopsis, SynopsisConfig};

use crate::inputs::mix;

/// Similarity threshold of the candidate search.
pub const THRESHOLD: f64 = 0.5;
/// Returned pairs re-checked against `SimilarityEngine::similarity`.
const SAMPLED_PAIRS: usize = 32;

/// A similarity job's outputs, kept for [`check`].
pub struct Outcome {
    /// The engine, with the patterns registered.
    engine: SimilarityEngine,
    /// Registered pattern ids, in pattern order.
    ids: Vec<PatternId>,
    /// Pairs at or above the threshold.
    pairs: Vec<(usize, usize, f64)>,
    /// The communities.
    communities: CommunityClustering,
}

/// A synopsis of the document stream, in the brokers' configuration.
pub fn ingest(documents: &[String]) -> Synopsis {
    let mut synopsis = Synopsis::new(SynopsisConfig::hashes(256));
    for document in documents {
        let doc = synopsis.next_doc_id();
        // invariant: generated documents are well formed.
        synopsis
            .ingest_bytes_as(document.as_bytes(), doc)
            .expect("generated documents scan");
    }
    synopsis
}

/// Run the whole job and return its outputs with its wall time in
/// seconds.
pub fn run(documents: &[String], patterns: &[TreePattern]) -> (Outcome, f64) {
    let start = Instant::now();
    let mut engine = SimilarityEngine::from_synopsis(ingest(documents));
    let ids = engine.register_all(patterns.iter());
    let pairs = engine.similarity_candidates(&ids, THRESHOLD);
    let communities = CommunityClustering::cluster_indexed(
        &engine,
        &ids,
        CommunityConfig::default(),
        LshConfig::default(),
    );
    let seconds = start.elapsed().as_secs_f64();
    (
        Outcome {
            engine,
            ids,
            pairs,
            communities,
        },
        seconds,
    )
}

/// Check a seeded sample of the returned pairs against
/// `SimilarityEngine::similarity`, and that the communities partition the
/// active patterns.
pub fn check(outcome: &Outcome, seed: u64) -> Result<(), String> {
    let engine = &outcome.engine;
    let metric = engine.default_metric();
    let similarity = |i: usize, j: usize| {
        let (p, q) = (outcome.ids[i], outcome.ids[j]);
        if metric.is_symmetric() {
            engine.similarity(p, q, metric)
        } else {
            (engine.similarity(p, q, metric) + engine.similarity(q, p, metric)) / 2.0
        }
    };
    for k in 0..SAMPLED_PAIRS.min(outcome.pairs.len()) {
        let pick = (mix(seed, 100 + k as u64) % outcome.pairs.len() as u64) as usize;
        let (i, j, s) = outcome.pairs[pick];
        let expected = similarity(i, j);
        if s != expected || s < THRESHOLD {
            return Err(format!(
                "pair ({i}, {j}): returned {s}, engine says {expected}"
            ));
        }
    }
    let active = engine.active_ids();
    let mut seen = vec![0u32; outcome.ids.len()];
    for community in &outcome.communities.communities {
        for &member in &community.members {
            match seen.get_mut(member) {
                Some(count) => *count += 1,
                None => return Err(format!("community member {member} out of range")),
            }
        }
    }
    for (position, &count) in seen.iter().enumerate() {
        let expected = u32::from(active.contains(&outcome.ids[position]));
        if count != expected {
            return Err(format!(
                "pattern {position} is in {count} communities, expected {expected}"
            ));
        }
    }
    Ok(())
}
