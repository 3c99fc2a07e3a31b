//! The answer key: what every `/recommend` response must contain, bit for
//! bit, computed on the benchmark's own copy of the recommender.

use crate::inputs::Request;
use std::collections::HashMap;
use viderec_core::{Recommender, Scored, Strategy};
use viderec_serve::client::{json_str, json_u64};
use viderec_video::VideoId;

/// A ranked list as `(video id, score.to_bits())`.
pub type Ranked = Vec<(u64, u64)>;

fn ranked(scored: &[Scored]) -> Ranked {
    scored
        .iter()
        .map(|s| (s.video.0, s.score.to_bits()))
        .collect()
}

/// Slot of a strategy in a map key (`Strategy` is not `Hash`).
fn slot(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::Cr => 0,
        Strategy::Sr => 1,
        Strategy::Csf => 2,
        Strategy::CsfSar => 3,
        Strategy::CsfSarH => 4,
    }
}

/// The ground truth for one click: every corpus video scored, no index, no
/// pruning.
pub fn reference(rec: &Recommender, video: u64, strategy: Strategy, k: usize) -> Option<Ranked> {
    let id = VideoId(video);
    let query = rec.query_for(id)?;
    Some(ranked(&rec.recommend_naive_excluding(
        strategy,
        &query,
        k,
        &[id],
    )))
}

/// What the served path computes for one click, called directly: the replica
/// side of the live / restarted / replica comparison.
pub fn direct(rec: &Recommender, video: u64, strategy: Strategy, k: usize) -> Option<Ranked> {
    let id = VideoId(video);
    let query = rec.query_for(id)?;
    Some(ranked(&rec.recommend_excluding(strategy, &query, k, &[id])))
}

/// The `results` array of a `/recommend` body; `None` when malformed.
pub fn parse_results(body: &str) -> Option<Ranked> {
    let (_, results) = body.split_once("\"results\":[")?;
    results
        .split("{\"video\":")
        .skip(1)
        .map(|item| {
            let id: u64 = item.split(',').next()?.parse().ok()?;
            let bits = u64::from_str_radix(&json_str(item, "score_bits")?, 16).ok()?;
            Some((id, bits))
        })
        .collect()
}

/// `k` results, scores non-increasing, query video excluded: all that can be
/// asked of a response whose snapshot the benchmark cannot know (the reader
/// beside the writer).
pub fn well_formed(body: &str, k: usize) -> bool {
    let Some(results) = parse_results(body) else {
        return false;
    };
    let query = json_u64(body, "query");
    results.len() == k
        && results
            .windows(2)
            .all(|w| f64::from_bits(w[0].1) >= f64::from_bits(w[1].1))
        && results.iter().all(|r| Some(r.0) != query)
}

/// The answer for every click a workload can send — each rotation video with
/// each strategy of the mix — precomputed outside every measured phase.
///
/// The key is the naive full scan: every corpus video scored, no index, no
/// pruning. The clicks in [`KNOWN_SCAN_DEFECTS`] are the exception: on them
/// the seed commit's pruned scan drops a candidate of the naive top-k (a
/// product defect this benchmark found and may not fix), so they are held to
/// the direct library call on the same snapshot instead. A click outside
/// that list on which the two differ has no such excuse: the server will
/// answer it with the pruned scan's result, the key holds the naive one, and
/// every such answer counts as a failed operation.
pub struct Oracle {
    answers: HashMap<(u64, u8), Ranked>,
    /// Listed clicks on which the pruned scan still differs from the naive.
    pub known_defects: usize,
    /// Unlisted clicks on which it differs: each will fail when served.
    pub new_defects: Vec<(u64, Strategy)>,
}

impl Oracle {
    pub fn precompute(
        rec: &Recommender,
        rotation: &[u64],
        mix: &[(Strategy, u32)],
        k: usize,
        excused: &[(u64, Strategy)],
    ) -> Self {
        let mut oracle = Self {
            answers: HashMap::new(),
            known_defects: 0,
            new_defects: Vec::new(),
        };
        // One thread: the counting allocator's global counters make two
        // allocation-heavy scans in parallel slower than one after the other.
        for &video in rotation {
            for &(strategy, _) in mix {
                let naive = reference(rec, video, strategy, k).expect("rotation video");
                let served = direct(rec, video, strategy, k).expect("rotation video");
                let differs = served != naive;
                let listed = excused.contains(&(video, strategy));
                oracle.known_defects += usize::from(differs && listed);
                if differs && !listed {
                    oracle.new_defects.push((video, strategy));
                }
                let answer = if listed { served } else { naive };
                oracle.answers.insert((video, slot(strategy)), answer);
            }
        }
        oracle
    }

    /// Distinct clicks in the key.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// Whether `body` carries exactly the key's ids and score bits.
    pub fn matches(&self, request: &Request, body: &str) -> bool {
        match (
            self.answers.get(&(request.video, slot(request.strategy))),
            parse_results(body),
        ) {
            (Some(expected), Some(got)) => *expected == got,
            _ => false,
        }
    }

    /// `answer key: 128 clicks against the naive scan, …`, for the report.
    pub fn describe(&self, excused: usize) -> String {
        format!(
            "answer key: {} clicks against the naive scan, {excused} of them excused to the \
             direct call ({} still differ){}",
            self.len(),
            self.known_defects,
            if self.new_defects.is_empty() {
                String::new()
            } else {
                format!(
                    "; PRUNED SCAN != NAIVE SCAN on unlisted clicks {:?}: every such answer fails",
                    self.new_defects
                )
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str =
        "{\"query\":7,\"strategy\":\"SR\",\"k\":2,\"epoch\":1,\"trace\":\"00000000000000ab\",\
        \"results\":[{\"video\":3,\"score\":0.5,\"score_bits\":\"3fe0000000000000\"},\
        {\"video\":9,\"score\":0.25,\"score_bits\":\"3fd0000000000000\"}]}";

    #[test]
    fn parses_ids_and_score_bits() {
        assert_eq!(
            parse_results(BODY),
            Some(vec![(3, 0.5f64.to_bits()), (9, 0.25f64.to_bits())])
        );
        assert_eq!(parse_results("{\"results\":[]}"), Some(Vec::new()));
        assert_eq!(parse_results("{\"error\":\"unknown video 7\"}"), None);
        assert_eq!(parse_results("{\"results\":[{\"video\":x}]}"), None);
    }

    #[test]
    fn well_formed_checks_count_order_and_exclusion() {
        assert!(well_formed(BODY, 2));
        assert!(!well_formed(BODY, 3));
        let unsorted = BODY.replace("3fe0000000000000", "3fc0000000000000");
        assert!(!well_formed(&unsorted, 2));
        let echo = BODY.replace("\"video\":9", "\"video\":7");
        assert!(!well_formed(&echo, 2));
    }
}
