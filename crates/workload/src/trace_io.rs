//! Plain-text persistence of workload traces.
//!
//! Experiments become portable when the exact request stream can be saved
//! and replayed. [`GeneratedRequest`]s round-trip through a simple CSV
//! dialect (header + one line per request) that needs no extra
//! dependencies and diffs cleanly under version control. A line keeps a
//! request's id, times and resolution (as its latent token count); read
//! back, the request is untagged and flat.

use std::collections::BTreeSet;

use tetriserve_costmodel::{Resolution, StageProfile};
use tetriserve_simulator::trace::TenantId;

use crate::gen::GeneratedRequest;

/// The CSV header line.
pub const HEADER: &str = "id,arrival_s,tokens,deadline_s";

/// Errors from parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTraceError {
    /// The header line was missing or different.
    BadHeader {
        /// What the first line actually contained.
        found: String,
    },
    /// A data line had the wrong number of fields, an unparsable value or
    /// a time that is negative or not finite.
    BadLine {
        /// 1-based line number in the input.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A token count that does not correspond to a square multiple-of-16
    /// resolution.
    BadTokens {
        /// 1-based line number in the input.
        line: usize,
        /// The offending token count.
        tokens: u64,
    },
    /// A request id that an earlier line already used.
    DuplicateId {
        /// 1-based line number of the repeat.
        line: usize,
        /// The repeated id.
        id: u64,
    },
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTraceError::BadHeader { found } => {
                write!(f, "expected header {HEADER:?}, found {found:?}")
            }
            ParseTraceError::BadLine { line, content } => {
                write!(f, "malformed trace line {line}: {content:?}")
            }
            ParseTraceError::BadTokens { line, tokens } => {
                write!(
                    f,
                    "line {line}: token count {tokens} is not a square resolution"
                )
            }
            ParseTraceError::DuplicateId { line, id } => {
                write!(f, "line {line}: request id {id} appears twice")
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

/// Serialises requests to the CSV dialect.
pub fn to_csv(requests: &[GeneratedRequest]) -> String {
    let mut out = String::with_capacity(requests.len() * 40 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for r in requests {
        out.push_str(&format!(
            "{},{:.6},{},{:.6}\n",
            r.id,
            r.arrival_s,
            r.resolution.tokens(),
            r.deadline_s
        ));
    }
    out
}

/// Parses the CSV dialect back into untagged, flat requests.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] describing the first malformed line. A
/// line is malformed if it does not parse, if a time is negative or not
/// finite, if its token count is not a square resolution or if its id
/// repeats an earlier line's.
pub fn from_csv(text: &str) -> Result<Vec<GeneratedRequest>, ParseTraceError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        other => {
            return Err(ParseTraceError::BadHeader {
                found: other.map(|(_, h)| h.to_owned()).unwrap_or_default(),
            })
        }
    }
    let mut out = Vec::new();
    let mut ids = BTreeSet::new();
    for (i, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let bad = || ParseTraceError::BadLine {
            line: i + 1,
            content: line.to_owned(),
        };
        let [id, arrival_s, tokens, deadline_s] = fields[..] else {
            return Err(bad());
        };
        let id: u64 = id.parse().map_err(|_| bad())?;
        let arrival_s: f64 = arrival_s.parse().map_err(|_| bad())?;
        let tokens: u64 = tokens.parse().map_err(|_| bad())?;
        let deadline_s: f64 = deadline_s.parse().map_err(|_| bad())?;
        let valid_time = |t: f64| t.is_finite() && t >= 0.0;
        if !valid_time(arrival_s) || !valid_time(deadline_s) {
            return Err(bad());
        }
        if !ids.insert(id) {
            return Err(ParseTraceError::DuplicateId { line: i + 1, id });
        }
        let resolution = resolution_for_tokens(tokens).ok_or(ParseTraceError::BadTokens {
            line: i + 1,
            tokens,
        })?;
        out.push(GeneratedRequest {
            id,
            tenant: TenantId::UNTAGGED,
            arrival_s,
            resolution,
            deadline_s,
            stages: StageProfile::FLAT,
        });
    }
    Ok(out)
}

/// Maps a latent token count back to its square resolution, if any.
fn resolution_for_tokens(tokens: u64) -> Option<Resolution> {
    let side_tokens = (tokens as f64).sqrt() as u64;
    if side_tokens * side_tokens != tokens || side_tokens == 0 {
        return None;
    }
    let side = side_tokens * 16;
    u32::try_from(side).ok().map(|s| Resolution::new(s, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::PoissonProcess;
    use crate::gen::TraceGen;
    use crate::mix::ResolutionMix;
    use crate::slo::SloPolicy;

    #[test]
    fn csv_round_trips() {
        let reqs = TraceGen::new(
            PoissonProcess::new(12.0),
            ResolutionMix::uniform(),
            SloPolicy::paper_targets(),
            3,
        )
        .generate(40);
        let back = from_csv(&to_csv(&reqs)).unwrap();
        assert_eq!(back.len(), reqs.len());
        for (a, b) in reqs.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.resolution, b.resolution);
            assert_eq!(b.tenant, TenantId::UNTAGGED);
            assert_eq!(b.stages, StageProfile::FLAT);
            assert!((a.arrival_s - b.arrival_s).abs() < 1e-6);
            assert!((a.deadline_s - b.deadline_s).abs() < 1e-6);
        }
    }

    #[test]
    fn header_is_enforced() {
        let err = from_csv("nope\n1,2,3,4\n").unwrap_err();
        assert!(matches!(err, ParseTraceError::BadHeader { .. }));
        assert!(from_csv("").is_err());
    }

    #[test]
    fn malformed_lines_are_located() {
        let text = format!("{HEADER}\n0,0.0,256,1.5\nbroken line\n");
        match from_csv(&text).unwrap_err() {
            ParseTraceError::BadLine { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wrong_field_counts_are_rejected() {
        for line in ["1,0.1,256", "1,0.1,256,1.6,0"] {
            let text = format!("{HEADER}\n0,0.0,256,1.5\n{line}\n");
            match from_csv(&text).unwrap_err() {
                ParseTraceError::BadLine { line, .. } => assert_eq!(line, 3),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bad_token_counts_are_rejected() {
        let text = format!("{HEADER}\n0,0.0,300,1.5\n");
        assert!(matches!(
            from_csv(&text).unwrap_err(),
            ParseTraceError::BadTokens { tokens: 300, .. }
        ));
    }

    /// Asserts that a trace whose second request has the given times is
    /// rejected at that request's line.
    fn assert_bad_times(arrival: &str, deadline: &str) {
        let text = format!("{HEADER}\n0,0.0,256,1.5\n1,{arrival},256,{deadline}\n");
        match from_csv(&text).unwrap_err() {
            ParseTraceError::BadLine { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nan_times_are_rejected() {
        assert_bad_times("NaN", "1.5");
        assert_bad_times("0.0", "NaN");
    }

    #[test]
    fn infinite_times_are_rejected() {
        assert_bad_times("inf", "1.5");
        assert_bad_times("0.0", "inf");
    }

    #[test]
    fn negative_times_are_rejected() {
        assert_bad_times("-1.0", "1.5");
        assert_bad_times("0.0", "-0.5");
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let text = format!("{HEADER}\n0,0.0,256,1.5\n1,0.1,256,1.6\n0,0.2,256,1.7\n");
        assert_eq!(
            from_csv(&text).unwrap_err(),
            ParseTraceError::DuplicateId { line: 4, id: 0 }
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("{HEADER}\n\n0,0.5,1024,2.5\n\n");
        let reqs = from_csv(&text).unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].resolution, Resolution::R512);
    }

    #[test]
    fn tokens_map_back_to_resolutions() {
        assert_eq!(resolution_for_tokens(256), Some(Resolution::R256));
        assert_eq!(resolution_for_tokens(16384), Some(Resolution::R2048));
        assert_eq!(resolution_for_tokens(300), None);
        assert_eq!(resolution_for_tokens(0), None);
    }
}
