//! Wire protocol: JSON request/response shapes for the serving
//! endpoints.
//!
//! Requests are parsed into typed structs with every structural problem
//! reported as [`ServeError::BadRequest`] (which the server maps to
//! HTTP 400); range checks against the live model happen in the engine
//! and worker layers, which know the model's shape.

use cascade_tgraph::Event;
use cascade_util::Json;

use crate::error::ServeError;

/// A parsed `POST /predict` body: score `src → dsts` at `time`.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictRequest {
    /// Query source node.
    pub src: u32,
    /// Candidate destination nodes (non-empty).
    pub dsts: Vec<u32>,
    /// Query timestamp.
    pub time: f64,
}

/// A parsed `POST /ingest` body: temporal events with feature rows.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestRequest {
    /// Events in stream order.
    pub events: Vec<Event>,
    /// Row-major features, `feature_dim` floats per event.
    pub features: Vec<f32>,
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::BadRequest(msg.into())
}

fn field_u32(obj: &Json, key: &str) -> Result<u32, ServeError> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("missing or non-numeric field '{}'", key)))?;
    if v < 0.0 || v.fract() != 0.0 || v > u32::MAX as f64 {
        return Err(bad(format!("field '{}' is not a valid node id", key)));
    }
    Ok(v as u32)
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, ServeError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("missing or non-numeric field '{}'", key)))
}

/// Parses a `/predict` body.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on any structural problem (missing
/// fields, empty candidate list, non-finite time).
pub fn parse_predict(body: &str) -> Result<PredictRequest, ServeError> {
    let json = Json::parse(body).map_err(|e| bad(format!("invalid JSON: {}", e)))?;
    let src = field_u32(&json, "src")?;
    let time = field_f64(&json, "time")?;
    if !time.is_finite() {
        return Err(bad("field 'time' must be finite"));
    }
    let dsts_json = json
        .get("dsts")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing array field 'dsts'"))?;
    if dsts_json.is_empty() {
        return Err(bad("'dsts' must name at least one candidate"));
    }
    let mut dsts = Vec::with_capacity(dsts_json.len());
    for d in dsts_json {
        let v = d
            .as_f64()
            .ok_or_else(|| bad("'dsts' entries must be node ids"))?;
        if v < 0.0 || v.fract() != 0.0 || v > u32::MAX as f64 {
            return Err(bad("'dsts' entries must be valid node ids"));
        }
        dsts.push(v as u32);
    }
    Ok(PredictRequest { src, dsts, time })
}

/// Parses an `/ingest` body against the model's `feature_dim`.
///
/// Every event must carry a `features` array of exactly `feature_dim`
/// floats, each finite as an `f32` (omitted entirely when the model was
/// trained featureless).
///
/// # Errors
///
/// [`ServeError::BadRequest`] on any structural problem.
pub fn parse_ingest(body: &str, feature_dim: usize) -> Result<IngestRequest, ServeError> {
    let json = Json::parse(body).map_err(|e| bad(format!("invalid JSON: {}", e)))?;
    let events_json = json
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing array field 'events'"))?;
    if events_json.is_empty() {
        return Err(bad("'events' must hold at least one event"));
    }
    let mut events = Vec::with_capacity(events_json.len());
    // Every feature value takes at least two body bytes ("0,"), so the
    // reservation never exceeds what the client actually sent — however
    // many empty events it claims.
    let mut features = Vec::with_capacity((events_json.len() * feature_dim).min(body.len() / 2));
    for (i, e) in events_json.iter().enumerate() {
        let src = field_u32(e, "src").map_err(|err| bad(format!("event {}: {}", i, err)))?;
        let dst = field_u32(e, "dst").map_err(|err| bad(format!("event {}: {}", i, err)))?;
        let time = field_f64(e, "time").map_err(|err| bad(format!("event {}: {}", i, err)))?;
        if !time.is_finite() {
            return Err(bad(format!("event {}: time must be finite", i)));
        }
        match e.get("features").and_then(Json::as_arr) {
            Some(row) => {
                if row.len() != feature_dim {
                    return Err(bad(format!(
                        "event {}: {} feature values, model expects {}",
                        i,
                        row.len(),
                        feature_dim
                    )));
                }
                for v in row {
                    let x = v
                        .as_f64()
                        .ok_or_else(|| bad(format!("event {}: non-numeric feature", i)))?
                        as f32;
                    // One infinite feature would poison every memory it
                    // reaches, for good.
                    if !x.is_finite() {
                        return Err(bad(format!("event {}: feature overflows f32", i)));
                    }
                    features.push(x);
                }
            }
            None => {
                if feature_dim != 0 {
                    return Err(bad(format!(
                        "event {}: missing 'features' ({} values expected)",
                        i, feature_dim
                    )));
                }
            }
        }
        events.push(Event::new(src, dst, time));
    }
    Ok(IngestRequest { events, features })
}

/// Encodes a `/predict` response: per-candidate scores plus the
/// snapshot watermark they were computed against.
pub fn predict_response(scores: &[f32], snapshot_events: usize) -> Json {
    Json::Obj(vec![
        (
            "scores".to_string(),
            Json::Arr(scores.iter().map(|s| Json::from(*s as f64)).collect()),
        ),
        ("snapshot_events".to_string(), Json::from(snapshot_events)),
    ])
}

/// Encodes an `/ingest` response: what this request added and the total
/// durable watermark. A client seeing this response may assume the
/// events survive a server kill.
pub fn ingest_response(acked: usize, total_acked: usize) -> Json {
    Json::Obj(vec![
        ("acked".to_string(), Json::from(acked)),
        ("total_acked".to_string(), Json::from(total_acked)),
    ])
}

/// Encodes an error body.
pub fn error_response(msg: &str) -> Json {
    Json::Obj(vec![("error".to_string(), Json::from(msg))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_roundtrip() {
        let req = parse_predict(r#"{"src": 3, "dsts": [1, 2, 5], "time": 42.5}"#).unwrap();
        assert_eq!(
            req,
            PredictRequest {
                src: 3,
                dsts: vec![1, 2, 5],
                time: 42.5
            }
        );
    }

    #[test]
    fn predict_rejects_structural_problems() {
        for body in [
            "not json",
            r#"{"dsts": [1], "time": 1.0}"#,
            r#"{"src": 1, "dsts": [], "time": 1.0}"#,
            r#"{"src": -2, "dsts": [1], "time": 1.0}"#,
            r#"{"src": 1.5, "dsts": [1], "time": 1.0}"#,
            r#"{"src": 1, "dsts": [1]}"#,
        ] {
            assert!(
                matches!(parse_predict(body), Err(ServeError::BadRequest(_))),
                "should reject: {}",
                body
            );
        }
    }

    #[test]
    fn ingest_parses_events_with_features() {
        let body = r#"{"events": [
            {"src": 0, "dst": 1, "time": 1.0, "features": [0.5, -1.0]},
            {"src": 2, "dst": 3, "time": 2.0, "features": [1.5, 2.0]}
        ]}"#;
        let req = parse_ingest(body, 2).unwrap();
        assert_eq!(req.events.len(), 2);
        assert_eq!(req.features, vec![0.5, -1.0, 1.5, 2.0]);
    }

    #[test]
    fn ingest_enforces_feature_width() {
        let body = r#"{"events": [{"src": 0, "dst": 1, "time": 1.0, "features": [0.5]}]}"#;
        assert!(matches!(
            parse_ingest(body, 2),
            Err(ServeError::BadRequest(_))
        ));
        let no_feats = r#"{"events": [{"src": 0, "dst": 1, "time": 1.0}]}"#;
        assert!(parse_ingest(no_feats, 0).is_ok());
        assert!(matches!(
            parse_ingest(no_feats, 2),
            Err(ServeError::BadRequest(_))
        ));
    }

    /// `check_decoder` over the two JSON bodies, decoding through
    /// `from_utf8` and the parser the server runs. JSON has many
    /// spellings of one request, so there is no canonical re-encoding to
    /// compare: a decoded request hands back its input once its own
    /// invariants hold, and the battery checks that every prefix, huge
    /// value and bit flip is a typed refusal or such a request, never a
    /// panic.
    #[test]
    fn json_bodies_survive_the_hostile_input_battery() {
        let ingest = r#"{"events":[{"src":3,"dst":5,"time":17.25,"features":[0.5,-1.25]},{"src":0,"dst":9,"time":18,"features":[2,0]}]}"#;
        cascade_util::check_decoder("serve ingest body", ingest.as_bytes(), |bytes| {
            let req = parse_ingest(std::str::from_utf8(bytes).ok()?, 2).ok()?;
            assert!(!req.events.is_empty());
            assert_eq!(req.features.len(), req.events.len() * 2);
            assert!(req.events.iter().all(|e| e.time.is_finite()));
            assert!(req.features.iter().all(|x| x.is_finite()));
            Some(bytes.to_vec())
        });
        let predict = r#"{"src":3,"dsts":[1,2,7],"time":42.5}"#;
        cascade_util::check_decoder("serve predict body", predict.as_bytes(), |bytes| {
            let req = parse_predict(std::str::from_utf8(bytes).ok()?).ok()?;
            assert!(!req.dsts.is_empty());
            assert!(req.time.is_finite());
            Some(bytes.to_vec())
        });
    }

    #[test]
    fn ingest_refuses_features_that_overflow_f32() {
        for value in ["1e39", "-4e38", "1e309"] {
            let body = format!(
                r#"{{"events": [{{"src": 0, "dst": 1, "time": 1.0, "features": [0.5, {}]}}]}}"#,
                value
            );
            assert!(
                matches!(parse_ingest(&body, 2), Err(ServeError::BadRequest(_))),
                "should reject feature {}",
                value
            );
        }
        let edge =
            r#"{"events": [{"src": 0, "dst": 1, "time": 1.0, "features": [3.4e38, -3.4e38]}]}"#;
        assert!(parse_ingest(edge, 2).is_ok(), "f32::MAX range is finite");
    }

    #[test]
    fn responses_are_well_formed_json() {
        let p = predict_response(&[0.25, 0.75], 12).to_string();
        let parsed = Json::parse(&p).unwrap();
        assert_eq!(
            parsed.get("snapshot_events").and_then(Json::as_usize),
            Some(12)
        );
        assert_eq!(
            parsed
                .get("scores")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        let i = ingest_response(3, 10).to_string();
        let parsed = Json::parse(&i).unwrap();
        assert_eq!(parsed.get("total_acked").and_then(Json::as_usize), Some(10));
    }
}
