//! Wire protocol: JSON request/response shapes for the serving
//! endpoints.
//!
//! Requests are parsed into typed structs with every structural problem
//! reported as [`ServeError::BadRequest`] (which the server maps to
//! HTTP 400); range checks against the live model happen in the engine
//! and worker layers, which know the model's shape.

use cascade_tgraph::Event;
use cascade_util::{Json, JsonError, JsonKind, JsonReader};

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

impl From<JsonError> for ServeError {
    fn from(e: JsonError) -> Self {
        bad(format!("invalid JSON: {}", e))
    }
}

/// The number at the reader, which must be one, as `f64`.
fn number(r: &mut JsonReader<'_>, field: &str) -> Result<f64, ServeError> {
    if r.peek()? != JsonKind::Num {
        return Err(bad(format!("missing or non-numeric field '{}'", field)));
    }
    Ok(r.number()?)
}

/// A whole number in `u32` range, as a node id.
fn node_id(v: f64) -> Option<u32> {
    (v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64).then_some(v as u32)
}

/// The node id at the reader.
fn field_u32(r: &mut JsonReader<'_>, field: &str) -> Result<u32, ServeError> {
    node_id(number(r, field)?)
        .ok_or_else(|| bad(format!("field '{}' is not a valid node id", field)))
}

/// The finite time at the reader.
fn field_time(r: &mut JsonReader<'_>) -> Result<f64, ServeError> {
    let time = number(r, "time")?;
    if !time.is_finite() {
        return Err(bad("field 'time' must be finite"));
    }
    Ok(time)
}

/// Reads a body's top-level object, handing each member's key to
/// `member` with the reader at its value, then checks that nothing
/// follows. A body that is not an object has none of the fields, so it
/// is refused as `missing`.
fn read_body<'a>(
    body: &'a str,
    missing: &str,
    mut member: impl FnMut(&str, &mut JsonReader<'a>) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    let mut r = JsonReader::new(body);
    if r.peek()? != JsonKind::Obj {
        return Err(bad(missing));
    }
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        member(&key, &mut r)?;
    }
    Ok(r.finish()?)
}

/// Parses a `/predict` body.
///
/// Decodes straight from the text: no [`cascade_util::Json`] tree is
/// built. The first occurrence of a duplicate key wins, and every other
/// member is still validated.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on any structural problem (malformed
/// JSON, missing fields, empty candidate list, ids outside `u32`).
pub fn parse_predict(body: &str) -> Result<PredictRequest, ServeError> {
    let (mut src, mut time, mut dsts) = (None, None, None);
    read_body(body, "missing or non-numeric field 'src'", |key, r| {
        match key {
            "src" if src.is_none() => src = Some(field_u32(r, "src")?),
            "time" if time.is_none() => time = Some(field_time(r)?),
            "dsts" if dsts.is_none() => dsts = Some(read_dsts(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    let src = src.ok_or_else(|| bad("missing or non-numeric field 'src'"))?;
    let time = time.ok_or_else(|| bad("missing or non-numeric field 'time'"))?;
    let dsts = dsts.ok_or_else(|| bad("missing array field 'dsts'"))?;
    if dsts.is_empty() {
        return Err(bad("'dsts' must name at least one candidate"));
    }
    Ok(PredictRequest { src, dsts, time })
}

fn read_dsts(r: &mut JsonReader<'_>) -> Result<Vec<u32>, ServeError> {
    if r.peek()? != JsonKind::Arr {
        return Err(bad("missing array field 'dsts'"));
    }
    let mut dsts = Vec::new();
    r.begin_array()?;
    while r.next_item()? {
        if r.peek()? != JsonKind::Num {
            return Err(bad("'dsts' entries must be node ids"));
        }
        let id =
            node_id(r.number()?).ok_or_else(|| bad("'dsts' entries must be valid node ids"))?;
        dsts.push(id);
    }
    Ok(dsts)
}

/// Parses an `/ingest` body against the model's `feature_dim`.
///
/// Every event must carry a `features` array of exactly `feature_dim`
/// floats, each finite as an `f32` (omitted, or not an array, when the
/// model was trained featureless). Events and feature rows are decoded
/// straight from the text into the request's vectors — each feature is
/// `str::parse::<f64>` of its literal, then `as f32` — and no
/// [`cascade_util::Json`] tree is built. The first occurrence of a
/// duplicate key wins, and every other member is still validated.
///
/// # Errors
///
/// [`ServeError::BadRequest`] on any structural problem.
pub fn parse_ingest(body: &str, feature_dim: usize) -> Result<IngestRequest, ServeError> {
    let mut decoded = None;
    read_body(body, "missing array field 'events'", |key, r| {
        if key == "events" && decoded.is_none() {
            decoded = Some(read_events(r, feature_dim)?);
        } else {
            r.skip()?;
        }
        Ok(())
    })?;
    let request = decoded.ok_or_else(|| bad("missing array field 'events'"))?;
    if request.events.is_empty() {
        return Err(bad("'events' must hold at least one event"));
    }
    Ok(request)
}

fn read_events(r: &mut JsonReader<'_>, feature_dim: usize) -> Result<IngestRequest, ServeError> {
    if r.peek()? != JsonKind::Arr {
        return Err(bad("missing array field 'events'"));
    }
    let mut request = IngestRequest {
        events: Vec::new(),
        features: Vec::new(),
    };
    r.begin_array()?;
    while r.next_item()? {
        let i = request.events.len();
        let event = read_event(r, feature_dim, &mut request.features).map_err(|e| match e {
            ServeError::BadRequest(msg) => bad(format!("event {}: {}", i, msg)),
            e => e,
        })?;
        request.events.push(event);
    }
    Ok(request)
}

/// Reads one event object, appending its feature row to `features`.
fn read_event(
    r: &mut JsonReader<'_>,
    feature_dim: usize,
    features: &mut Vec<f32>,
) -> Result<Event, ServeError> {
    if r.peek()? != JsonKind::Obj {
        return Err(bad("missing or non-numeric field 'src'"));
    }
    let (mut src, mut dst, mut time) = (None, None, None);
    // `None` until the first `features` member; then whether it was an
    // array (a non-array counts as missing).
    let mut row = None;
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "src" if src.is_none() => src = Some(field_u32(r, "src")?),
            "dst" if dst.is_none() => dst = Some(field_u32(r, "dst")?),
            "time" if time.is_none() => time = Some(field_time(r)?),
            "features" if row.is_none() => row = Some(read_row(r, feature_dim, features)?),
            _ => r.skip()?,
        }
    }
    let src = src.ok_or_else(|| bad("missing or non-numeric field 'src'"))?;
    let dst = dst.ok_or_else(|| bad("missing or non-numeric field 'dst'"))?;
    let time = time.ok_or_else(|| bad("missing or non-numeric field 'time'"))?;
    if row != Some(true) && feature_dim != 0 {
        return Err(bad(format!(
            "missing 'features' ({} values expected)",
            feature_dim
        )));
    }
    Ok(Event::new(src, dst, time))
}

/// Reads a `features` value: `false` (skipped) when it is not an array,
/// otherwise exactly `feature_dim` finite `f32`s appended to `features`.
fn read_row(
    r: &mut JsonReader<'_>,
    feature_dim: usize,
    features: &mut Vec<f32>,
) -> Result<bool, ServeError> {
    if r.peek()? != JsonKind::Arr {
        r.skip()?;
        return Ok(false);
    }
    // Every value takes at least two body bytes ("0,"), so the
    // reservation never exceeds what the client actually sent.
    features.reserve(feature_dim.min(r.remaining() / 2));
    let mut width = 0;
    r.begin_array()?;
    while r.next_item()? {
        if width == feature_dim {
            return Err(bad(format!(
                "more than {} feature values, model expects {}",
                width, feature_dim
            )));
        }
        if r.peek()? != JsonKind::Num {
            return Err(bad("non-numeric feature"));
        }
        let x = r.number()? as f32;
        // One infinite feature would poison every memory it reaches,
        // for good.
        if !x.is_finite() {
            return Err(bad("feature overflows f32"));
        }
        features.push(x);
        width += 1;
    }
    if width != feature_dim {
        return Err(bad(format!(
            "{} feature values, model expects {}",
            width, feature_dim
        )));
    }
    Ok(true)
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
