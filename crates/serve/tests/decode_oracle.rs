//! The typed request decoders against the tree-walking ones they
//! replaced: over a seeded corpus of bodies, `parse_ingest` and
//! `parse_predict` must return the oracle's request bit for bit, or
//! refuse where it refuses.
//!
//! The oracle parses the whole body into a `Json` tree, then reads the
//! fields with `Json::get` (first occurrence of a key wins) — the
//! decoders' semantics written the slow, obvious way.

use cascade_serve::{parse_ingest, parse_predict, IngestRequest, PredictRequest, ServeError};
use cascade_tgraph::Event;
use cascade_util::{check, Gen, Json};

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

fn oracle_predict(body: &str) -> Result<PredictRequest, ServeError> {
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

fn oracle_ingest(body: &str, feature_dim: usize) -> Result<IngestRequest, ServeError> {
    let json = Json::parse(body).map_err(|e| bad(format!("invalid JSON: {}", e)))?;
    let events_json = json
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing array field 'events'"))?;
    if events_json.is_empty() {
        return Err(bad("'events' must hold at least one event"));
    }
    let mut events = Vec::with_capacity(events_json.len());
    let mut features = Vec::new();
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
                    return Err(bad(format!("event {}: wrong feature width", i)));
                }
                for v in row {
                    let x = v
                        .as_f64()
                        .ok_or_else(|| bad(format!("event {}: non-numeric feature", i)))?
                        as f32;
                    if !x.is_finite() {
                        return Err(bad(format!("event {}: feature overflows f32", i)));
                    }
                    features.push(x);
                }
            }
            None if feature_dim != 0 => {
                return Err(bad(format!("event {}: missing 'features'", i)));
            }
            None => {}
        }
        events.push(Event::new(src, dst, time));
    }
    Ok(IngestRequest { events, features })
}

fn event_bits(e: &Event) -> (u32, u32, u64) {
    (e.src.0, e.dst.0, e.time.to_bits())
}

/// `Ok(true)` when both decode to the same bits, `Ok(false)` when both
/// refuse, and what differs otherwise.
fn ingest_agrees(body: &str, feature_dim: usize) -> Result<bool, String> {
    match (
        parse_ingest(body, feature_dim),
        oracle_ingest(body, feature_dim),
    ) {
        (Ok(got), Ok(want)) => {
            let same = got
                .events
                .iter()
                .map(event_bits)
                .eq(want.events.iter().map(event_bits))
                && got
                    .features
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(want.features.iter().map(|x| x.to_bits()));
            if same {
                Ok(true)
            } else {
                Err(format!(
                    "decoded differently at feature_dim {}: {}",
                    feature_dim, body
                ))
            }
        }
        (Err(ServeError::BadRequest(_)), Err(_)) => Ok(false),
        (got, want) => Err(format!(
            "decoder {:?}, oracle {:?} at feature_dim {}: {}",
            got.map(|r| r.events.len()),
            want.map(|r| r.events.len()),
            feature_dim,
            body
        )),
    }
}

fn predict_agrees(body: &str) -> Result<bool, String> {
    match (parse_predict(body), oracle_predict(body)) {
        (Ok(got), Ok(want)) => {
            if got.src == want.src
                && got.dsts == want.dsts
                && got.time.to_bits() == want.time.to_bits()
            {
                Ok(true)
            } else {
                Err(format!("decoded differently: {}", body))
            }
        }
        (Err(ServeError::BadRequest(_)), Err(_)) => Ok(false),
        (got, want) => Err(format!("decoder {:?}, oracle {:?}: {}", got, want, body)),
    }
}

/// Whitespace between tokens: usually none, sometimes any JSON mix.
fn ws(g: &mut Gen, out: &mut String) {
    if g.usize_in(0..4) == 0 {
        for _ in 0..g.usize_in(1..4) {
            out.push([' ', '\n', '\t', '\r'][g.usize_in(0..4)]);
        }
    }
}

/// One of the valid spellings of `x`.
fn spell(g: &mut Gen, x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        match g.usize_in(0..4) {
            0 => format!("{}", x),
            1 => format!("{}.0", x),
            2 => format!("{}e0", x),
            _ => format!("{:E}", x),
        }
    } else if g.rng().chance(0.5) {
        format!("{}", x)
    } else {
        format!("{:e}", x)
    }
}

/// A key as written: plain, or with one character `\u`-escaped.
fn key(g: &mut Gen, name: &str) -> String {
    let plain = Json::from(name).to_string();
    if name.is_empty() || g.usize_in(0..4) != 0 {
        return plain;
    }
    let at = g.usize_in(0..name.len());
    if !name.is_char_boundary(at) {
        return plain;
    }
    let c = name[at..].chars().next().expect("at is in the name");
    format!(
        "\"{}\\u{:04x}{}\"",
        &name[..at],
        c as u32,
        &name[at + c.len_utf8()..]
    )
}

/// Renders `v` with random whitespace, number spellings and key escapes.
fn render(g: &mut Gen, v: &Json, out: &mut String) {
    match v {
        Json::Num(x) => out.push_str(&spell(g, *x)),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    ws(g, out);
                    out.push(',');
                }
                ws(g, out);
                render(g, item, out);
            }
            ws(g, out);
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    ws(g, out);
                    out.push(',');
                }
                ws(g, out);
                out.push_str(&key(g, k));
                ws(g, out);
                out.push(':');
                ws(g, out);
                render(g, item, out);
            }
            ws(g, out);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

/// An arbitrary value up to `depth` levels deep, for unknown members.
fn junk(g: &mut Gen, depth: usize) -> Json {
    match g.usize_in(0..if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(g.rng().chance(0.5)),
        2 => Json::Num(g.f64_in(-1e6..1e6)),
        3 => Json::from(["", "src", "é\"\\\n日", "\u{1}😀"][g.usize_in(0..4)]),
        4 => Json::Arr((0..g.usize_in(0..4)).map(|_| junk(g, depth - 1)).collect()),
        _ => Json::Obj(
            (0..g.usize_in(0..4))
                .map(|_| {
                    (
                        ["a", "events", "src", "features"][g.usize_in(0..4)].to_string(),
                        junk(g, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// A node id: usually valid, sometimes one of the values refused as one.
fn id(g: &mut Gen) -> Json {
    match g.usize_in(0..40) {
        0 => Json::Num(-1.0),
        1 => Json::Num(2.5),
        2 => Json::Num(4_294_967_296.0),
        3 => Json::Num(4_294_967_295.0),
        4 => Json::Num(-0.0),
        5 => junk(g, 1),
        _ => Json::Num(g.usize_in(0..1000) as f64),
    }
}

/// A feature row: usually `dim` floats, sometimes the wrong width, a
/// non-array, a non-numeric entry or a value that overflows `f32`.
fn row(g: &mut Gen, dim: usize) -> Json {
    let width = match g.usize_in(0..30) {
        0 => g.usize_in(0..dim + 2),
        _ => dim,
    };
    let mut values: Vec<Json> = (0..width)
        .map(|_| match g.usize_in(0..4) {
            0 => Json::Num(g.f64_in(-1.0..1.0)),
            _ => Json::Num(g.f32_in(-2.0..2.0) as f64),
        })
        .collect();
    match g.usize_in(0..60) {
        0 => Json::Null,
        1 => junk(g, 2),
        2 if width > 0 => {
            values[0] = Json::Num([1e39, -4e38, 3.4e38][g.usize_in(0..3)]);
            Json::Arr(values)
        }
        3 if width > 0 => {
            values[width - 1] = junk(g, 1);
            Json::Arr(values)
        }
        _ => Json::Arr(values),
    }
}

/// Shuffles `members`, and sometimes adds unknown members and an earlier
/// duplicate of one of them.
fn dress(g: &mut Gen, mut members: Vec<(String, Json)>) -> Json {
    for _ in 0..g.usize_in(0..3) {
        let name = ["x", "Src", "time ", "feature", "é"][g.usize_in(0..5)];
        members.push((name.to_string(), junk(g, 3)));
    }
    for i in (1..members.len()).rev() {
        members.swap(i, g.usize_in(0..i + 1));
    }
    if !members.is_empty() && g.usize_in(0..8) == 0 {
        let (name, _) = members[g.usize_in(0..members.len())].clone();
        let at = g.usize_in(0..members.len());
        members.insert(at, (name, junk(g, 2)));
    }
    Json::Obj(members)
}

fn ingest_body(g: &mut Gen, dim: usize) -> Json {
    let count = if g.usize_in(0..10) == 0 {
        0
    } else {
        g.usize_in(1..5)
    };
    let events: Vec<Json> = (0..count)
        .map(|i| {
            let mut members = Vec::new();
            for (name, value) in [("src", id(g)), ("dst", id(g))] {
                if g.usize_in(0..50) != 0 {
                    members.push((name.to_string(), value));
                }
            }
            if g.usize_in(0..50) != 0 {
                let time = if g.rng().chance(0.03) {
                    junk(g, 1)
                } else {
                    Json::Num(i as f64 * 0.75)
                };
                members.push(("time".to_string(), time));
            }
            if dim > 0 || g.rng().chance(0.5) {
                members.push(("features".to_string(), row(g, dim)));
            }
            if g.usize_in(0..50) == 0 {
                return junk(g, 2);
            }
            dress(g, members)
        })
        .collect();
    let events = if g.usize_in(0..20) == 0 {
        junk(g, 2)
    } else {
        Json::Arr(events)
    };
    dress(g, vec![("events".to_string(), events)])
}

fn predict_body(g: &mut Gen) -> Json {
    let dsts: Vec<Json> = (0..g.usize_in(0..4)).map(|_| id(g)).collect();
    let mut members = vec![
        ("src".to_string(), id(g)),
        ("time".to_string(), Json::Num(g.f64_in(0.0..1e4))),
        ("dsts".to_string(), Json::Arr(dsts)),
    ];
    if g.usize_in(0..10) == 0 {
        members.remove(g.usize_in(0..3));
    }
    dress(g, members)
}

/// The rendered body, sometimes cut short or with a flipped bit.
fn damage(g: &mut Gen, body: String) -> String {
    match g.usize_in(0..10) {
        0 => {
            let mut cut = g.usize_in(0..body.len() + 1);
            while !body.is_char_boundary(cut) {
                cut -= 1;
            }
            body[..cut].to_string()
        }
        1 if !body.is_empty() => {
            let mut bytes = body.into_bytes();
            let at = g.usize_in(0..bytes.len());
            bytes[at] ^= 1 << g.usize_in(0..8);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        _ => body,
    }
}

#[test]
fn typed_decoders_agree_with_the_tree_walking_oracle() {
    let (mut accepted, mut refused) = (0usize, 0usize);
    check("ingest decoder matches the oracle", |g| {
        for _ in 0..16 {
            let dim = [0, 1, 3][g.usize_in(0..3)];
            let body = ingest_body(g, dim);
            let mut text = String::new();
            ws(g, &mut text);
            render(g, &body, &mut text);
            ws(g, &mut text);
            let text = damage(g, text);
            match ingest_agrees(&text, dim)? {
                true => accepted += 1,
                false => refused += 1,
            }
        }
        Ok(())
    });
    check("predict decoder matches the oracle", |g| {
        for _ in 0..16 {
            let body = predict_body(g);
            let mut text = String::new();
            render(g, &body, &mut text);
            let text = damage(g, text);
            match predict_agrees(&text)? {
                true => accepted += 1,
                false => refused += 1,
            }
        }
        Ok(())
    });
    // The corpus exercises both outcomes, not just refusals.
    assert!(
        accepted * 5 > accepted + refused,
        "{} accepted, {} refused",
        accepted,
        refused
    );
    assert!(
        refused * 5 > accepted + refused,
        "{} accepted, {} refused",
        accepted,
        refused
    );
}

#[test]
fn duplicate_keys_resolve_to_the_first_occurrence() {
    let cases: [(&str, usize, bool); 8] = [
        // A non-array first `events` wins over a later array.
        (
            r#"{"events": null, "events": [{"src":0,"dst":1,"time":1}]}"#,
            0,
            false,
        ),
        (
            r#"{"events": [{"src":0,"dst":1,"time":1}], "events": 5}"#,
            0,
            true,
        ),
        // A non-array first `features` counts as missing.
        (
            r#"{"events": [{"src":0,"dst":1,"time":1,"features":null,"features":[1]}]}"#,
            1,
            false,
        ),
        (
            r#"{"events": [{"src":0,"dst":1,"time":1,"features":null,"features":[1]}]}"#,
            0,
            true,
        ),
        (
            r#"{"events": [{"src":0,"dst":1,"time":1,"features":[],"features":{}}]}"#,
            0,
            true,
        ),
        // A bad first `src` is not rescued by a later good one.
        (
            r#"{"events": [{"src":"0","src":0,"dst":1,"time":1}]}"#,
            0,
            false,
        ),
        (
            r#"{"events": [{"src":0,"src":"0","dst":1,"time":1}]}"#,
            0,
            true,
        ),
        // Escaped keys name the same field.
        (
            r#"{"ev\u0065nts": [{"\u0073rc":0,"dst":1,"time":1}]}"#,
            0,
            true,
        ),
    ];
    for (body, dim, ok) in cases {
        assert_eq!(ingest_agrees(body, dim), Ok(ok), "{}", body);
    }
}

#[test]
fn deep_nesting_in_an_unknown_member_is_refused_at_the_cap() {
    let depth = 100_000;
    let body = format!(
        r#"{{"events": [{{"src":0,"dst":1,"time":1,"x":{}{}}}]}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    match parse_ingest(&body, 0) {
        Err(ServeError::BadRequest(msg)) => {
            assert!(msg.contains("nesting deeper than 128"), "{}", msg)
        }
        other => panic!("deep body not refused: {:?}", other.map(|r| r.events.len())),
    }
    assert!(oracle_ingest(&body, 0).is_err());
}
