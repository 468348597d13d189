//! Wire protocol types: request envelope, response rendering, error
//! codes.
//!
//! The protocol is newline-delimited JSON over TCP — one request object
//! per line, one response object per line, in order. The full contract
//! (every method, every field, deadline semantics, a live transcript)
//! is documented in `docs/PROTOCOL.md`; this module is its executable
//! counterpart.

use crate::json::JsonValue;

/// Machine-readable error classes carried in the `error.code` field of
/// a failure response. Stable strings — clients switch on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    ParseError,
    /// The request envelope or parameters were malformed (missing or
    /// mistyped fields, unknown fields, invalid algorithm parameters,
    /// unknown node ids or keywords).
    BadRequest,
    /// The `method` is not one the server implements.
    UnknownMethod,
    /// The named dataset is not loaded (or no dataset was named and
    /// there is no unambiguous default).
    UnknownDataset,
    /// `load_dataset` could not read or parse the graph file.
    LoadFailed,
    /// The query's deadline passed before the search finished.
    DeadlineExceeded,
    /// The request line exceeded the server's size limit; the
    /// connection is closed after this response.
    RequestTooLarge,
    /// Every worker is busy and the accepted-connection queue is full;
    /// the connection is closed after this response. Retry later,
    /// ideally with backoff.
    Overloaded,
    /// The write-ahead journal append failed; the mutation batch was
    /// NOT applied (the dataset is unchanged) and it is safe to retry.
    JournalError,
    /// The request handler panicked. The faulty request got this
    /// response instead of killing the worker or the connection; the
    /// connection stays usable.
    InternalError,
}

impl ErrorCode {
    /// The stable wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownMethod => "unknown_method",
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::LoadFailed => "load_failed",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::RequestTooLarge => "request_too_large",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::JournalError => "journal_error",
            ErrorCode::InternalError => "internal_error",
        }
    }
}

/// A structured failure: the code plus a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail (not meant for matching).
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

/// A parsed request envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation value, echoed verbatim in the
    /// response; `null` when absent.
    pub id: JsonValue,
    /// The method name.
    pub method: String,
    /// Method parameters; always an object (empty when absent).
    pub params: JsonValue,
}

/// Parses one request line. The envelope is strict: it must be a JSON
/// object, `method` must be a string, `params` (optional) must be an
/// object, and no other fields are allowed besides `id`.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let value = JsonValue::parse(line)
        .map_err(|e| WireError::new(ErrorCode::ParseError, format!("invalid JSON: {e}")))?;
    let JsonValue::Obj(ref fields) = value else {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            "request must be a JSON object",
        ));
    };
    for (key, _) in fields {
        if !matches!(key.as_str(), "id" | "method" | "params") {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                format!("unknown envelope field {key:?}"),
            ));
        }
    }
    let method = match value.get("method") {
        Some(JsonValue::Str(m)) => m.clone(),
        Some(_) => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                "\"method\" must be a string",
            ))
        }
        None => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                "missing \"method\" field",
            ))
        }
    };
    let params = match value.get("params") {
        None => JsonValue::Obj(Vec::new()),
        Some(p @ JsonValue::Obj(_)) => p.clone(),
        Some(_) => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                "\"params\" must be an object",
            ))
        }
    };
    let id = value.get("id").cloned().unwrap_or(JsonValue::Null);
    Ok(Request { id, method, params })
}

/// Renders a success response line (without the trailing newline).
pub fn ok_response(id: &JsonValue, result: JsonValue) -> String {
    JsonValue::obj([
        ("id", id.clone()),
        ("ok", JsonValue::Bool(true)),
        ("result", result),
    ])
    .render()
}

/// Renders a failure response line (without the trailing newline).
pub fn error_response(id: &JsonValue, error: &WireError) -> String {
    JsonValue::obj([
        ("id", id.clone()),
        ("ok", JsonValue::Bool(false)),
        (
            "error",
            JsonValue::obj([
                ("code", JsonValue::from(error.code.as_str())),
                ("message", JsonValue::from(error.message.clone())),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_envelopes() {
        let r = parse_request(r#"{"method":"health"}"#).unwrap();
        assert_eq!(r.method, "health");
        assert!(r.id.is_null());
        assert_eq!(r.params, JsonValue::Obj(Vec::new()));

        let r = parse_request(r#"{"id":7,"method":"query","params":{"from":0}}"#).unwrap();
        assert_eq!(r.id.as_f64(), Some(7.0));
        assert_eq!(r.params.get("from").and_then(JsonValue::as_u64), Some(0));
    }

    #[test]
    fn envelope_is_strict() {
        for (line, code) in [
            ("nonsense", ErrorCode::ParseError),
            ("[1,2]", ErrorCode::BadRequest),
            (r#"{"params":{}}"#, ErrorCode::BadRequest),
            (r#"{"method":3}"#, ErrorCode::BadRequest),
            (r#"{"method":"q","params":[]}"#, ErrorCode::BadRequest),
            (r#"{"method":"q","extra":1}"#, ErrorCode::BadRequest),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, code, "{line}");
        }
    }

    #[test]
    fn responses_render_stable_shapes() {
        let ok = ok_response(
            &JsonValue::from(4_u64),
            JsonValue::obj([("x", 1_u64.into())]),
        );
        assert_eq!(ok, r#"{"id":4,"ok":true,"result":{"x":1}}"#);
        let err = error_response(
            &JsonValue::Null,
            &WireError::new(ErrorCode::UnknownMethod, "no such method"),
        );
        assert_eq!(
            err,
            r#"{"id":null,"ok":false,"error":{"code":"unknown_method","message":"no such method"}}"#
        );
    }

    #[test]
    fn error_codes_are_stable() {
        let pairs = [
            (ErrorCode::ParseError, "parse_error"),
            (ErrorCode::BadRequest, "bad_request"),
            (ErrorCode::UnknownMethod, "unknown_method"),
            (ErrorCode::UnknownDataset, "unknown_dataset"),
            (ErrorCode::LoadFailed, "load_failed"),
            (ErrorCode::DeadlineExceeded, "deadline_exceeded"),
            (ErrorCode::RequestTooLarge, "request_too_large"),
            (ErrorCode::Overloaded, "overloaded"),
            (ErrorCode::JournalError, "journal_error"),
            (ErrorCode::InternalError, "internal_error"),
        ];
        for (code, s) in pairs {
            assert_eq!(code.as_str(), s);
        }
    }

    #[test]
    fn id_round_trips_any_json_value() {
        for id in [r#""abc""#, "null", "[1,2]", r#"{"a":1}"#, "3.5"] {
            let line = format!(r#"{{"id":{id},"method":"health"}}"#);
            let req = parse_request(&line).unwrap();
            let resp = ok_response(&req.id, JsonValue::Null);
            assert!(resp.starts_with(&format!(r#"{{"id":{id},"#)), "{resp}");
        }
    }
}
