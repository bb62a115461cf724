//! HTTP protocol surface of the server crate.
//!
//! The request parser, response encoder, percent/form decoding and the
//! typed [`HttpError`] all live in [`lbr_net`] (the event-driven
//! connection layer) and are re-exported here so server code and
//! downstream users keep one import path.

pub use lbr_net::http::{
    parse_form, percent_decode, reason, HttpError, Parse, Request, RequestParser, Response,
    MAX_BODY, MAX_HEAD, MAX_HEADERS,
};
