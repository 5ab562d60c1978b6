//! # escape-wire
//!
//! The binary wire format for ESCAPE protocol messages: LEB128 varints,
//! length-prefixed framing, and hand-written [`Encode`]/[`Decode`]
//! implementations for every RPC type (including the ESCAPE extension
//! fields of Listing 1).
//!
//! The codec is deliberately dependency-free (beyond `bytes`): the format
//! is small, stable, and fully property-tested (`tests/` runs
//! encode→decode round-trips over arbitrary messages and rejects arbitrary
//! corruption without panicking).
//!
//! ```
//! use escape_core::message::{Message, RequestVoteReply};
//! use escape_core::types::Term;
//! use escape_wire::{Decode, Encode};
//!
//! let msg = Message::RequestVoteReply(RequestVoteReply {
//!     term: Term::new(7),
//!     vote_granted: true,
//! });
//! let mut bytes = msg.to_bytes();
//! assert_eq!(Message::decode(&mut bytes).unwrap(), msg);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod client;
pub mod codec;
pub mod error;
pub mod frame;
pub mod record;
pub mod varint;

pub use client::{
    ClientRequest, ClientResponse, RequestBody, ResponseBody, WireShardMap, CLIENT_HELLO,
};
pub use codec::{Decode, Encode, Envelope};
pub use error::WireError;
pub use frame::{write_frame, FrameReader};
pub use record::{crc32, read_record, write_record, Crc32};
