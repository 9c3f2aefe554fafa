//! # querc-sql
//!
//! Dialect-tolerant SQL lexing, normalization, lightweight parsing and the
//! classical hand-engineered feature extractor for the Querc reproduction.
//!
//! Querc's thesis (Jain et al., CIDR 2019) is that *learned* features over
//! raw query text can replace per-dialect syntactic feature engineering.
//! This crate supplies both sides of that comparison:
//!
//! * [`lexer`] + [`normalize`] produce the token streams the embedders in
//!   `querc-embed` consume. The lexer never fails: unknown bytes become
//!   [`token::TokenKind::Other`] tokens, because a workload manager must
//!   accept whatever text a client sends.
//! * [`parser`] extracts a best-effort [`ast::QueryShape`] (tables, join
//!   graph, predicates, group-by, aggregates) used by the database
//!   simulator's optimizer and by the baseline features.
//! * [`features`] is the specialized feature engineering the paper argues
//!   against — join/group-by structure counts à la Chaudhuri et al. — kept
//!   as an ablation baseline.

#![deny(missing_docs)]

pub mod ast;
pub mod dialect;
pub mod features;
pub mod fingerprint;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod token;

pub use ast::{JoinEdge, Predicate, QueryShape, StatementKind};
pub use dialect::Dialect;
pub use fingerprint::{fingerprint_tokens, template_fingerprint, TemplateHasher};
pub use lexer::{lex_calls_this_thread, tokenize, Lexer};
pub use normalize::{normalize_tokens, normalized_text, NormToken};
pub use parser::parse_query;
pub use token::{Token, TokenKind};
