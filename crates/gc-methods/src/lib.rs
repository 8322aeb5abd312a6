//! The pluggable "Method M" abstraction of GraphCache (paper §4).
//!
//! A Method M is what GraphCache is called to expedite: either a
//! filter-then-verify (FTV) method — a dataset index (`Mindex`/`Mfilter`)
//! plus a sub-iso verifier (`Mverifier`) — or a direct SI algorithm, whose
//! "filter" trivially returns every dataset graph. GraphCache treats both
//! uniformly: it asks M to filter, prunes the resulting candidate set using
//! its own cache, and hands the reduced set back to M's verifier.
//!
//! The bundled configurations mirror §7.1 of the paper:
//!
//! | name     | filter                     | verifier | threads |
//! |----------|----------------------------|----------|---------|
//! | GGSX     | path counts (len ≤ 4)      | VF2      | 1       |
//! | Grapes1  | GGSX's path counts         | VF2      | 1       |
//! | Grapes6  | GGSX's path counts         | VF2      | 6       |
//! | CT-Index | tree/cycle fingerprints    | VF2+     | 1       |
//! | VF2      | none (all graphs)          | VF2      | 1       |
//! | VF2+     | none (all graphs)          | VF2+     | 1       |
//! | GQL      | none (all graphs)          | GraphQL  | 1       |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
#[cfg(test)]
mod grapes;
mod method;

pub use builder::{MethodBuilder, MethodKind};
pub use method::{FilterOutput, Method, MethodResult, QueryKind, VerifyOutput};
