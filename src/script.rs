//! The line-oriented script language driving the whole citation stack.
//!
//! The implementation lives in [`citesys_net::script`] (one interpreter
//! shared by the script runner, the stdin REPL and the TCP server —
//! commands are parsed by [`citesys_net::protocol`], so the front ends
//! cannot drift) and is re-exported here for source compatibility:
//! `citesys::script::Interpreter` keeps working.

pub use citesys_net::script::{
    Interpreter, ScriptError, ScriptErrorKind, SessionControl, SessionReply, SharedStore,
};
