//! `pap-sysio`: the one crate in the workspace allowed to contain `unsafe`.
//!
//! Every other crate carries `#![forbid(unsafe_code)]`; the daemons'
//! event-driven server needs three narrow pieces of kernel surface
//! that std does not expose — an epoll readiness loop, async-signal-safe
//! shutdown flags, and the file-descriptor rlimit. Rather than vendoring a
//! libc crate, this module declares the handful of libc symbols it needs
//! directly (std already links libc on every supported target) and wraps
//! them in safe, misuse-resistant types. Linux-only, like the daemons'
//! loopback test suite.

#![warn(missing_docs)]
#![cfg(target_os = "linux")]

mod epoll;
mod rlimit;
mod signal;

pub use epoll::{Epoll, Event, Interest};
pub use rlimit::{nofile_limit, raise_nofile_limit};
pub use signal::{
    install_shutdown_flag, raise_signal, reset_shutdown_flag, shutdown_requested, SIGINT, SIGTERM,
};
