//! Paper-style free-function API.
//!
//! Inside a task (or on a worker thread) the owning runtime is implicit;
//! these functions mirror the C++ HiPER surface from §II-B4 so that example
//! code reads like the paper:
//!
//! ```ignore
//! hiper::finish(|| {
//!     hiper::async_(|| { /* body */ });
//!     let fut = hiper::async_future(|| 42);
//!     hiper::async_await(&fut, || { /* runs after fut */ });
//! });
//! ```
//!
//! Every function panics if called from a thread with no current runtime;
//! use the methods on [`Runtime`] explicitly in that situation.

use hiper_platform::PlaceId;

use crate::promise::{Future, TaskError};
use crate::runtime::Runtime;

fn rt() -> Runtime {
    Runtime::current().expect("no current HiPER runtime on this thread")
}

/// `async`: create a task at the place closest to the current thread.
pub fn async_(f: impl FnOnce() + Send + 'static) {
    rt().spawn(f);
}

/// `async_at`: create a task at a specific place.
pub fn async_at(place: PlaceId, f: impl FnOnce() + Send + 'static) {
    rt().spawn_at(place, f);
}

/// `async_future`: create a task returning a future on its result.
pub fn async_future<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Future<T> {
    rt().spawn_future(f)
}

/// `async_await`: create a task predicated on `dep`.
pub fn async_await<D: Send + 'static>(dep: &Future<D>, f: impl FnOnce() + Send + 'static) {
    rt().spawn_await(dep, f);
}

/// `async_future_await`: predicated on `dep`, returns a completion future.
pub fn async_future_await<D: Send + 'static, T: Send + 'static>(
    dep: &Future<D>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Future<T> {
    rt().spawn_future_await(dep, f)
}

/// `finish`: run `f` and wait for every task transitively created inside it.
///
/// Returns `Err` with the first recorded failure if any task in the scope
/// panicked; the scope still drains fully before the error surfaces.
pub fn finish<R>(f: impl FnOnce() -> R) -> Result<R, TaskError> {
    rt().finish(f)
}

/// `finish_supervised`: a resilient finish scope that re-executes `f`
/// (passed the 1-based attempt number) when the scope fails for a cause
/// `policy` classifies as retryable. See `Runtime::finish_supervised`.
pub fn finish_supervised<R>(
    policy: &crate::RetryPolicy,
    f: impl FnMut(u32) -> R,
) -> Result<R, TaskError> {
    rt().finish_supervised(policy, f)
}

/// Blocking `forasync` over `0..n`.
pub fn forasync_1d(n: usize, grain: usize, f: impl Fn(usize) + Send + Sync + 'static) {
    rt().forasync_1d(n, grain, f)
}

/// `forasync_future` over `0..n`.
pub fn forasync_future_1d(
    n: usize,
    grain: usize,
    f: impl Fn(usize) + Send + Sync + 'static,
) -> Future<()> {
    let rt = rt();
    let here = rt.here();
    rt.forasync_future_1d(here, n, grain, f)
}
