//! A minimal deterministic fan-out helper over `std::thread`.
//!
//! The engine cannot take a thread-pool dependency (crates.io is out of
//! reach), so every embarrassingly-parallel loop in this workspace — the
//! per-instance sweeps in the bench crate, the concurrent-oracle property
//! tests — funnels through [`fan_out`]: scoped workers pull indices from one
//! atomic counter and results are reassembled **in input order**, so the
//! output is identical to the sequential map regardless of scheduling.
//!
//! Worker panics are isolated with `catch_unwind` at the worker boundary:
//! the first panic halts the remaining workers at their next item, every
//! worker's partial results are joined normally, and the panic is either
//! surfaced as a typed [`FanOutPanic`] ([`try_fan_out`]) or re-raised on
//! the calling thread with its original payload ([`fan_out`]). A panic can
//! therefore never unwind through `std::thread::scope` (which would abort
//! the process), and [`fan_out`] can never silently drop the panicking
//! worker's completed results the way the pre-isolation implementation
//! did.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Typed report of a worker panic inside [`try_fan_out`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanOutPanic {
    /// Index of the worker whose closure panicked (its spawn slot, not
    /// the item index — items are claimed dynamically).
    pub worker: usize,
    /// Stringified panic payload.
    pub payload: String,
}

impl fmt::Display for FanOutPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fan-out worker {} panicked: {}",
            self.worker, self.payload
        )
    }
}

impl std::error::Error for FanOutPanic {}

/// Render a caught panic payload as text (the conventional `&str` /
/// `String` payloads verbatim, anything else a placeholder).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared implementation: map with isolation, reporting the first panic
/// as `(worker, payload)`.
fn fan_out_impl<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> Result<Vec<R>, (usize, Box<dyn Any + Send>)>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads <= 1 {
        return catch_unwind(AssertUnwindSafe(|| items.iter().map(&f).collect()))
            .map_err(|payload| (0, payload));
    }
    let next = AtomicUsize::new(0);
    let halt = AtomicBool::new(false);
    let panicked: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    let mut pairs: Vec<(usize, R)> = std::thread::scope(|scope| {
        let next = &next;
        let halt = &halt;
        let panicked = &panicked;
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        while !halt.load(Ordering::Acquire) {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, f(item)));
                        }
                    }));
                    if let Err(payload) = caught {
                        halt.store(true, Ordering::Release);
                        let mut slot = match panicked.lock() {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        if slot.is_none() {
                            *slot = Some((worker, payload));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let hit = {
        let mut slot = match panicked.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        slot.take()
    };
    if let Some(hit) = hit {
        return Err(hit);
    }
    pairs.sort_by_key(|(i, _)| *i);
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

/// Map `f` over `items` using up to `threads` scoped workers, returning
/// the results in input order.
///
/// `threads <= 1` (or a single item) runs `f` inline on the calling
/// thread with no synchronisation at all. Workers claim indices from a
/// shared atomic counter, so uneven per-item cost balances automatically.
/// The result is the same `Vec` the sequential `items.iter().map(f)`
/// would produce — parallelism here is an implementation detail, never an
/// observable one.
///
/// # Panics
///
/// If `f` panics, the first panic is caught at the worker boundary (the
/// other workers stop at their next item) and re-raised with its original
/// payload on the calling thread — exactly like the sequential map, and
/// never as a process abort. Use [`try_fan_out`] for a typed error
/// instead.
pub fn fan_out<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match fan_out_impl(items, threads, f) {
        Ok(out) => out,
        Err((_, payload)) => resume_unwind(payload),
    }
}

/// Panic-isolating [`fan_out`]: a worker panic is returned as a typed
/// [`FanOutPanic`] instead of resuming the unwind.
///
/// # Errors
///
/// [`FanOutPanic`] carrying the first panicking worker's index and its
/// stringified payload.
pub fn try_fan_out<T, R, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, FanOutPanic>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fan_out_impl(items, threads, f).map_err(|(worker, payload)| FanOutPanic {
        worker,
        payload: panic_message(payload.as_ref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                fan_out(&items, threads, |x| x * x),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert_eq!(fan_out(&empty, 8, |x| x + 1), Vec::<u32>::new());
        assert_eq!(fan_out(&[41u32], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_work_is_balanced_without_reordering() {
        // Items with wildly different costs still come back in order.
        let items: Vec<u64> = (0..64).collect();
        let out = fan_out(&items, 4, |&x| {
            let mut acc = x;
            for _ in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn try_fan_out_reports_a_typed_panic() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 4] {
            let err = try_fan_out(&items, threads, |&x| {
                assert!(x != 37, "injected fault at 37");
                x
            })
            .unwrap_err();
            assert!(
                err.payload.contains("injected fault"),
                "threads={threads}: {err}"
            );
            assert!(err.to_string().contains("panicked"));
        }
    }

    #[test]
    fn try_fan_out_succeeds_without_panics() {
        let items: Vec<u64> = (0..50).collect();
        let out = try_fan_out(&items, 4, |x| x + 1).unwrap();
        assert_eq!(out, (1..=50).collect::<Vec<u64>>());
    }

    #[test]
    fn fan_out_reraises_the_original_payload() {
        let items: Vec<u64> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out(&items, 4, |&x| {
                if x == 5 {
                    std::panic::panic_any(String::from("original payload"));
                }
                x
            })
        }))
        .unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "original payload");
    }

    #[test]
    fn panic_message_handles_all_payload_shapes() {
        let caught = catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "plain str");
        let caught = catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }
}
