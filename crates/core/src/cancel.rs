//! Cooperative cancellation for per-request deadlines.
//!
//! A [`CancelToken`] is carried on [`crate::PipelineHooks`] and polled at
//! pass boundaries and between functions — the same places the
//! degradation ladder already has clean rollback points, so cancellation
//! can never observe (or commit) a half-transformed function. The token
//! is deliberately *not* part of the cache-key fingerprint: deadlines
//! change when a compile stops, never what it produces.
//!
//! Two things can fire a token: the embedded deadline instant (polled,
//! so a compile that never polls past its deadline simply finishes), and
//! a [`Watchdog`] thread that trips the flag the moment the deadline
//! passes — making long sleeps or stuck I/O inside a pass cancellable at
//! the *next* poll without any per-poll clock reads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Instant,
}

/// A cheaply clonable cancellation token. The default token is inert:
/// [`CancelToken::cancelled`] is `false` forever and costs one `Option`
/// check, so unarmed compiles pay nothing measurable.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

impl CancelToken {
    /// A token that trips `timeout` from now.
    pub fn deadline_in(timeout: Duration) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now() + timeout,
            })),
        }
    }

    /// Trips the token immediately.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::SeqCst);
        }
    }

    /// Whether work should stop: the flag was tripped or the deadline has
    /// passed. Once true, stays true.
    pub fn cancelled(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.cancelled.load(Ordering::SeqCst) {
            return true;
        }
        if Instant::now() >= inner.deadline {
            inner.cancelled.store(true, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Time left before the deadline (`None` for an inert token,
    /// `Some(ZERO)` once expired).
    pub fn remaining(&self) -> Option<Duration> {
        let inner = self.inner.as_ref()?;
        Some(inner.deadline.saturating_duration_since(Instant::now()))
    }
}

/// A thread that trips a [`CancelToken`] when its deadline passes, so
/// polls stay clock-free. Dropping the watchdog disarms and joins it —
/// a compile that finishes in time leaves no thread behind.
#[derive(Debug)]
pub struct Watchdog {
    disarm: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Arms a watchdog for `token`; inert tokens need (and get) none.
    pub fn arm(token: &CancelToken) -> Option<Watchdog> {
        let timeout = token.remaining()?;
        let disarm = Arc::new((Mutex::new(false), Condvar::new()));
        let disarm2 = Arc::clone(&disarm);
        let token = token.clone();
        let handle = std::thread::Builder::new()
            .name("specframe-watchdog".into())
            .spawn(move || {
                let (lock, cv) = &*disarm2;
                let mut disarmed = lock.lock().unwrap();
                let deadline = Instant::now() + timeout;
                loop {
                    if *disarmed {
                        return;
                    }
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        token.cancel();
                        return;
                    }
                    let (guard, _) = cv.wait_timeout(disarmed, left).unwrap();
                    disarmed = guard;
                }
            })
            .ok()?;
        Some(Watchdog {
            disarm,
            handle: Some(handle),
        })
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.disarm;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_cancels() {
        let t = CancelToken::default();
        assert!(!t.cancelled());
        t.cancel(); // no-op
        assert!(!t.cancelled());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn explicit_cancel_trips_all_clones() {
        let t = CancelToken::deadline_in(Duration::from_secs(3600));
        let clone = t.clone();
        assert!(!clone.cancelled());
        t.cancel();
        assert!(clone.cancelled());
    }

    #[test]
    fn deadline_trips_on_poll() {
        let t = CancelToken::deadline_in(Duration::ZERO);
        assert!(t.cancelled());
    }

    #[test]
    fn watchdog_trips_the_flag_without_polling_the_clock() {
        let t = CancelToken::deadline_in(Duration::from_millis(10));
        let _dog = Watchdog::arm(&t).expect("armed token gets a watchdog");
        let start = Instant::now();
        while !t.cancelled() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "watchdog never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn dropping_the_watchdog_disarms_it_promptly() {
        let t = CancelToken::deadline_in(Duration::from_secs(3600));
        let dog = Watchdog::arm(&t).unwrap();
        let start = Instant::now();
        drop(dog); // must join well before the hour is up
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(!t.cancelled());
    }

    #[test]
    fn watchdog_arm_on_inert_token_is_none() {
        assert!(Watchdog::arm(&CancelToken::default()).is_none());
    }
}
