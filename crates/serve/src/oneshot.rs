//! A one-value rendezvous cell (`Mutex<Option<T>>` + `Condvar`) used as the
//! reply channel from a worker back to the thread that submitted a request.

use std::sync::{Condvar, Mutex};

/// Single-use reply slot. The first `send` wins; `recv` blocks until a
/// value arrives.
pub struct Oneshot<T> {
    slot: Mutex<Option<T>>,
    filled: Condvar,
}

impl<T> Default for Oneshot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Oneshot<T> {
    /// An empty cell.
    pub fn new() -> Self {
        Oneshot {
            slot: Mutex::new(None),
            filled: Condvar::new(),
        }
    }

    /// Deposit the value. Returns `false` (dropping `value` unused) if the
    /// cell was already filled — replies are first-writer-wins.
    pub fn send(&self, value: T) -> bool {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_some() {
            return false;
        }
        *slot = Some(value);
        self.filled.notify_all();
        true
    }

    /// Block until a value is deposited and take it.
    pub fn recv(&self) -> T {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            slot = self.filled.wait(slot).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn send_then_recv() {
        let cell = Oneshot::new();
        assert!(cell.send(7));
        assert!(!cell.send(8), "second send rejected");
        assert_eq!(cell.recv(), 7);
    }

    #[test]
    fn recv_blocks_until_send() {
        let cell = Arc::new(Oneshot::new());
        let waiter = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || cell.recv())
        };
        thread::sleep(Duration::from_millis(10));
        cell.send(42);
        assert_eq!(waiter.join().unwrap(), 42);
    }
}
