//! Offline shim for `crossbeam`: the `channel` module subset the live
//! runtime uses (`unbounded`, `bounded`, `send`/`try_send`,
//! `recv`/`recv_timeout`/`try_recv`), implemented over `std::sync::mpsc`.
//!
//! Every blocking call parks the thread until a message, a disconnect or
//! the deadline; nothing here polls. Waiting on several receivers at once
//! is not offered: a thread with several sources gives them one channel
//! and an enum.

#![forbid(unsafe_code)]

/// Multi-producer single-consumer channels (mirrors `crossbeam::channel`).
pub mod channel {
    use std::sync::mpsc;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by a blocking `recv` on a disconnected channel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Sender::try_send`].
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel is at capacity.
        Full(T),
        /// The receiver is gone.
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("TrySendError::Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("TrySendError::Disconnected(..)"),
            }
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// All senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// All senders dropped.
        Disconnected,
    }

    enum Tx<T> {
        Unbounded(mpsc::Sender<T>),
        Bounded(mpsc::SyncSender<T>),
    }

    impl<T> Clone for Tx<T> {
        fn clone(&self) -> Self {
            match self {
                Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
                Tx::Bounded(s) => Tx::Bounded(s.clone()),
            }
        }
    }

    /// Sending half of a channel.
    pub struct Sender<T>(Tx<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Sends a message (blocks when a bounded channel is full).
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            match &self.0 {
                Tx::Unbounded(s) => s.send(msg).map_err(|mpsc::SendError(m)| SendError(m)),
                Tx::Bounded(s) => s.send(msg).map_err(|mpsc::SendError(m)| SendError(m)),
            }
        }

        /// Sends without blocking: a full bounded channel returns
        /// [`TrySendError::Full`] immediately (unbounded channels never
        /// report full).
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            match &self.0 {
                Tx::Unbounded(s) => s
                    .send(msg)
                    .map_err(|mpsc::SendError(m)| TrySendError::Disconnected(m)),
                Tx::Bounded(s) => s.try_send(msg).map_err(|e| match e {
                    mpsc::TrySendError::Full(m) => TrySendError::Full(m),
                    mpsc::TrySendError::Disconnected(m) => TrySendError::Disconnected(m),
                }),
            }
        }
    }

    /// Receiving half of a channel.
    ///
    /// `Sync` like the real crate's receiver (which is MPMC): the inner
    /// `mpsc::Receiver` is single-consumer, so concurrent receives are
    /// serialized through a mutex.
    pub struct Receiver<T>(Mutex<mpsc::Receiver<T>>);

    impl<T> Receiver<T> {
        fn inner(&self) -> std::sync::MutexGuard<'_, mpsc::Receiver<T>> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner().recv().map_err(|_| RecvError)
        }

        /// Returns a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner().try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner().recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }

    /// Creates a channel with unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(Tx::Unbounded(tx)), Receiver(Mutex::new(rx)))
    }

    /// Creates a channel with capacity `cap`.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(Tx::Bounded(tx)), Receiver(Mutex::new(rx)))
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn unbounded_round_trip() {
        let (tx, rx) = channel::unbounded::<u32>();
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
    }

    #[test]
    fn try_send_reports_full_bounded_channel() {
        let (tx, rx) = channel::bounded::<u32>(1);
        assert!(tx.try_send(1).is_ok());
        assert!(matches!(
            tx.try_send(2),
            Err(channel::TrySendError::Full(2))
        ));
        assert_eq!(rx.try_recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
        drop(rx);
        assert!(matches!(
            tx.try_send(4),
            Err(channel::TrySendError::Disconnected(4))
        ));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = channel::bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
    }
}
