//! The server handle: binds the listener, runs the reactor threads,
//! and owns shutdown.
//!
//! I/O is readiness-driven (see [`crate::reactor`]): a fixed worker set
//! of [`ServeConfig::io_threads`] reactor threads owns every client
//! socket, so the thread count is constant whether ten or ten thousand
//! sessions are connected. There is no scheduler thread: each reactor
//! wakeup runs one [`SessionManager::process`] tick — the
//! deadline-ordered cross-session batch scheduler — between admitting
//! what it read and answering it.
//!
//! [`ServeConfig::io_threads`]: crate::ServeConfig::io_threads

use crate::manager::SessionManager;
use crate::reactor::{reactor_loop, ReactorShared};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// A running serve instance bound to a TCP address.
///
/// Dropping the handle shuts the server down and joins its threads.
pub struct Server {
    shared: Arc<ReactorShared>,
    addr: SocketAddr,
    io: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds a listener (use port 0 for an ephemeral port) and starts
    /// the reactor threads, exactly the manager's
    /// [`crate::ServeConfig::io_threads`] of them.
    ///
    /// # Errors
    /// Propagates bind/configuration I/O errors.
    pub fn bind<A: ToSocketAddrs>(addr: A, manager: Arc<SessionManager>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let io_threads = manager.serve_config().io_threads();
        let shared = Arc::new(ReactorShared {
            manager,
            stop: AtomicBool::new(false),
            inboxes: (0..io_threads).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let mut listener = Some(listener);
        let mut io = Vec::with_capacity(io_threads);
        for idx in 0..io_threads {
            let shared = Arc::clone(&shared);
            let listener = listener.take();
            io.push(thread::spawn(move || reactor_loop(&shared, idx, listener)));
        }
        Ok(Server { shared, addr, io })
    }

    /// The bound address (with the resolved port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session manager this server fronts.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.shared.manager
    }

    /// Blocks until the server stops — i.e. until some client sends a
    /// shutdown request (or [`Server::shutdown`] is called from another
    /// handle's thread). Joins the worker threads.
    pub fn wait(&mut self) {
        self.join_threads();
    }

    /// Stops the server: refuses new samples, lets the reactors flush
    /// and close every connection, and joins the reactor threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.manager.shutdown();
        self.shared.stop.store(true, Ordering::Release);
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for h in self.io.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
