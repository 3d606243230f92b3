//! A minimal blocking client for the `ffmrd` protocol (and the dispatch
//! plane built on it).

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{read_message, write_message, Message, WireError};

/// One connection to an `ffmrd` daemon, used strictly
/// request-by-request.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self { stream })
    }

    /// Bounds how long [`Client::request`] waits for a response frame.
    ///
    /// # Errors
    /// Propagates the socket-option failure.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request, body included, and blocks for its response.
    ///
    /// # Errors
    /// [`WireError`] on socket failure, on a response that is not a
    /// valid message, or if the server closes without replying.
    pub fn request(&mut self, request: &Message) -> Result<Message, WireError> {
        write_message(&mut self.stream, request)?;
        read_message(&mut self.stream)?.ok_or_else(|| {
            WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            ))
        })
    }
}
