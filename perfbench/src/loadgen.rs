//! The load generator: one connection, a sender (the calling thread) and a
//! receiver thread reading replies and pushed events off the same socket.
//!
//! The receiver only frames and timestamps: a reply is recognised by the
//! `{"id":` prefix every reply payload starts with, so no JSON is parsed
//! inside the timed window.  Frames keep their arrival order, which is the
//! daemon's execution order: the engine thread sends a command's reply and
//! then the events that command produced, before it takes the next command,
//! so every event is attributed to the last reply that preceded it.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grape_daemon::protocol::{self, Request, RequestBody, Response, ResponseBody};

use crate::workload::Plan;

/// How long any single reply may take before the run counts it as lost.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Requests kept in flight during the saturation phase.
pub const SATURATION_DEPTH: usize = 2;

extern "C" {
    /// POSIX `setsockopt(2)`, for the one TCP option std does not expose.
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

/// Sets the socket's ACK mode.  Delayed ACKs (`quick = false`) are how an
/// interactive client's socket normally runs, and they make every reply
/// the daemon holds back under Nagle's algorithm wait one delayed-ACK
/// period.  Linux leaves that mode on its own heuristics (a delayed-ACK
/// timer that fires, a long idle gap), which would make the stall last one
/// period on one request and none on the next; so the mode is re-armed
/// after every frame read and before every request sent.  Quick ACKs
/// release a held reply at once; the saturation phase uses them so that
/// `commits_per_s` follows the daemon's work, not the stall.
fn set_ack_mode(stream: &TcpStream, quick: bool) {
    let value = i32::from(quick);
    // SAFETY: the fd is an open socket owned by `stream`, and `value`
    // points at a live i32 whose size is passed as `len`.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &value, 4);
    }
}

const POISONED: &str = "the receiver thread panicked while holding the inbox";

/// One frame as it came off the socket.
pub struct Frame {
    pub at: Instant,
    /// Whole frame size on the wire: length line, payload, newline.
    pub bytes: usize,
    /// `Some(id)` for a reply, `None` for a pushed event.
    pub reply_to: Option<u64>,
    pub payload: String,
}

#[derive(Default)]
struct Inbox {
    frames: Vec<Frame>,
    by_id: HashMap<u64, usize>,
    closed: bool,
}

type Shared = Arc<(Mutex<Inbox>, Condvar)>;

/// A pipelined connection to the daemon.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    inbox: Shared,
    /// The ACK mode the receiver re-arms after every frame.
    quick_acks: Arc<AtomicBool>,
    receiver: Option<JoinHandle<()>>,
    next_id: u64,
    sent: usize,
}

/// When a scheduled request was due, sent, and how many were in flight.
pub struct Sent {
    pub op: usize,
    pub id: u64,
    pub due: Instant,
    pub sent: Instant,
    pub backlog: usize,
}

/// The last stretch before a due time is spun, not slept: a sleeping
/// thread wakes up late by a varying amount, and the vCPU it runs on may
/// have gone idle.
const SPIN: Duration = Duration::from_millis(2);

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn reply_id(payload: &str) -> Option<u64> {
    let rest = payload.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Our own socket never waits on Nagle, so any stall measured here
        // belongs to the daemon.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let inbox: Shared = Arc::new((Mutex::new(Inbox::default()), Condvar::new()));
        let quick_acks = Arc::new(AtomicBool::new(false));
        let receiver = {
            let (inbox, quick_acks) = (Arc::clone(&inbox), Arc::clone(&quick_acks));
            std::thread::spawn(move || receive(read_half, inbox, quick_acks))
        };
        Ok(Conn {
            writer: BufWriter::new(stream),
            inbox,
            quick_acks,
            receiver: Some(receiver),
            next_id: 1,
            sent: 0,
        })
    }

    /// Switches the socket to quick (`true`) or delayed ACKs, now and
    /// after every frame the receiver reads from here on.
    pub fn quick_acks(&mut self, quick: bool) {
        self.quick_acks.store(quick, Ordering::SeqCst);
        set_ack_mode(self.writer.get_ref(), quick);
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn write(&mut self, payload: &str) -> Result<(), String> {
        self.sent += 1;
        protocol::write_frame(&mut self.writer, payload).map_err(|e| format!("send: {e}"))
    }

    fn replies(&self) -> usize {
        self.inbox.0.lock().expect(POISONED).by_id.len()
    }

    /// Blocks until the reply to `id` arrives; returns its frame index.
    fn wait_reply(&self, id: u64, deadline: Instant) -> Result<usize, String> {
        let (lock, cvar) = &*self.inbox;
        let mut inbox = lock.lock().expect(POISONED);
        loop {
            if let Some(&i) = inbox.by_id.get(&id) {
                return Ok(i);
            }
            if inbox.closed {
                return Err(format!("connection closed before reply {id}"));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("reply {id} timed out"));
            }
            inbox = cvar.wait_timeout(inbox, deadline - now).expect(POISONED).0;
        }
    }

    /// One synchronous request (set-up, barriers and oracle reads; never
    /// timed as load).
    pub fn call(&mut self, body: RequestBody) -> Result<ResponseBody, String> {
        let id = self.take_id();
        let payload = serde_json::to_string(&Request { id, body }).map_err(|e| e.to_string())?;
        self.write(&payload)?;
        let i = self.wait_reply(id, Instant::now() + REPLY_TIMEOUT)?;
        let payload = self.inbox.0.lock().expect(POISONED).frames[i]
            .payload
            .clone();
        let response: Response = serde_json::from_str(&payload).map_err(|e| e.to_string())?;
        match response.body {
            ResponseBody::Error { kind, message } => Err(format!("{kind:?}: {message}")),
            body => Ok(body),
        }
    }

    /// Sends the plan's ops: open-loop ops at `start + due` with delayed
    /// ACKs, saturation ops with quick ACKs whenever fewer than
    /// [`SATURATION_DEPTH`] requests are in flight.  Returns once every reply
    /// has arrived or timed out.
    pub fn drive(&mut self, plan: &Plan, start: Instant) -> Result<Vec<Sent>, String> {
        let first_id = self.next_id;
        let payloads = plan.request_payloads(first_id);
        self.next_id += payloads.len() as u64;
        let mut sent = Vec::with_capacity(payloads.len());
        for (i, (op, payload)) in plan.ops.iter().zip(&payloads).enumerate() {
            let due = if op.saturation {
                self.wait_in_flight_below(SATURATION_DEPTH)?;
                Instant::now()
            } else {
                let due = start + Duration::from_secs_f64(op.due);
                wait_until(due);
                due
            };
            self.quick_acks(op.saturation);
            let backlog = self.sent - self.replies();
            let at = Instant::now();
            self.write(payload)?;
            sent.push(Sent {
                op: i,
                id: first_id + i as u64,
                due,
                sent: at,
                backlog,
            });
        }
        let deadline = Instant::now() + REPLY_TIMEOUT;
        for s in &sent {
            // A lost reply is recorded as missing by the caller, not fatal.
            let _ = self.wait_reply(s.id, deadline);
        }
        Ok(sent)
    }

    fn wait_in_flight_below(&self, depth: usize) -> Result<(), String> {
        let (lock, cvar) = &*self.inbox;
        let mut inbox = lock.lock().expect(POISONED);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while self.sent - inbox.by_id.len() >= depth {
            if inbox.closed {
                return Err("connection closed during the saturation phase".to_string());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err("saturation phase stalled".to_string());
            }
            inbox = cvar.wait_timeout(inbox, deadline - now).expect(POISONED).0;
        }
        Ok(())
    }

    /// Moves every frame received so far out of the connection.
    pub fn take_frames(&mut self) -> Vec<Frame> {
        let mut inbox = self.inbox.0.lock().expect(POISONED);
        inbox.by_id.clear();
        self.sent = 0;
        std::mem::take(&mut inbox.frames)
    }

    /// Closes the socket and joins the receiver.
    pub fn close(mut self) {
        let _ = self.writer.get_ref().shutdown(std::net::Shutdown::Both);
        if let Some(r) = self.receiver.take() {
            let _ = r.join();
        }
    }
}

fn receive(stream: TcpStream, inbox: Shared, quick_acks: Arc<AtomicBool>) {
    let mut reader = BufReader::new(stream);
    loop {
        set_ack_mode(reader.get_ref(), quick_acks.load(Ordering::SeqCst));
        let frame = protocol::read_frame(&mut reader);
        let at = Instant::now();
        let (lock, cvar) = &*inbox;
        let mut guard = lock.lock().expect(POISONED);
        match frame {
            Ok(Some(payload)) => {
                let reply_to = reply_id(&payload);
                let bytes = payload.len().to_string().len() + payload.len() + 2;
                let index = guard.frames.len();
                if let Some(id) = reply_to {
                    guard.by_id.insert(id, index);
                }
                guard.frames.push(Frame {
                    at,
                    bytes,
                    reply_to,
                    payload,
                });
            }
            _ => {
                guard.closed = true;
                cvar.notify_all();
                return;
            }
        }
        cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_told_apart_from_events_by_prefix() {
        assert_eq!(reply_id("{\"id\":42,\"reply\":\"applied\"}"), Some(42));
        assert_eq!(reply_id("{\"subscription\":0,\"query\":1}"), None);
    }
}
