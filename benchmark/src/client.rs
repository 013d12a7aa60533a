//! The load generator's side of the wire: a keep-alive HTTP/1.1 client
//! over `std::net`, and the open-loop schedule arithmetic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a response may take before the run fails instead of
/// hanging past the harness's deadline.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Attempts a polling socket makes before it gives a response up for
/// lost: at a microsecond or so per empty `read`, a minute or two.
const SPIN_LIMIT: u64 = 100_000_000;

/// The socket, read either by blocking or by polling. A polling end
/// never sleeps in the kernel: it stays on its core, so the scheduler
/// has one placement left for the server's thread and the round trip
/// does not depend on which of two it happened to pick.
struct Wire {
    stream: TcpStream,
    poll: bool,
}

impl Wire {
    /// Retries `op` while a polling socket has nothing for it.
    fn spin<T>(
        &mut self,
        mut op: impl FnMut(&mut TcpStream) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        if !self.poll {
            return op(&mut self.stream);
        }
        // The hang guard counts attempts instead of reading a clock:
        // cascade-lint resolves calls by name, and a clock read inside
        // a method called `read` would taint every `.read()` in the
        // crates whose determinism it checks.
        for _ in 0..SPIN_LIMIT {
            match op(&mut self.stream) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                done => return done,
            }
        }
        Err(std::io::ErrorKind::TimedOut.into())
    }
}

impl Read for Wire {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.spin(|stream| stream.read(buf))
    }
}

impl Write for Wire {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.spin(|stream| stream.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// A keep-alive connection issuing one request at a time.
pub struct Client {
    wire: Wire,
    reader: BufReader<Wire>,
}

impl Client {
    /// Connects to `addr` with Nagle off (requests are written whole).
    /// A `poll`ing client spins on a non-blocking socket; the other
    /// kind blocks in `read`.
    ///
    /// # Errors
    ///
    /// Any connect failure.
    pub fn connect(addr: SocketAddr, poll: bool) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        // The flag lives on the socket, so the clone below shares it.
        stream.set_nonblocking(poll)?;
        let reader = BufReader::new(Wire {
            stream: stream.try_clone()?,
            poll,
        });
        Ok(Client {
            wire: Wire { stream, poll },
            reader,
        })
    }

    /// Sends one request and reads the response: `(status, body)`.
    ///
    /// # Errors
    ///
    /// Transport failures and responses this client cannot parse.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let head = format!(
            "{} {} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            method,
            path,
            body.len()
        );
        // One write per request, for the reason the server writes its
        // responses whole: split segments meet Nagle and delayed ACK.
        let mut message = Vec::with_capacity(head.len() + body.len());
        message.extend_from_slice(head.as_bytes());
        message.extend_from_slice(body.as_bytes());
        self.wire.write_all(&message)?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code in response"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside response headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("non-numeric content-length"))?;
                }
            }
        }
        let mut payload = vec![0u8; content_length];
        self.reader.read_exact(&mut payload)?;
        String::from_utf8(payload)
            .map(|text| (status, text))
            .map_err(|_| bad("response body is not UTF-8"))
    }
}

/// An open-loop schedule: request `i` is due `i` periods after the
/// phase starts, whatever happened to the requests before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenLoop {
    period_ns: u64,
}

impl OpenLoop {
    /// A schedule sending `rate` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    pub fn at_rate(rate: f64) -> OpenLoop {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        OpenLoop {
            period_ns: (1e9 / rate).round().max(1.0) as u64,
        }
    }

    /// When request `i` is due, in nanoseconds after the phase start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// How many requests fall due strictly before `duration_ns`.
    pub fn planned(&self, duration_ns: u64) -> u64 {
        duration_ns.div_ceil(self.period_ns)
    }
}

/// One open-loop request, in nanoseconds after the phase start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When the schedule wanted it sent.
    pub due_ns: u64,
    /// When the generator sent it.
    pub sent_ns: u64,
    /// When the full response had arrived.
    pub done_ns: u64,
}

impl Sample {
    /// Latency from the *due* time: the wait a stall imposed on this
    /// request counts, not only its own service time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// The clock an open loop runs against: the wall clock in a run, a
/// virtual one in the tests.
pub trait LoopClock {
    /// Nanoseconds since the phase started.
    fn now_ns(&self) -> u64;
    /// Blocks until `due_ns`; returns at once when it has passed.
    fn wait_until_ns(&self, due_ns: u64);
}

/// How long before a due time the generator stops sleeping and spins.
const SPIN_WINDOW: Duration = Duration::from_micros(300);

/// The wall clock, counted from the phase start.
pub struct WallClock(pub Instant);

impl LoopClock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps to within [`SPIN_WINDOW`] of the due time, then spins, so
    /// the send is not at the mercy of the timer slack.
    fn wait_until_ns(&self, due_ns: u64) {
        let due = self.0 + Duration::from_nanos(due_ns);
        loop {
            let now = Instant::now();
            if now >= due {
                return;
            }
            let left = due - now;
            if left > SPIN_WINDOW {
                std::thread::sleep(left - SPIN_WINDOW);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Sends requests `0..count` on `schedule` over one connection, one in
/// flight at a time: each goes out when it is due, or as soon as the
/// previous response is in if that is later, and is timed from its due
/// time either way.
pub fn run_open_loop(
    schedule: OpenLoop,
    count: u64,
    clock: &impl LoopClock,
    mut send: impl FnMut(u64),
) -> Vec<Sample> {
    (0..count)
        .map(|i| {
            let due_ns = schedule.due_ns(i);
            clock.wait_until_ns(due_ns);
            let sent_ns = clock.now_ns();
            send(i);
            Sample {
                due_ns,
                sent_ns,
                done_ns: clock.now_ns(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when the loop waits or a send takes time.
    struct Virtual(std::cell::Cell<u64>);

    impl LoopClock for Virtual {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }

        fn wait_until_ns(&self, due_ns: u64) {
            self.0.set(self.0.get().max(due_ns));
        }
    }

    fn replay(schedule: OpenLoop, service_ns: &[u64]) -> Vec<Sample> {
        let clock = Virtual(std::cell::Cell::new(0));
        run_open_loop(schedule, service_ns.len() as u64, &clock, |i| {
            clock.0.set(clock.0.get() + service_ns[i as usize]);
        })
    }

    #[test]
    fn schedule_is_fixed_by_the_rate_alone() {
        let s = OpenLoop::at_rate(400.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 2_500_000);
        assert_eq!(s.due_ns(4000), 10_000_000_000);
        // 10 s at 400 q/s is 4000 requests; the one due at 10 s is not sent.
        assert_eq!(s.planned(10_000_000_000), 4000);
        assert_eq!(s.planned(10_000_000_001), 4001);
        assert_eq!(s.planned(1), 1);
        assert_eq!(s.planned(0), 0);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        let s = OpenLoop::at_rate(1000.0); // due every 1 ms
                                           // 0.2 ms of service, except request 1 stalls for 3.5 ms.
        let samples = replay(s, &[200_000, 3_500_000, 200_000, 200_000, 200_000, 200_000]);
        let late: Vec<u64> = samples.iter().map(Sample::late_ns).collect();
        let latency: Vec<u64> = samples.iter().map(Sample::latency_ns).collect();
        // Request 1 is on time but slow; 2..4 are sent late behind it and
        // their latency counts the queueing, not just 0.2 ms of service.
        assert_eq!(late, vec![0, 0, 2_500_000, 1_700_000, 900_000, 100_000]);
        assert_eq!(
            latency,
            vec![200_000, 3_500_000, 2_700_000, 1_900_000, 1_100_000, 300_000]
        );
        // A closed loop would have reported 0.2 ms for all but request 1.
        assert!(latency[2] > 10 * 200_000);
    }

    #[test]
    fn samples_never_underflow() {
        let early = Sample {
            due_ns: 10,
            sent_ns: 9,
            done_ns: 9,
        };
        assert_eq!(early.late_ns(), 0);
        assert_eq!(early.latency_ns(), 0);
    }
}
