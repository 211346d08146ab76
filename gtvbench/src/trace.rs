//! Spans recorded from outside the program: around the benchmark's own
//! calls into each layer, and — through [`TracedTransport`] — around every
//! transport call the trainer makes inside a round.
//!
//! Spans stay in memory and are written out once, at exit. All of them are
//! opened on the thread that drives the workload, so the open-span stack
//! gives each span its parent.

use crate::stats;
use gtv_vfl::{Message, NetStats, PartyId, Transport, TransportError, WireCodec};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Span names of the transport seam.
pub const SEND: &str = "vfl.send";
pub const SEND_ALL: &str = "vfl.send_all";
pub const RECV: &str = "vfl.recv";
/// Span name of one `GtvTrainer::train_round` call.
pub const ROUND: &str = "core.train_round";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// Id of the span that was open when this one started.
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Message kind for a transport span, request class for a serve span.
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Rc<Self> {
        Rc::new(Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` returns its value and the span's tag
    /// (known only afterwards for a receive).
    pub fn span_tagged<R>(&self, name: &'static str, f: impl FnOnce() -> (R, String)) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.open.borrow().last().copied();
            let start_ns = self.now_ns();
            spans.push(Span { id, parent, name, tag: String::new(), start_ns, end_ns: start_ns });
            id
        };
        self.open.borrow_mut().push(id);
        let (value, tag) = f();
        self.open.borrow_mut().pop();
        let end_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = end_ns;
        spans[id].tag = tag;
        value
    }

    pub fn span<R>(&self, name: &'static str, tag: &str, f: impl FnOnce() -> R) -> R {
        self.span_tagged(name, || (f(), tag.to_string()))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// One JSON object per line: `{id, parent, name, tag, start_ns, end_ns}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.tag, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Calls `f` inside a span when tracing, plainly otherwise.
pub fn maybe_span<R>(
    tracer: Option<&Rc<Tracer>>,
    name: &'static str,
    tag: &str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, tag, f),
        None => f(),
    }
}

/// Self time of `span`: its duration minus the part of it that its direct
/// children cover (overlapping children are not counted twice).
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.dur_ns() - covered
}

/// Where one round's wall time went, in nanoseconds. The three steps and
/// the three kinds are two splits of the same wall: each sums to `wall`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundSplit {
    pub wall: u64,
    /// Round start up to the second `RoundStart` fan-out: the
    /// discriminator step, which carries `RealLogits`.
    pub d_step: u64,
    /// Second `RoundStart` fan-out to the end of the last transport call.
    pub g_step: u64,
    /// Last transport call until `train_round` returns: client backward,
    /// optimizer steps and the end-of-round shuffle.
    pub tail: u64,
    pub send: u64,
    pub recv: u64,
    /// Round self time: wall minus its transport children.
    pub compute: u64,
    /// `[step][kind]` with steps d/g/tail and kinds compute/send/recv.
    pub table: [[u64; 3]; 3],
}

/// Splits every [`ROUND`] span by its transport children. A step boundary
/// is a `RoundStart` sent to the first client, which opens the fan-out of
/// both schedules (one `send_all`, or the first of the lockstep `send`s).
pub fn round_splits(all: &[Span]) -> Vec<RoundSplit> {
    all.iter()
        .filter(|s| s.name == ROUND)
        .map(|round| {
            let kids: Vec<&Span> = all.iter().filter(|s| s.parent == Some(round.id)).collect();
            let starts: Vec<u64> =
                kids.iter().filter(|s| s.tag == "RoundStart>0").map(|s| s.start_ns).collect();
            let last_end = kids.iter().map(|s| s.end_ns).max().unwrap_or(round.start_ns);
            // With one discriminator step the second boundary opens the
            // generator step; with none seen the whole round is one step.
            let g_start = starts.last().copied().filter(|_| starts.len() > 1).unwrap_or(last_end);
            let bounds = [round.start_ns, g_start, last_end, round.end_ns];
            let mut table = [[0u64; 3]; 3];
            for (step, row) in table.iter_mut().enumerate() {
                let (lo, hi) = (bounds[step], bounds[step + 1]);
                for kid in kids.iter().filter(|k| k.start_ns >= lo && k.start_ns < hi) {
                    row[if kid.name == RECV { 2 } else { 1 }] += kid.dur_ns();
                }
                row[0] = (hi - lo) - row[1] - row[2];
            }
            let kind = |k: usize| table.iter().map(|row| row[k]).sum::<u64>();
            RoundSplit {
                wall: round.dur_ns(),
                d_step: bounds[1] - bounds[0],
                g_step: bounds[2] - bounds[1],
                tail: bounds[3] - bounds[2],
                send: kind(1),
                recv: kind(2),
                compute: self_ns(round, all),
                table,
            }
        })
        .collect()
}

/// Median over rounds of one field, in milliseconds.
pub fn median_ms(splits: &[RoundSplit], field: impl Fn(&RoundSplit) -> u64) -> f64 {
    stats::median(&splits.iter().map(|s| field(s) as f64 / 1e6).collect::<Vec<_>>())
}

/// A [`Transport`] that records one span per call and otherwise hands
/// everything to the backend it wraps, `send_all` included, so the
/// backend's parallel payload encoding is kept.
#[derive(Debug)]
pub struct TracedTransport<T: Transport> {
    inner: T,
    tracer: Rc<Tracer>,
}

impl<T: Transport> TracedTransport<T> {
    pub fn new(inner: T, tracer: Rc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

/// `kind>client` for a message to a client, so that a step boundary can be
/// told from the rest of its fan-out; the bare kind otherwise.
fn send_tag(to: PartyId, msg: &Message) -> String {
    match to {
        PartyId::Client(i) => format!("{}>{i}", msg.kind()),
        _ => msg.kind().to_string(),
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&self, from: PartyId, to: PartyId, msg: Message) -> Result<(), TransportError> {
        let tag = send_tag(to, &msg);
        self.tracer.span_tagged(SEND, || (self.inner.send(from, to, msg), tag))
    }

    fn send_all(&self, msgs: Vec<(PartyId, PartyId, Message)>) -> Result<(), TransportError> {
        let tag = msgs.first().map_or(String::new(), |(_, to, msg)| send_tag(*to, msg));
        self.tracer.span_tagged(SEND_ALL, || (self.inner.send_all(msgs), tag))
    }

    fn try_recv(&self, party: PartyId) -> Result<(PartyId, Message), TransportError> {
        self.inner.try_recv(party)
    }

    fn recv_timeout(
        &self,
        party: PartyId,
        timeout: Duration,
    ) -> Result<(PartyId, Message), TransportError> {
        self.tracer.span_tagged(RECV, || {
            let got = self.inner.recv_timeout(party, timeout);
            let tag = got.as_ref().map_or("error", |(_, msg)| msg.kind()).to_string();
            (got, tag)
        })
    }

    fn recv_timeout_bound(&self) -> Duration {
        self.inner.recv_timeout_bound()
    }

    fn set_recv_timeout(&self, timeout: Duration) {
        self.inner.set_recv_timeout(timeout);
    }

    fn codec(&self) -> WireCodec {
        self.inner.codec()
    }

    fn set_codec(&self, codec: WireCodec) {
        self.inner.set_codec(codec);
    }

    fn begin_round(&self, round: u64) {
        self.inner.begin_round(round);
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtv::{GtvConfig, GtvTrainer, InProcTransport};
    use gtv_data::Dataset;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        tag: &str,
        a: u64,
        b: u64,
    ) -> Span {
        Span { id, parent, name, tag: tag.to_string(), start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_with_nested_adjacent_and_overlapping_children() {
        let all = vec![
            span(0, None, "root", "", 0, 100),
            span(1, Some(0), "a", "", 10, 30),
            span(2, Some(0), "b", "", 30, 40), // adjacent to a
            span(3, Some(1), "a.inner", "", 12, 28), // grandchild: not root's
            span(4, Some(0), "c", "", 35, 50), // overlaps b by 5
        ];
        assert_eq!(self_ns(&all[0], &all), 100 - (20 + 10 + 10));
        assert_eq!(self_ns(&all[1], &all), 20 - 16);
        assert_eq!(self_ns(&all[3], &all), 16);
    }

    #[test]
    fn round_split_sums_to_the_wall_both_ways() {
        let all = vec![
            span(0, None, ROUND, "", 0, 1000),
            span(1, Some(0), SEND_ALL, "RoundStart>0", 50, 60),
            span(2, Some(0), RECV, "RoundStart", 60, 70),
            span(3, Some(0), SEND_ALL, "RealLogits", 200, 260),
            span(4, Some(0), SEND_ALL, "RoundStart>0", 400, 410),
            span(5, Some(0), RECV, "GradGenSlice", 600, 700),
        ];
        let splits = round_splits(&all);
        assert_eq!(splits.len(), 1);
        let s = splits[0];
        assert_eq!((s.d_step, s.g_step, s.tail), (400, 300, 300));
        assert_eq!(s.d_step + s.g_step + s.tail, s.wall);
        assert_eq!((s.send, s.recv, s.compute), (80, 110, 810));
        assert_eq!(s.compute + s.send + s.recv, s.wall);
        assert_eq!(s.table[0], [320, 70, 10]);
        assert_eq!(s.table[1], [190, 10, 100]);
        assert_eq!(s.table[2], [300, 0, 0]);
    }

    #[test]
    fn tracer_nests_spans_and_writes_jsonl() {
        let tracer = Tracer::new();
        tracer.span("outer", "", || {
            tracer.span("inner", "x", || ());
            tracer.span_tagged("late", || ((), "tagged-after".to_string()));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].tag, "tagged-after");
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let lines: Vec<String> = tracer.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"parent\":null") && lines[1].contains("\"parent\":0"));
    }

    fn smoke_shards() -> Vec<gtv_data::Table> {
        let table = Dataset::Loan.generate(120, 3);
        let n = table.n_cols();
        table.vertical_split(&[(0..n / 2).collect(), (n / 2..n).collect()])
    }

    /// The wrapper must be invisible: same weights, same byte accounting.
    #[test]
    fn traced_training_equals_untraced_training() {
        let mut plain = GtvTrainer::new(smoke_shards(), GtvConfig::smoke());
        let tracer = Tracer::new();
        let traced_net = TracedTransport::new(InProcTransport::new(2), Rc::clone(&tracer));
        let mut traced = GtvTrainer::with_transport(smoke_shards(), GtvConfig::smoke(), traced_net)
            .expect("seed negotiation");
        for _ in 0..3 {
            plain.train_round().expect("plain round");
            tracer.span(ROUND, "", || traced.train_round()).expect("traced round");
        }
        assert_eq!(plain.save_weights(), traced.save_weights());
        assert_eq!(plain.network_stats(), traced.network_stats());

        let spans = tracer.spans();
        let splits = round_splits(&spans);
        assert_eq!(splits.len(), 3);
        for s in &splits {
            assert!(s.send > 0 && s.recv > 0 && s.d_step > 0 && s.g_step > 0 && s.tail > 0);
            assert_eq!(s.d_step + s.g_step + s.tail, s.wall);
            assert_eq!(s.compute + s.send + s.recv, s.wall);
        }
        // The discriminator step is the one that carries the real logits.
        let round0 = spans.iter().find(|s| s.name == ROUND).expect("a round span");
        let g_start = round0.start_ns + splits[0].d_step;
        let real = spans
            .iter()
            .find(|s| s.parent == Some(round0.id) && s.tag.starts_with("RealLogits"))
            .expect("a RealLogits message in the round");
        assert!(real.start_ns < g_start);
    }
}
