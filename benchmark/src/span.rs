//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `name, start, end, parent, id`: the parent is the span open
//! on the same thread when this one began, and the id groups the spans of
//! one sample, request or batch. Recording is off unless the run is
//! traced; then every span is kept until the run ends and written out as
//! a Chrome trace plus a self-time table.

use crate::json::{obj, Json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
    pub thread: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_number() -> u64 {
    // ThreadId has no stable integer accessor; its Debug form is
    // `ThreadId(N)`.
    let text = format!("{:?}", std::thread::current().id());
    text.trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .unwrap_or(0)
}

/// Switches recording on or off (off at start).
pub fn set_enabled(on: bool) {
    now_ns();
    // relaxed: spans opened around the switch are simply kept or not.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped; inert when recording is off.
pub struct Guard(Option<usize>);

/// Opens a span; `id` names the sample, request or batch it belongs to.
pub fn span(name: &'static str, id: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let record = Span {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        id,
        thread: thread_number(),
    };
    let index = {
        let mut spans = SPANS.lock().expect("no span holder panics");
        spans.push(record);
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(index));
    Guard(Some(index))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        let end = now_ns();
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if open.last() == Some(&index) {
                open.pop();
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            if let Some(s) = spans.get_mut(index) {
                s.end_ns = end;
            }
        }
    }
}

/// Times `f` under a span and returns its result with the seconds it took.
pub fn timed<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let guard = span(name, id);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    drop(guard);
    (out, secs)
}

/// Everything recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().expect("no span holder panics").clone()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        }
    }
    own
}

/// Self time (span minus children) and totals by span name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let own = self_times(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, own_s) in spans.iter().zip(own) {
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_s += s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        row.self_s += own_s;
    }
    rows
}

/// For the chain spans called `chain`: each descendant layer's self time
/// as a share of the chains' total duration. The chain's own self time
/// (glue between calls) is reported under the chain's name, so the shares
/// sum to 1 by construction and the interesting number is how little is
/// left under that name.
pub fn layer_shares(spans: &[Span], chain: &str) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let root_of = |mut i: usize| loop {
        if spans[i].name == chain {
            return Some(i);
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return None,
        }
    };
    let mut total = 0.0;
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if root_of(i).is_none() {
            continue;
        }
        if s.name == chain {
            total += s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        }
        *by_name.entry(s.name).or_default() += own[i];
    }
    if total > 0.0 {
        for v in by_name.values_mut() {
            *v /= total;
        }
    }
    by_name
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
/// events in microseconds, one track per thread, with the span's id and
/// parent index under `args`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            obj([
                ("name", Json::Str(s.name.to_string())),
                ("ph", Json::Str("X".to_string())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur",
                    Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.thread as f64)),
                (
                    "args",
                    obj([
                        ("span", Json::Num(i as f64)),
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_shares_sum_to_one() {
        let s = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
            thread: 1,
        };
        let spans = vec![
            s("chain", 0, 1_000_000_000, None),
            s("a", 0, 400_000_000, Some(0)),
            s("b", 400_000_000, 900_000_000, Some(0)),
            s("inner", 500_000_000, 600_000_000, Some(2)),
            s("elsewhere", 0, 5, None),
        ];
        let table = layer_table(&spans);
        assert!((table["chain"].self_s - 0.1).abs() < 1e-9);
        assert!((table["b"].self_s - 0.4).abs() < 1e-9);
        let shares = layer_shares(&spans, "chain");
        assert!(!shares.contains_key("elsewhere"));
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((shares["inner"] - 0.1).abs() < 1e-9);
    }
}
