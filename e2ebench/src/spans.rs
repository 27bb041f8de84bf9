//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer of the program. Each span has a name (`<layer>.<what>`),
//! start, end, parent span and a request/cell id. Hot leaf calls (one
//! scheduler decision, one frame encode) are folded into per-(parent, name)
//! count/duration aggregates instead of one record each, which keeps the
//! recorder's memory bounded; a leaf's time still counts as covered time
//! of its parent. At exit the spans are written out as JSON lines and each
//! layer's self time is computed as span time minus the time its child
//! spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Folded leaf calls: (parent span, name) → (count, total ns).
type LeafTable = BTreeMap<(u64, &'static str), (u64, u64)>;
static LEAVES: Mutex<LeafTable> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static LOCAL_LEAVES: RefCell<Vec<(u64, &'static str, u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span; times are ns since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub item: u64,
    pub start: u64,
    pub end: u64,
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off; spans opened while off are inert.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread (0 = none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    item: u64,
    start: u64,
}

impl Guard {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str, item: u64) -> Guard {
    span_under(current(), name, item)
}

/// Opens a span under an explicit parent (a span of another thread).
pub fn span_under(parent: u64, name: &'static str, item: u64) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent,
            name,
            item,
            start: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        item,
        start: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.remove(pos);
            }
        });
        // Flush this span's folded leaves into the shared table.
        let mine: Vec<(u64, &'static str, u64, u64)> = LOCAL_LEAVES.with(|l| {
            let mut l = l.borrow_mut();
            let (mine, rest): (Vec<_>, Vec<_>) = l.drain(..).partition(|e| e.0 == self.id);
            *l = rest;
            mine
        });
        if !mine.is_empty() {
            let mut leaves = LEAVES.lock().expect("leaf table poisoned");
            for (parent, name, count, ns) in mine {
                let e = leaves.entry((parent, name)).or_insert((0, 0));
                e.0 += count;
                e.1 += ns;
            }
        }
        SPANS.lock().expect("span table poisoned").push(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            item: self.item,
            start: self.start,
            end,
        });
    }
}

/// Folds one hot leaf call of `ns` into the innermost open span.
pub fn leaf(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    let parent = current();
    LOCAL_LEAVES.with(|l| {
        let mut l = l.borrow_mut();
        match l.iter_mut().find(|e| e.0 == parent && e.1 == name) {
            Some(e) => {
                e.2 += 1;
                e.3 += ns;
            }
            None => l.push((parent, name, 1, ns)),
        }
    });
}

/// Drops everything recorded so far.
pub fn reset() {
    SPANS.lock().expect("span table poisoned").clear();
    LEAVES.lock().expect("leaf table poisoned").clear();
}

/// Per-layer self times of everything recorded.
#[derive(Debug, Default, Clone)]
pub struct Split {
    /// Layer (span-name prefix) → (self ns, span + leaf count).
    pub layers: BTreeMap<String, (u64, u64)>,
}

impl Split {
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |l| l.0)
    }

    /// Σ self time of every span: the traced thread time.
    pub fn total_ns(&self) -> u64 {
        self.layers.values().map(|l| l.0).sum()
    }

    /// Busy thread time: everything but explicit waits (`idle.*`).
    pub fn busy_ns(&self) -> u64 {
        self.total_ns() - self.self_ns("idle")
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Computes each span's self time (duration minus the union of its
/// children's intervals and its folded leaves) and sums it per layer.
pub fn split() -> Split {
    let spans = SPANS.lock().expect("span table poisoned").clone();
    let leaves = LEAVES.lock().expect("leaf table poisoned").clone();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut leaf_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Split::default();
    for (&(parent, name), &(count, ns)) in &leaves {
        *leaf_ns.entry(parent).or_default() += ns;
        let e = out.layers.entry(layer_of(name).to_string()).or_default();
        e.0 += ns;
        e.1 += count;
    }
    for s in &spans {
        let mut iv: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|c| {
                c.iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        covered += leaf_ns.get(&s.id).copied().unwrap_or(0);
        let dur = s.end - s.start;
        let e = out.layers.entry(layer_of(s.name).to_string()).or_default();
        e.0 += dur.saturating_sub(covered);
        e.1 += 1;
    }
    out
}

/// Writes every span and folded leaf as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let spans = SPANS.lock().expect("span table poisoned").clone();
    let leaves = LEAVES.lock().expect("leaf table poisoned").clone();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            w,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.item, s.start, s.end
        )?;
    }
    for ((parent, name), (count, ns)) in &leaves {
        writeln!(
            w,
            "{{\"leaf\":\"{name}\",\"parent\":{parent},\"count\":{count},\"total_ns\":{ns}}}"
        )?;
    }
    w.flush()
}
