//! Spans of the traced run. The benchmark records them itself, around
//! its calls into each layer; they stay in memory during the window and
//! are written to `benchmark/out/trace-<workload>.json` afterwards.

use std::path::Path;

use crate::json::Json;

/// No server / group / parent.
pub const NONE: u32 = u32::MAX;

/// One timed call into a layer. `parent` indexes the span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Spans of one request share its arrival index.
    pub request: u64,
    pub server: u32,
    pub group: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Parents each orphan span named in `child_names` to a span named
/// `parent_name` of the same group whose interval contains it (the first
/// such by start time), patching `request` to the parent's. Spans with
/// no containing parent stay orphans.
pub fn adopt(spans: &mut [Span], parent_name: &str, child_names: &[&str]) {
    let mut parents: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == parent_name)
        .collect();
    parents.sort_by_key(|&i| spans[i].start_ns);
    for c in 0..spans.len() {
        if spans[c].parent != NONE || !child_names.contains(&spans[c].name) {
            continue;
        }
        let (start, end, group) = (spans[c].start_ns, spans[c].end_ns, spans[c].group);
        // Candidates start at or before the child; only a handful of
        // probes are ever open at once, so a short look back suffices.
        let upto = parents.partition_point(|&p| spans[p].start_ns <= start);
        let found = parents[upto.saturating_sub(16)..upto]
            .iter()
            .copied()
            .find(|&p| spans[p].group == group && spans[p].end_ns >= end);
        if let Some(p) = found {
            spans[c].parent = p as u32;
            spans[c].request = spans[p].request;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes the spans as one JSON document.
pub fn write_file(path: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let opt = |v: u32| {
        if v == NONE {
            Json::Null
        } else {
            Json::Num(v as f64)
        }
    };
    let mut write = || -> std::io::Result<()> {
        writeln!(
            out,
            "{{\"workload\": {}, \"clock\": \"ns since run start\", \"spans\": [",
            Json::Str(workload.to_string()).render()
        )?;
        for (i, span) in spans.iter().enumerate() {
            let row = Json::obj([
                ("id", Json::Num(i as f64)),
                ("name", Json::Str(span.name.to_string())),
                ("start", Json::Num(span.start_ns as f64)),
                ("end", Json::Num(span.end_ns as f64)),
                ("parent", opt(span.parent)),
                ("request", Json::Num(span.request as f64)),
                ("server", opt(span.server)),
                ("group", opt(span.group)),
            ]);
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(out, "{}{comma}", row.render())?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}
