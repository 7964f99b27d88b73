//! ASCII space-time diagrams of executions — Figure 2(b)-style output for
//! docs, examples, and debugging ("why didn't the predicate fire?").
//!
//! Events are placed on a causally consistent horizontal axis: an event's
//! column is the size of its causal past (the sum of its vector-clock
//! components), so `e ≺ f` always renders `e` strictly left of `f`, while
//! concurrent events may share a column. Intervals appear as `█` runs.
//!
//! ```text
//! P0 ·───████████████████████───  (1 interval)
//! P1 ·──████──────████──────────  (2 intervals)
//! ```

use crate::execution::Execution;
use ftscp_intervals::IntervalRef;
use ftscp_vclock::{ProcessId, VectorClock};

/// Column of an event: |causal past| = Σ components of its stamp.
fn col(vc: &VectorClock) -> usize {
    vc.components().iter().map(|&c| c as usize).sum()
}

/// Options for [`render`].
#[derive(Clone, Debug)]
pub struct DiagramOptions {
    /// Maximum diagram width in columns (the time axis is scaled down to
    /// fit); 0 = unscaled.
    pub max_width: usize,
    /// Mark the member intervals of these solutions with digits (solution
    /// 0 → `0`, …); intervals in no solution stay `█`.
    pub highlight: Vec<Vec<IntervalRef>>,
}

impl Default for DiagramOptions {
    fn default() -> Self {
        DiagramOptions {
            max_width: 100,
            highlight: Vec::new(),
        }
    }
}

/// Renders the execution as one row per process.
pub fn render(exec: &Execution, opts: &DiagramOptions) -> String {
    let events = exec.events();
    let raw_width = events
        .iter()
        .flatten()
        .map(|e| col(&e.vc))
        .max()
        .unwrap_or(0)
        + 1;
    let scale = if opts.max_width > 0 && raw_width > opts.max_width {
        raw_width as f64 / opts.max_width as f64
    } else {
        1.0
    };
    let width = ((raw_width as f64 / scale).ceil() as usize).max(1);
    let c = |vc: &VectorClock| ((col(vc) as f64 / scale) as usize).min(width - 1);

    let mut out = String::new();
    for (p, history) in events.iter().enumerate() {
        let pid = ProcessId(p as u32);
        let mut row: Vec<char> = vec!['─'; width];
        // Event ticks.
        for e in history {
            row[c(&e.vc)] = '·';
        }
        // Intervals as solid runs; highlighted ones get the solution digit.
        for iv in exec.intervals_of(pid) {
            let glyph = opts
                .highlight
                .iter()
                .position(|sol| {
                    sol.contains(&IntervalRef {
                        process: pid,
                        seq: iv.seq,
                    })
                })
                .map(|i| char::from_digit((i % 10) as u32, 10).expect("digit"))
                .unwrap_or('█');
            let (a, b) = (c(&iv.lo), c(&iv.hi));
            for cell in row.iter_mut().take(b + 1).skip(a) {
                *cell = glyph;
            }
        }
        out.push_str(&format!(
            "P{p:<3}{}  ({} interval{})\n",
            row.iter().collect::<String>(),
            exec.intervals_of(pid).len(),
            if exec.intervals_of(pid).len() == 1 {
                ""
            } else {
                "s"
            },
        ));
    }
    out
}

/// Convenience: default options.
pub fn render_default(exec: &Execution) -> String {
    render(exec, &DiagramOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ExecutionBuilder;
    use crate::scenarios;

    #[test]
    fn one_row_per_process() {
        let exec = scenarios::figure2();
        let d = render_default(&exec);
        assert_eq!(d.lines().count(), 4);
        for (i, line) in d.lines().enumerate() {
            assert!(line.starts_with(&format!("P{i}")));
        }
    }

    #[test]
    fn intervals_render_as_runs() {
        let mut b = ExecutionBuilder::new(1);
        let p = ProcessId(0);
        b.internal(p);
        b.begin_interval(p);
        b.internal(p);
        b.end_interval(p);
        b.internal(p);
        let exec = b.finish();
        let d = render_default(&exec);
        assert!(d.contains("██"), "interval shown as a solid run: {d}");
        assert!(d.contains("(1 interval)"));
    }

    #[test]
    fn causal_order_is_left_to_right() {
        let mut b = ExecutionBuilder::new(2);
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        b.begin_interval(p0);
        b.end_interval(p0);
        let m = b.send(p0, p1);
        b.recv(p1, m);
        b.begin_interval(p1);
        b.end_interval(p1);
        let exec = b.finish();
        let d = render_default(&exec);
        let lines: Vec<&str> = d.lines().collect();
        // P0's run ends strictly left of P1's run start.
        let p0_end = lines[0].rfind('█').unwrap();
        let p1_start = lines[1].find('█').unwrap();
        assert!(
            p0_end < p1_start,
            "causally later interval further right:\n{d}"
        );
    }

    #[test]
    fn highlight_marks_solution_members() {
        let exec = scenarios::figure2();
        // Highlight the {x1, x3} solution (P0#0 and P1#1).
        let opts = DiagramOptions {
            max_width: 120,
            highlight: vec![vec![
                IntervalRef {
                    process: ProcessId(0),
                    seq: 0,
                },
                IntervalRef {
                    process: ProcessId(1),
                    seq: 1,
                },
            ]],
        };
        let d = render(&exec, &opts);
        assert!(
            d.contains('0'),
            "highlighted members use the solution digit"
        );
        assert!(d.contains('█'), "non-members stay solid");
    }

    #[test]
    fn wide_executions_scale_to_max_width() {
        let exec = crate::random::RandomExecution::builder(3)
            .intervals_per_process(30)
            .seed(1)
            .build();
        let d = render(
            &exec,
            &DiagramOptions {
                max_width: 60,
                highlight: Vec::new(),
            },
        );
        for line in d.lines() {
            assert!(line.chars().count() < 90, "scaled to width: {}", line.len());
        }
    }
}
