//! SVG line charts for [`Figure`] data — paper-style plots (curves
//! with error bars, legend) regenerable from the JSON the experiment
//! binaries persist.
//!
//! Self-contained SVG generation: no plotting dependency, deterministic
//! output (stable colors by series order, fixed layout), so chart files
//! diff cleanly across runs.

use crate::figures::Figure;
use std::fmt::Write as _;

/// Chart geometry.
const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 150.0; // room for the legend
const MARGIN_T: f64 = 44.0;
const MARGIN_B: f64 = 52.0;

/// A fixed, colorblind-friendly palette (Okabe-Ito), cycled by series
/// index so re-renders are stable.
const PALETTE: [&str; 7] = [
    "#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9", "#000000",
];

fn nice_ticks(lo: f64, hi: f64, target: usize) -> Vec<f64> {
    if hi <= lo || !hi.is_finite() || !lo.is_finite() {
        return vec![lo];
    }
    let span = hi - lo;
    let raw = span / target as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let step = [1.0, 2.0, 2.5, 5.0, 10.0]
        .iter()
        .map(|m| m * mag)
        .find(|&s| span / s <= target as f64)
        .unwrap_or(mag * 10.0);
    let first = (lo / step).ceil() * step;
    let mut ticks = Vec::new();
    let mut t = first;
    while t <= hi + 1e-9 * span {
        ticks.push(t);
        t += step;
    }
    ticks
}

fn fmt_num(v: f64) -> String {
    if v.abs() >= 1000.0 || (v.fract().abs() < 1e-9 && v.abs() >= 1.0) {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders `figure` as a standalone SVG line chart with CI error bars.
///
/// Returns the SVG text; callers decide where to write it. Empty
/// figures render an annotated empty frame rather than panicking.
pub fn render_line_chart(figure: &Figure) -> String {
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (0.0f64, f64::NEG_INFINITY);
    for s in &figure.series {
        for &(x, mean, hw) in &s.points {
            x_lo = x_lo.min(x);
            x_hi = x_hi.max(x);
            y_lo = y_lo.min(mean - hw);
            y_hi = y_hi.max(mean + hw);
        }
    }
    if !x_lo.is_finite() {
        x_lo = 0.0;
        x_hi = 1.0;
        y_hi = 1.0;
    }
    if y_hi <= y_lo {
        y_hi = y_lo + 1.0;
    }
    // A touch of headroom.
    let y_pad = (y_hi - y_lo) * 0.06;
    y_hi += y_pad;

    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
    let px = |x: f64| MARGIN_L + (x - x_lo) / (x_hi - x_lo).max(1e-12) * plot_w;
    let py = |y: f64| MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo).max(1e-12) * plot_h;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">"#
    );
    let _ = writeln!(
        svg,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );
    // Title and axis labels.
    let _ = writeln!(
        svg,
        r#"<text x="{:.1}" y="24" text-anchor="middle" font-size="14" font-weight="bold">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        xml_escape(&figure.title)
    );
    let _ = writeln!(
        svg,
        r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        HEIGHT - 12.0,
        xml_escape(&figure.x_label)
    );
    let _ = writeln!(
        svg,
        r#"<text x="16" y="{:.1}" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        xml_escape(&figure.y_label)
    );
    // Grid + ticks.
    for t in nice_ticks(x_lo, x_hi, 6) {
        let x = px(t);
        let _ = writeln!(
            svg,
            r##"<line x1="{x:.1}" y1="{:.1}" x2="{x:.1}" y2="{:.1}" stroke="#ddd"/>"##,
            MARGIN_T,
            MARGIN_T + plot_h
        );
        let _ = writeln!(
            svg,
            r#"<text x="{x:.1}" y="{:.1}" text-anchor="middle">{}</text>"#,
            MARGIN_T + plot_h + 18.0,
            fmt_num(t)
        );
    }
    for t in nice_ticks(y_lo, y_hi, 6) {
        let y = py(t);
        let _ = writeln!(
            svg,
            r##"<line x1="{:.1}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#ddd"/>"##,
            MARGIN_L,
            MARGIN_L + plot_w
        );
        let _ = writeln!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" text-anchor="end">{}</text>"#,
            MARGIN_L - 6.0,
            y + 4.0,
            fmt_num(t)
        );
    }
    // Axes frame.
    let _ = writeln!(
        svg,
        r#"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w:.1}" height="{plot_h:.1}" fill="none" stroke="black"/>"#
    );
    // Curves.
    for (i, s) in figure.series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut d = String::new();
        for (j, &(x, mean, _)) in s.points.iter().enumerate() {
            let _ = write!(
                d,
                "{}{:.1},{:.1} ",
                if j == 0 { "M" } else { "L" },
                px(x),
                py(mean)
            );
        }
        let _ = writeln!(
            svg,
            r#"<path d="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
            d.trim_end()
        );
        for &(x, mean, hw) in &s.points {
            let (cx, cy) = (px(x), py(mean));
            if hw > 0.0 {
                let (y0, y1) = (py(mean - hw), py(mean + hw));
                let _ = writeln!(
                    svg,
                    r#"<line x1="{cx:.1}" y1="{y0:.1}" x2="{cx:.1}" y2="{y1:.1}" stroke="{color}"/>"#
                );
            }
            let _ = writeln!(
                svg,
                r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="3" fill="{color}"/>"#
            );
        }
        // Legend entry.
        let ly = MARGIN_T + 8.0 + i as f64 * 18.0;
        let lx = WIDTH - MARGIN_R + 12.0;
        let _ = writeln!(
            svg,
            r#"<line x1="{lx:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="1.8"/>"#,
            lx + 20.0
        );
        let _ = writeln!(
            svg,
            r#"<text x="{:.1}" y="{:.1}">{}</text>"#,
            lx + 26.0,
            ly + 4.0,
            xml_escape(&s.name)
        );
    }
    svg.push_str("</svg>\n");
    svg
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Figure;
    use crate::stats::Summary;

    fn sample_figure() -> Figure {
        let mut f = Figure::new("t", "Size of CDS vs N", "Number of nodes", "Size of CDS");
        for (series, base) in [("NC-Mesh", 40.0), ("AC-LMST", 28.0), ("G-MST", 25.0)] {
            for (i, n) in [50.0, 100.0, 150.0, 200.0].iter().enumerate() {
                f.push(
                    series,
                    *n,
                    Summary {
                        count: 50,
                        mean: base + i as f64 * 10.0,
                        std: 2.0,
                        half_width: 1.0,
                    },
                );
            }
        }
        f
    }

    #[test]
    fn chart_contains_all_series_and_labels() {
        let svg = render_line_chart(&sample_figure());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        for name in ["NC-Mesh", "AC-LMST", "G-MST"] {
            assert!(svg.contains(name), "missing legend entry {name}");
        }
        assert!(svg.contains("Size of CDS vs N"));
        assert!(svg.contains("Number of nodes"));
        // Three curves -> three <path> elements.
        assert_eq!(svg.matches("<path").count(), 3);
    }

    #[test]
    fn chart_is_deterministic() {
        let f = sample_figure();
        assert_eq!(render_line_chart(&f), render_line_chart(&f));
    }

    #[test]
    fn empty_figure_renders_frame() {
        let f = Figure::new("e", "empty", "x", "y");
        let svg = render_line_chart(&f);
        assert!(svg.contains("<rect"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn escapes_markup_in_titles() {
        let mut f = Figure::new("m", "a < b & c", "x", "y");
        f.push(
            "s<1>",
            1.0,
            Summary {
                count: 1,
                mean: 1.0,
                std: 0.0,
                half_width: 0.0,
            },
        );
        let svg = render_line_chart(&f);
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(svg.contains("s&lt;1&gt;"));
        assert!(!svg.contains("a < b"));
    }

    #[test]
    fn nice_ticks_cover_range() {
        let ticks = nice_ticks(0.0, 100.0, 6);
        assert!(ticks.len() >= 3 && ticks.len() <= 8);
        assert!(ticks.first().copied().unwrap() >= 0.0);
        assert!(ticks.last().copied().unwrap() <= 100.0 + 1e-9);
        // Degenerate range.
        assert_eq!(nice_ticks(5.0, 5.0, 6), vec![5.0]);
    }

    #[test]
    fn error_bars_emitted_only_for_nonzero_ci() {
        let mut f = Figure::new("ci", "ci", "x", "y");
        f.push(
            "a",
            1.0,
            Summary {
                count: 1,
                mean: 1.0,
                std: 0.0,
                half_width: 0.0,
            },
        );
        let svg = render_line_chart(&f);
        // Only grid lines + legend line; no vertical error bar beyond
        // them is strictly checkable, so check circles exist.
        assert!(svg.contains("<circle"));
    }
}
