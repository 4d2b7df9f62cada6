//! The paper's exhibits at 1/128 scale (`hetero_spmm::figures`), pinned
//! byte for byte against `tests/golden/figures.jsonl`, with the paper's
//! headline claims checked as shapes on the same series. Absolute factors
//! differ from the paper (the substrate is a simulator); each check
//! states the direction and rough magnitude of a claim.

use std::sync::OnceLock;

use hetero_spmm::figures::{figures, json_lines};
use hetero_spmm::prelude::*;
use hetero_spmm::serve::json::Json;

const SCALE: usize = 128;

const REGENERATE: &str =
    "cargo run --release --bin spmm -- figures 128 > tests/golden/figures.jsonl";

/// The series, computed once for every test of this binary.
fn series() -> &'static [Json] {
    static ROWS: OnceLock<Vec<Json>> = OnceLock::new();
    ROWS.get_or_init(|| figures(SCALE))
}

fn exhibit(name: &str) -> Vec<&'static Json> {
    let rows: Vec<&Json> = series()
        .iter()
        .filter(|row| row.str_field("exhibit") == Some(name))
        .collect();
    assert!(!rows.is_empty(), "no {name} rows");
    rows
}

fn matrix(row: &Json) -> &str {
    row.str_field("matrix").expect("a matrix row")
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{key} missing from {}", row.dump()))
}

fn scale_free(row: &Json) -> bool {
    Dataset::by_name(matrix(row))
        .expect("a Table I matrix")
        .entry()
        .is_scale_free()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[test]
fn figures_match_the_golden() {
    let got = json_lines(series());
    let want = include_str!("golden/figures.jsonl");
    if got != want {
        let (line, (now, golden)) = got
            .lines()
            .chain(std::iter::repeat(""))
            .zip(want.lines().chain(std::iter::repeat("")))
            .enumerate()
            .find(|(_, (now, golden))| now != golden)
            .expect("the series differ in some line");
        panic!(
            "the figures moved from tests/golden/figures.jsonl at line {}:\n\
             golden: {golden}\n   now: {now}\n\
             if the move is intended, regenerate the golden with\n  {REGENERATE}",
            line + 1
        );
    }
}

#[test]
fn hh_cpu_beats_hipc2012_on_scale_free_input() {
    // Figure 6: "on average 25% faster compared to the results of [13]"
    for row in exhibit("fig6") {
        let s = num(row, "vs_hipc2012");
        assert!(
            s > 1.0,
            "{}: HH-CPU must beat HiPC2012, got {s}",
            matrix(row)
        );
    }
}

#[test]
fn hh_cpu_beats_vendor_libraries() {
    // Figure 6 footnote: 4x over cuSPARSE, 3.6x over MKL at full scale
    for row in exhibit("fig6") {
        for key in ["vs_mkl", "vs_cusparse"] {
            let s = num(row, key);
            assert!(s > 1.0, "{}: {key} {s}", matrix(row));
        }
    }
}

#[test]
fn hh_cpu_beats_workqueue_baselines() {
    // Figure 9: "15% smaller on average compared to either" on the
    // scale-free matrices, most of all on webbase-1M
    let rows = exhibit("fig9");
    let webbase = rows
        .iter()
        .find(|row| matrix(row) == "webbase-1M")
        .expect("a webbase-1M row");
    for key in ["vs_unsorted", "vs_sorted"] {
        let s = num(webbase, key);
        assert!(s > 1.0, "webbase-1M {key} {s}");
        let scale_free: Vec<f64> = rows
            .iter()
            .filter(|row| scale_free(row))
            .map(|row| num(row, key))
            .collect();
        let avg = mean(&scale_free);
        assert!(avg > 1.0, "scale-free average {key} {avg}");
    }
}

#[test]
fn threshold_sweep_is_convex() {
    // Figure 8: "the overall time taken by our algorithm should exhibit a
    // convex behavior" — on every scale-free matrix the interior minimum
    // beats both degenerate ends
    for row in exhibit("fig8").into_iter().filter(|row| scale_free(row)) {
        let walls = |key| row.get(key).and_then(Json::as_array).expect(key);
        let totals: Vec<f64> = walls("phase2_ns")
            .iter()
            .zip(walls("phase3_ns"))
            .map(|(p2, p3)| p2.as_f64().unwrap() + p3.as_f64().unwrap())
            .collect();
        let min = totals.iter().copied().fold(f64::INFINITY, f64::min);
        let name = matrix(row);
        assert!(
            min < totals[0],
            "{name}: interior min must beat the all-CPU end"
        );
        assert!(
            min < totals[totals.len() - 1],
            "{name}: interior min must beat the all-GPU end"
        );
    }
}

#[test]
fn speedup_decreases_with_alpha() {
    // Figure 10: "as α increases, the speedup achieved by Algorithm HH-CPU
    // decreases" — a strongly scale-free α against a weak one. The 100K
    // series is too small at this scale to keep its tail (EXPERIMENTS.md).
    let rows = exhibit("fig10");
    for size in ["500K", "1M"] {
        let speedup = |alpha: f64| {
            let row = rows
                .iter()
                .find(|row| row.str_field("size") == Some(size) && num(row, "alpha") == alpha)
                .unwrap_or_else(|| panic!("no {size} point at α = {alpha}"));
            num(row, "speedup")
        };
        let (strong, weak) = (speedup(3.0), speedup(6.5));
        assert!(
            strong > weak - 0.05,
            "{size}: scale-free advantage should not grow with α (α=3: {strong}, α=6.5: {weak})"
        );
    }
}

#[test]
fn phase_one_and_four_are_cheap() {
    // §V-B c: "these two steps consume under 4% of the overall time" —
    // our simulator keeps them a small minority of every run
    for row in exhibit("fig7") {
        let walls = row.get("phase_ns").and_then(Json::as_array).expect("walls");
        let wall = |k: usize| walls[k].as_f64().unwrap();
        let overhead = (wall(0) + wall(3)) / num(row, "total_ns");
        assert!(
            overhead < 0.4,
            "{}: phases I+IV should be a small minority, got {:.1}%",
            matrix(row),
            overhead * 100.0
        );
    }
}

#[test]
fn phase_three_clocks_balance() {
    // §V-B b: per-phase CPU/GPU difference "on average under 2% of the
    // overall runtime" — the double-ended queue keeps the clocks close
    for row in exhibit("fig7") {
        let share = num(row, "phase3_imbalance_ns") / num(row, "total_ns");
        assert!(
            share < 0.2,
            "{}: phase III imbalance {:.1}% of total",
            matrix(row),
            share * 100.0
        );
    }
}

#[test]
fn works_on_non_scale_free_inputs_without_penalty() {
    // §V-B c: "Algorithm HH-CPU does not have disadvantages compared to
    // other approaches even on matrices that are not scale-free" — allow a
    // small tolerance for Phase I/IV overheads
    let rows: Vec<&Json> = exhibit("fig6")
        .into_iter()
        .filter(|row| !scale_free(row))
        .collect();
    assert_eq!(rows.len(), 3, "cop20kA, p2p-Gnutella31 and roadNet-CA");
    for row in rows {
        let (hh, hipc) = (num(row, "hh_ns"), num(row, "hipc2012_ns"));
        assert!(
            hh < hipc * 1.15,
            "{}: HH-CPU should not lose badly on non-scale-free input: hh {hh} vs hipc {hipc}",
            matrix(row)
        );
    }
}
