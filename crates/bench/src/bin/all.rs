//! Runs every experiment (Tables I–V, Fig 6, Fig 7) and writes
//! machine-readable JSON into `experiments/` beside the printed tables.
//!
//! ```text
//! cargo run -p rangeamp-bench --release --bin all
//! ```

use rangeamp::defense_eval::{run_defense_eval, DefenseEvalConfig};
use rangeamp::executor::Executor;
use rangeamp::scanner::Scanner;
use rangeamp_bench::write_output;

const DIR: &str = "experiments";

fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serializable");
    write_output(&format!("{DIR}/{name}"), &json);
}

fn main() {
    let executor = Executor::sequential();

    eprintln!("== scanner (Tables I–III) ==");
    let scanner = Scanner::default();
    let t1 = scanner.scan_table1(&executor);
    let t2 = scanner.scan_table2(&executor);
    let t3 = scanner.scan_table3(&executor);
    println!("{}", rangeamp_bench::render_table1(&t1));
    println!("{}", rangeamp_bench::render_table2(&t2));
    println!("{}", rangeamp_bench::render_table3(&t3));
    write_json("table1.json", &t1);
    write_json("table2.json", &t2);
    write_json("table3.json", &t3);

    eprintln!("== SBR (Table IV + Fig 6) ==");
    let sizes: Vec<u64> = (1..=25).collect();
    let points = rangeamp_bench::sbr_points(&sizes, &executor);
    println!("{}", rangeamp_bench::render_table4(&points));
    write_json("fig6_sbr_sweep.json", &points);

    eprintln!("== OBR (Table V) ==");
    let obr = rangeamp_bench::table5_measurements(&executor);
    println!("{}", rangeamp_bench::render_table5(&obr));
    write_json("table5.json", &obr);

    eprintln!("== Flood (Fig 7) ==");
    let fig7 = rangeamp_bench::fig7_reports(&executor);
    println!("{}", rangeamp_bench::render_fig7_summary(&fig7));
    write_json("fig7.json", &fig7);

    eprintln!("== Dropped-GET comparison (§VIII) ==");
    let dropped = rangeamp_bench::dropped_get_rows(10 * 1024 * 1024, &executor);
    write_json("dropped_get.json", &dropped);

    eprintln!("== HTTP/2 applicability (§VI-B) ==");
    let h2 = rangeamp_bench::h2_rows(&executor);
    write_json("h2_check.json", &h2);

    eprintln!("== Online defense evaluation (DESIGN.md §12) ==");
    let defense = run_defense_eval(&DefenseEvalConfig::default(), &executor, 2020);
    println!("{}", rangeamp_bench::render_defense_eval(&defense));
    write_json("defense.json", &defense);

    eprintln!("all experiments complete; JSON in {DIR}");
}
