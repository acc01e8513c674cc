//! Tiny runs of every workload: each prints every metric
//! `BENCHMARK.json` names, with its unit, and a traced run's exact
//! counts repeat for a seed.

use std::os::unix::process::CommandExt as _;
use std::process::Command;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the child to one of the CPUs it may run on. `flow` takes
/// the evaluator's default width (available parallelism) instead of
/// `--threads`, and the delta/full fold split repeats only at one
/// thread.
fn pin_to_one_cpu(cmd: &mut Command) {
    // SAFETY: the closure runs in the forked child before `exec` and
    // makes only the two affinity syscalls on a stack buffer the size
    // of a `cpu_set_t` (1024 bits); it allocates nothing.
    unsafe {
        cmd.pre_exec(|| {
            let mut mask = [0u64; 16];
            if sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            let word = mask.iter().position(|&w| w != 0).unwrap_or(0);
            let lowest = mask[word] & mask[word].wrapping_neg();
            mask = [0; 16];
            mask[word] = lowest;
            if sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        });
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_owned()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

/// The result line's metrics as `(name, value, unit)`, plus `correct`.
fn run(workload: &str, seed: u64, trace: bool) -> (bool, Vec<(String, f64, String)>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_layerbench"));
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny", "--threads", "1"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"));
    if workload == "flow" {
        pin_to_one_cpu(&mut cmd);
    }
    let out = cmd.output().expect("run the benchmark");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": "), "{line}");
    let correct = line.starts_with("{\"correct\": true");
    let metrics = line[line.find("\"metrics\": {").expect("metrics") + 12..]
        .split("}, ")
        .map(|m| {
            let name = m.split('"').nth(1).expect("metric name").to_owned();
            let value = m.split("\"value\": ").nth(1).expect("value");
            let value: f64 = value[..value.find(',').expect("value ends")].parse().expect("f64");
            let unit = m.split("\"unit\": \"").nth(1).expect("unit");
            (name, value, unit[..unit.find('"').expect("unit ends")].to_owned())
        })
        .collect();
    (correct, metrics)
}

fn assert_emits_listed(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let (correct, metrics) = run(workload, 1, trace);
        assert!(correct, "{workload} self-checks failed");
        let got: Vec<(String, String)> =
            metrics.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
        assert_eq!(got, listed(section), "{workload} --trace {}", u8::from(trace));
        if !trace {
            for (name, value, _) in &metrics {
                assert!(*value > 0.0, "{workload}: end-to-end {name} reads {value}");
            }
        }
    }
}

#[test]
fn flow_emits_every_metric_with_its_unit() {
    assert_emits_listed("flow");
}

#[test]
fn search_emits_every_metric_with_its_unit() {
    assert_emits_listed("search");
}

#[test]
fn serve_emits_every_metric_with_its_unit() {
    assert_emits_listed("serve");
}

#[test]
fn traced_exact_counts_repeat_for_a_seed() {
    for workload in ["flow", "search", "serve"] {
        let counts = || -> Vec<(String, f64)> {
            let (correct, metrics) = run(workload, 7, true);
            assert!(correct, "{workload} self-checks failed");
            metrics
                .into_iter()
                .filter(|(n, _, _)| n.starts_with("count."))
                .map(|(n, v, _)| (n, v))
                .collect()
        };
        let first = counts();
        assert_eq!(first.len(), 6);
        assert!(first.iter().any(|(n, v)| n == "count.designs_unique" && *v > 0.0));
        assert_eq!(first, counts(), "{workload}: exact counts differ between runs");
    }
}
