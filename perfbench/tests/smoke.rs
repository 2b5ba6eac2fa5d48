//! Short runs of every workload in both modes, on the default seed and on
//! the held-out seed: each must pass its correctness checks (and, traced,
//! the rig-equality check) and print exactly the metrics `BENCHMARK.json`
//! names, each with its unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The seed the reference numbers were taken on.
const DEFAULT_SEED: u64 = 1;
/// The held-out seed (see README.md): never used while tuning.
const HELD_OUT_SEED: u64 = 7777;

/// A parsed JSON value (just enough of JSON for the benchmark's files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        _ => {
                            let start = self.i - 1;
                            let mut end = self.i;
                            while end < self.s.len() && self.s[end] != b'"' && self.s[end] != b'\\'
                            {
                                end += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..end]).expect("utf-8"));
                            self.i = end;
                        }
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("bad number {text}: {e}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let Json::Arr(metrics) = Parser::parse(&text).get(section).clone() else {
        panic!("{section} is not an array")
    };
    metrics
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs one short workload and returns its stdout and result line.
fn run(workload: &str, seed: u64, trace: bool) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Parser::parse(last);
    (stdout, result)
}

fn check(workload: &str, trace: bool) {
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let (stdout, result) = run(workload, seed, trace);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{stdout}");
        let Json::Num(attempted) = result.get("attempted") else {
            panic!("attempted is not a number")
        };
        assert!(*attempted >= 1.0, "{stdout}");
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let got: BTreeMap<String, String> = metrics
            .iter()
            .map(|(k, v)| {
                assert!(matches!(v.get("value"), Json::Num(_)), "{k} has no number");
                (k.clone(), v.get("unit").str().to_string())
            })
            .collect();
        assert_eq!(
            got, want,
            "{workload} trace {trace}: metrics or units differ"
        );
        if trace && workload != "chaos_lossy" {
            assert!(
                stdout.contains("reproduced") && stdout.contains("residual"),
                "{stdout}"
            );
        }
    }
}

#[test]
fn closed_update_prints_every_metric_and_passes_its_checks() {
    check("closed_update", false);
    check("closed_update", true);
}

#[test]
fn kv_cached_prints_every_metric_and_passes_its_checks() {
    check("kv_cached", false);
    check("kv_cached", true);
}

#[test]
fn open_overload_prints_every_metric_and_passes_its_checks() {
    check("open_overload", false);
    check("open_overload", true);
}

#[test]
fn chaos_lossy_prints_every_metric_and_passes_its_checks() {
    check("chaos_lossy", false);
    check("chaos_lossy", true);
}

#[test]
fn sim_metrics_repeat_exactly_for_the_same_seed() {
    for workload in ["closed_update", "kv_cached", "open_overload", "chaos_lossy"] {
        let sim = |result: &Json| -> Vec<(String, Json)> {
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            metrics
                .iter()
                .filter(|(k, _)| k.starts_with("sim_") || k.as_str() == "success_frac")
                .map(|(k, v)| (k.clone(), v.get("value").clone()))
                .collect()
        };
        let (_, a) = run(workload, 11, false);
        let (_, b) = run(workload, 11, false);
        assert_eq!(
            sim(&a),
            sim(&b),
            "{workload}: same seed, different sim metrics"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "kv_cached", "--trace", "2"],
        &["--workload", "kv_cached", "--seed", "x"],
        &["--workload", "kv_cached", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
