//! The census: per package, four counts that may only fall.
//!
//! `lines` and `pub_items` are the benchmark record's `code.lines` and
//! `code.pub_items`, computed by the harness's own `codesize.rs` on one
//! package at a time. The two other columns are counted here:
//!
//! - `panics`: `unwrap(`, `expect(`, `panic!` and `unreachable!` in
//!   `src/`, outside comments and `#[cfg(test)]` code;
//! - `unreferenced`: `pub` items outside `#[cfg(test)]` whose name no other
//!   package writes as a word. Another package is another crate, the facade,
//!   `tests/`, `examples/`, `benchmark/src/`, the crate's own `tests/`,
//!   `benches/`, `examples/` and `src/bin/`, or a doctest.
//!
//! [`census_only_falls`] fails when a count rises above its row of
//! [`TABLE`] and prints the table as it now is; a change that grows a
//! count pastes that table here in its own diff. `scripts/unreferenced_pub.sh`
//! prints the `unreferenced` items, one `file:line name` a line.

#[path = "../benchmark/src/codesize.rs"]
mod codesize;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::read_to_string;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The pinned counts: package, lines, `pub` items, panic sites,
/// unreferenced `pub` items. `facade` is the root package's `src/`.
#[rustfmt::skip]
const TABLE: &[(&str, u64, u64, u64, u64)] = &[
    ("facade",      64,  14,   0,   0),
    ("bench",     3243,   2,   0,   0),
    ("chaos",      873,  30,   0,   0),
    ("core",      8898, 136,  19,  14),
    ("geoparse",  3204,  32,   4,   0),
    ("net",       2770,  48,  12,   7),
    ("pool",       315,   7,   1,   0),
    ("serve",     1082,  30,   2,   0),
    ("simnet",    2305,  55,   3,   9),
    ("stats",     3889,  70,  13,   0),
    ("store",     1825,  64,   6,   0),
    ("trace",     3248, 134,   3,   8),
    ("types",     1700, 109,   0,   1),
    ("vision",    4150,  62,   2,   0),
    ("world",     2982,  69,   6,   9),
];

/// One package's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Row {
    lines: u64,
    pub_items: u64,
    panics: u64,
    unreferenced: u64,
}

/// A `pub` item no other package names.
struct Unreferenced {
    file: String,
    line: usize,
    name: String,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.flatten().map(|e| e.path()) {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The packages with a row: the facade, then `crates/<name>` in name order.
fn packages() -> Vec<(String, PathBuf)> {
    let mut packages = vec![("facade".to_string(), root().to_path_buf())];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    for dir in crates {
        let name = dir
            .file_name()
            .expect("crate dir")
            .to_string_lossy()
            .into_owned();
        packages.push((name, dir));
    }
    packages
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty())
}

/// The lines of `text` that `#[cfg(test)]` compiles out, and the file
/// modules (`#[cfg(test)] mod name;`) it names.
fn test_only(text: &str) -> (Vec<bool>, Vec<String>) {
    let lines: Vec<&str> = text.lines().collect();
    let mut skip = vec![false; lines.len()];
    let mut modules = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() != "#[cfg(test)]" {
            i += 1;
            continue;
        }
        skip[i] = true;
        let mut depth = 0i64;
        let mut opened = false;
        for j in i + 1..lines.len() {
            let line = lines[j];
            skip[j] = true;
            if !opened {
                if let Some(name) = line
                    .trim()
                    .strip_prefix("mod ")
                    .and_then(|r| r.strip_suffix(';'))
                {
                    modules.push(name.to_string());
                }
            }
            depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            opened |= line.contains('{');
            i = j + 1;
            if (opened && depth <= 0) || (!opened && line.trim_end().ends_with(';')) {
                break;
            }
        }
    }
    (skip, modules)
}

/// Occurrences of `pattern` not preceded by an identifier character.
fn sites(line: &str, pattern: &str) -> u64 {
    line.match_indices(pattern)
        .filter(|&(at, _)| !line[..at].chars().next_back().is_some_and(is_ident))
        .count() as u64
}

/// Words that stand between `pub` and an item's name.
const ITEM_WORDS: [&str; 11] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "unsafe", "async", "mut",
];

/// The names a `pub` item declares, or `None` for a line that is not one
/// (`codesize.rs`'s rule: `pub ` and then an item keyword). `stmt` is the
/// item's first line, or a whole `pub use` statement.
fn declared_names(stmt: &str) -> Option<Vec<String>> {
    let rest = stmt.trim_start().strip_prefix("pub ")?;
    if let Some(path) = rest.strip_prefix("use ") {
        let names = path
            .trim_end()
            .trim_end_matches(';')
            .split([',', '{', '}'])
            .filter_map(|part| {
                let part = part.trim();
                let alias = part.rsplit_once(" as ").map_or(part, |(_, a)| a);
                let name = alias.rsplit("::").next()?.trim();
                (!name.is_empty() && name.chars().all(is_ident)).then(|| name.to_string())
            })
            .collect();
        return Some(names);
    }
    let mut tokens = words(rest);
    let first = tokens.next()?;
    if first == "mut" || !ITEM_WORDS.contains(&first) {
        return None;
    }
    let name = tokens.find(|w| !ITEM_WORDS.contains(w))?;
    Some(vec![name.to_string()])
}

/// Where a word was written: in some crate's (or the facade's) library
/// code, or anywhere another package sees it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Owner {
    Lib(String),
    Outside,
}

struct Census {
    rows: BTreeMap<String, Row>,
    unreferenced: Vec<Unreferenced>,
}

/// The census, taken once per test binary: the tests that read it run in
/// parallel and [`facade_size`] reuses one scratch directory.
fn census() -> &'static Census {
    static CENSUS: OnceLock<Census> = OnceLock::new();
    CENSUS.get_or_init(take_census)
}

fn take_census() -> Census {
    let root = root();
    let packages = packages();
    let mut owners: BTreeMap<String, BTreeSet<Owner>> = BTreeMap::new();
    let mut note = |text: &str, owner: &Owner| {
        for word in words(text) {
            owners
                .entry(word.to_string())
                .or_default()
                .insert(owner.clone());
        }
    };

    // Library code: each package's `src/` but `src/bin/`; its doctests and
    // the rest of the package are outside it.
    let mut libs: Vec<(String, PathBuf, String)> = Vec::new();
    for (name, dir) in &packages {
        for file in rust_files(&dir.join("src")) {
            let text = read_to_string(&file).expect("readable source");
            if file.starts_with(dir.join("src/bin")) {
                note(&text, &Owner::Outside);
                continue;
            }
            let mut fenced = false;
            let mut code = String::new();
            for line in text.lines() {
                let doc = line.trim_start();
                let doc = doc.strip_prefix("///").or_else(|| doc.strip_prefix("//!"));
                match doc {
                    Some(doc) if doc.trim_start().starts_with("```") => fenced = !fenced,
                    Some(doc) if fenced => note(doc, &Owner::Outside),
                    _ => {
                        code.push_str(line);
                        code.push('\n');
                    }
                }
            }
            note(&code, &Owner::Lib(name.clone()));
            libs.push((name.clone(), file, text));
        }
        if name != "facade" {
            for extra in ["tests", "benches", "examples"] {
                for file in rust_files(&dir.join(extra)) {
                    note(
                        &read_to_string(&file).expect("readable source"),
                        &Owner::Outside,
                    );
                }
            }
        }
    }
    for outside in ["tests", "examples", "benchmark/src"] {
        for file in rust_files(&root.join(outside)) {
            note(
                &read_to_string(&file).expect("readable source"),
                &Owner::Outside,
            );
        }
    }

    // Files a `#[cfg(test)] mod name;` compiles in only for tests.
    let mut test_files = BTreeSet::new();
    for (_, file, text) in &libs {
        let dir = file.parent().expect("file dir");
        let stem_dir = if file
            .file_name()
            .is_some_and(|n| n == "lib.rs" || n == "mod.rs")
        {
            dir.to_path_buf()
        } else {
            dir.join(file.file_stem().expect("file stem"))
        };
        for module in test_only(text).1 {
            test_files.insert(stem_dir.join(format!("{module}.rs")));
            test_files.insert(stem_dir.join(module).join("mod.rs"));
        }
    }

    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for (name, dir) in &packages {
        let size = if name == "facade" {
            facade_size()
        } else {
            codesize::count(dir)
        };
        let row = rows.entry(name.clone()).or_default();
        row.lines = size.lines;
        row.pub_items = size.pub_items;
    }
    let mut unreferenced = Vec::new();
    for (name, file, text) in &libs {
        if test_files.contains(file) {
            continue;
        }
        let row = rows.get_mut(name).expect("package row");
        let skip = test_only(text).0;
        let shown = file
            .strip_prefix(root)
            .unwrap_or(file)
            .display()
            .to_string();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if skip[i] || line.trim_start().starts_with("//") {
                continue;
            }
            row.panics += ["unwrap(", "expect(", "panic!", "unreachable!"]
                .iter()
                .map(|p| sites(line, p))
                .sum::<u64>();
            // A `pub use` that spans lines is read to its `;`.
            let stmt = if line.starts_with("pub use ") && !line.ends_with(';') {
                let end = (i..lines.len()).find(|&j| lines[j].ends_with(';'));
                lines[i..=end.unwrap_or(i)].join(" ")
            } else {
                line.to_string()
            };
            let Some(names) = declared_names(&stmt) else {
                continue;
            };
            let named_outside = names.iter().any(|n| {
                owners
                    .get(n)
                    .is_some_and(|o| o.iter().any(|o| *o != Owner::Lib(name.clone())))
            });
            if !names.is_empty() && !named_outside {
                row.unreferenced += 1;
                unreferenced.push(Unreferenced {
                    file: shown.clone(),
                    line: i + 1,
                    name: names.join(", "),
                });
            }
        }
    }
    Census { rows, unreferenced }
}

/// The facade's own `src/` through `codesize::count`, which counts a
/// directory's `src/` and every `crates/*` beneath it: a copy of `src/`
/// alone under the test's scratch directory is the facade without crates.
fn facade_size() -> codesize::CodeSize {
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("census-facade");
    let _ = std::fs::remove_dir_all(&copy);
    for file in rust_files(&root().join("src")) {
        let to = copy.join(file.strip_prefix(root()).expect("under root"));
        std::fs::create_dir_all(to.parent().expect("file dir")).expect("scratch dir");
        std::fs::copy(&file, &to).expect("copy facade source");
    }
    codesize::count(&copy)
}

fn table_text(rows: &BTreeMap<String, Row>) -> String {
    let mut text = String::from("const TABLE: &[(&str, u64, u64, u64, u64)] = &[\n");
    let facade = rows.get_key_value("facade").into_iter();
    for (name, r) in facade.chain(rows.iter().filter(|(n, _)| *n != "facade")) {
        let quoted = format!("\"{name}\",");
        let _ = writeln!(
            text,
            "    ({quoted:<11} {:>5}, {:>3}, {:>3}, {:>3}),",
            r.lines, r.pub_items, r.panics, r.unreferenced
        );
    }
    text.push_str("];");
    text
}

#[test]
fn census_only_falls() {
    let rows = &census().rows;
    let table: BTreeMap<&str, Row> = TABLE
        .iter()
        .map(|&(name, lines, pub_items, panics, unreferenced)| {
            let row = Row {
                lines,
                pub_items,
                panics,
                unreferenced,
            };
            (name, row)
        })
        .collect();
    let mut risen = Vec::new();
    for (name, now) in rows {
        let Some(pinned) = table.get(name.as_str()) else {
            risen.push(format!("{name}: no row"));
            continue;
        };
        for (column, now, pinned) in [
            ("lines", now.lines, pinned.lines),
            ("pub items", now.pub_items, pinned.pub_items),
            ("panic sites", now.panics, pinned.panics),
            (
                "unreferenced pub items",
                now.unreferenced,
                pinned.unreferenced,
            ),
        ] {
            if now > pinned {
                risen.push(format!("{name}: {column} {pinned} -> {now}"));
            }
        }
    }
    for name in table.keys() {
        if !rows.contains_key(*name) {
            risen.push(format!("{name}: a row for no package"));
        }
    }
    assert!(
        risen.is_empty(),
        "the census rose:\n  {}\nIf the growth is meant, replace TABLE in tests/census.rs with:\n{}",
        risen.join("\n  "),
        table_text(rows)
    );
}

#[test]
fn census_rows_sum_to_the_benchmark_record() {
    let rows = &census().rows;
    let whole = codesize::count(root());
    assert_eq!(rows.len() as u64, whole.crates, "one row a package");
    assert_eq!(
        rows.values().map(|r| r.lines).sum::<u64>(),
        whole.lines,
        "code.lines"
    );
    assert_eq!(
        rows.values().map(|r| r.pub_items).sum::<u64>(),
        whole.pub_items,
        "code.pub_items"
    );
}

/// `scripts/unreferenced_pub.sh` runs this with `--nocapture`.
#[test]
fn unreferenced_pub_listing() {
    for item in &census().unreferenced {
        println!("{}:{} {}", item.file, item.line, item.name);
    }
}

#[test]
fn census_reads_items_and_sites() {
    assert_eq!(
        declared_names("pub fn run(&self) {"),
        Some(vec!["run".into()])
    );
    assert_eq!(
        declared_names("  pub const fn new() -> Self {"),
        Some(vec!["new".into()])
    );
    assert_eq!(
        declared_names("pub static mut N: u8 = 0;"),
        Some(vec!["N".into()])
    );
    assert_eq!(
        declared_names("pub use engine::{Tero, sketch::Sketch as S};"),
        Some(vec!["Tero".into(), "S".into()])
    );
    assert_eq!(declared_names("    pub params: TeroParams,"), None);
    assert_eq!(declared_names("pub(crate) fn helper() {}"), None);
    assert_eq!(
        declared_names("pub use span::{ EventRecord, Level, };"),
        Some(vec!["EventRecord".into(), "Level".into()])
    );
    assert_eq!(sites("x.unwrap(); y.expect(\"e\")", "unwrap("), 1);
    assert_eq!(sites("Arc::try_unwrap(a)", "unwrap("), 0);
    let (skip, modules) = test_only("fn a() {}\n#[cfg(test)]\nmod reference;\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}");
    assert_eq!(skip, [false, true, true, true, true, true, true, false]);
    assert_eq!(modules, ["reference"]);
}
