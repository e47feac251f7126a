//! Code-size counters over `src/` and `crates/*/src` (not `vendor/`, not
//! this package): the roadmap wants the trend to be down, so every record
//! carries them.

use std::path::Path;

/// Item keywords that make a `pub` line a public item and not a field.
const ITEM_KEYWORDS: [&str; 11] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use", "unsafe", "async",
];

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CodeSize {
    pub lines: u64,
    pub crates: u64,
    pub pub_items: u64,
}

fn is_pub_item(line: &str) -> bool {
    line.trim_start()
        .strip_prefix("pub ")
        .and_then(|rest| rest.split_whitespace().next())
        .is_some_and(|word| ITEM_KEYWORDS.contains(&word))
}

fn count_dir(dir: &Path, size: &mut CodeSize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            count_dir(&path, size);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            size.lines += text.lines().count() as u64;
            size.pub_items += text.lines().filter(|l| is_pub_item(l)).count() as u64;
        }
    }
}

/// Count from the repository root `root`.
pub fn count(root: &Path) -> CodeSize {
    // The facade package at the root is a crate too.
    let mut size = CodeSize {
        crates: 1,
        ..CodeSize::default()
    };
    count_dir(&root.join("src"), &mut size);
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for krate in crates.flatten() {
            if krate.path().join("Cargo.toml").is_file() {
                size.crates += 1;
                count_dir(&krate.path().join("src"), &mut size);
            }
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_items_are_items_not_fields() {
        assert!(is_pub_item("pub fn run(&self) {"));
        assert!(is_pub_item("    pub struct Tero {"));
        assert!(is_pub_item("pub use engine::StoreSnapshot;"));
        assert!(!is_pub_item("    pub params: TeroParams,"));
        assert!(!is_pub_item("pub(crate) fn helper() {}"));
        assert!(!is_pub_item("// pub fn in a comment"));
    }
}
