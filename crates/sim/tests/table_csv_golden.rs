//! Golden-file lock on `Table::render_csv` escaping.
//!
//! The CSV emit feeds downstream plotting, so its quoting rules are a
//! compatibility surface: cells containing commas, double quotes, or
//! CR/LF line breaks must be quoted (with `"` doubled), and everything
//! else must pass through byte-identically. The blessed bytes live in
//! `tests/golden/render_csv.golden`; regenerate deliberately with
//! `LDP_BLESS_GOLDENS=1 cargo test -p ldp-sim --test table_csv_golden`.
//!
//! This file caught (and now pins the fix for) a real escaping bug: bare
//! carriage returns were not quoted, so a `\r` inside a cell silently
//! split the record on CRLF-aware readers.

use ldp_sim::Table;

fn specimen() -> Table {
    let mut t = Table::new(["name", "value", "notes"]);
    t.push_row(["plain", "1.0", "no escaping"]);
    t.push_row(["comma,cell", "quote\"cell", "both,\"at once\""]);
    t.push_row(["newline\ncell", "cr\rcell", "crlf\r\nboth"]);
    t.push_row(["trailing space ", " leading", "unicode ±ε, η=0.2"]);
    t.push_row(["", "-", "empty first cell"]);
    t
}

#[test]
fn render_csv_matches_golden() {
    let got = specimen().render_csv();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/render_csv.golden");
    if std::env::var_os("LDP_BLESS_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        ldp_common::write_atomic(&path, &got).unwrap();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nbless with LDP_BLESS_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        got, golden,
        "render_csv drifted from the blessed bytes; if intentional, \
         re-bless with LDP_BLESS_GOLDENS=1"
    );
}

#[test]
fn csv_quoting_contract() {
    let csv = specimen().render_csv();
    let lines: Vec<&str> = csv.split('\n').collect();
    // Unescaped cells pass through verbatim.
    assert_eq!(lines[0], "name,value,notes");
    assert_eq!(lines[1], "plain,1.0,no escaping");
    // Commas and quotes force quoting; inner quotes double.
    assert_eq!(
        lines[2],
        "\"comma,cell\",\"quote\"\"cell\",\"both,\"\"at once\"\"\""
    );
    // LF, bare CR, and CRLF cells are all quoted — the record continues
    // across the embedded break (RFC 4180 §2.6).
    assert!(csv.contains("\"newline\ncell\""));
    assert!(csv.contains("\"cr\rcell\""), "bare CR must be quoted");
    assert!(csv.contains("\"crlf\r\nboth\""));
    // Whitespace and unicode are preserved, not trimmed.
    assert!(csv.contains("trailing space , leading,\"unicode ±ε, η=0.2\""));
    // Empty cells stay empty (no quotes).
    assert!(csv.contains("\n,-,empty first cell\n"));
}
