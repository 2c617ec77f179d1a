//! Docs-drift check: the DESIGN.md §7 rule table must match
//! `fiveg_lint::RULES` — the same table `fiveg-lint --rules` prints —
//! row for row, string for string. Edit either side without the other
//! and this test names the exact drifted cell.

use fiveg_lint::RULES;

/// Extracts `(id, what, hint)` rows from the §7 markdown table.
fn design_rule_rows(design: &str) -> Vec<(String, String, String)> {
    let mut rows = Vec::new();
    for line in design.lines() {
        let Some(rest) = line.strip_prefix('|') else {
            continue;
        };
        let cells: Vec<&str> = rest.split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        let id = cells[0];
        // Rule ids look like D002/S003/W001 — one uppercase letter,
        // three digits. Header and separator rows fail this shape.
        let is_rule = id.len() == 4
            && id.starts_with(|c: char| c.is_ascii_uppercase())
            && id[1..].chars().all(|c| c.is_ascii_digit());
        if is_rule {
            rows.push((id.to_string(), cells[1].to_string(), cells[2].to_string()));
        }
    }
    rows
}

#[test]
fn design_section_7_table_matches_rules() {
    let design_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(design_path)
        .unwrap_or_else(|e| panic!("cannot read {design_path}: {e}"));
    let rows = design_rule_rows(&design);
    assert_eq!(
        rows.len(),
        RULES.len(),
        "DESIGN.md §7 table has {} rule rows, RULES has {} — add/remove the row",
        rows.len(),
        RULES.len()
    );
    for (row, (id, what, hint)) in rows.iter().zip(RULES) {
        assert_eq!(
            &row.0, id,
            "rule order drifted: DESIGN.md row {} vs RULES {id}",
            row.0
        );
        assert_eq!(
            &row.1, what,
            "{id}: DESIGN.md description differs from RULES (and from `--rules` output)"
        );
        assert_eq!(
            &row.2, hint,
            "{id}: DESIGN.md fix hint differs from RULES (and from `--rules` output)"
        );
    }
}

#[test]
fn design_has_section_12() {
    let design_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(design_path)
        .unwrap_or_else(|e| panic!("cannot read {design_path}: {e}"));
    assert!(
        design.contains("## 12. Workspace-aware semantic analysis"),
        "DESIGN.md lost §12 (workspace model / rule families / layering DAG)"
    );
    // The layering table lives in workspace.rs; §12 must point there.
    assert!(
        design.contains("ALLOWED_DEPS"),
        "DESIGN.md §12 no longer references the ALLOWED_DEPS layering DAG"
    );
}
