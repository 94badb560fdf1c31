//! Findings, severities, and the hand-rolled JSON report writer.

use std::fmt;

/// How bad a finding is. Either one fails the run unless suppressed;
/// the severity tells a reader how to respond.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Should be fixed or explicitly suppressed with a reason.
    Warning,
    /// Always a defect.
    Error,
}

impl Severity {
    /// Lower-case name used in output and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic produced by a lint.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint name, e.g. `float-eq`.
    pub lint: &'static str,
    /// Severity assigned by the lint.
    pub severity: Severity,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
    /// True when a `rfkit-allow(<lint>)` comment covers this line.
    pub suppressed: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}:{}: {}",
            self.severity, self.lint, self.file, self.line, self.col, self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full report as pretty-printed JSON. Findings are emitted
/// in the (deterministic) order they were produced; the summary counts
/// only non-suppressed findings.
pub fn to_json(findings: &[Finding], files_scanned: usize) -> String {
    let count = |sev: Severity| {
        findings
            .iter()
            .filter(|f| !f.suppressed && f.severity == sev)
            .count()
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!(
        "  \"suppressed\": {},\n",
        findings.iter().filter(|f| f.suppressed).count()
    ));
    out.push_str("  \"counts\": {\n");
    out.push_str(&format!("    \"error\": {},\n", count(Severity::Error)));
    out.push_str(&format!("    \"warning\": {}\n", count(Severity::Warning)));
    out.push_str("  },\n");
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 == findings.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"col\": {}, \"suppressed\": {}, \"message\": \"{}\"}}{}\n",
            f.lint,
            f.severity,
            json_escape(&f.file),
            f.line,
            f.col,
            f.suppressed,
            json_escape(&f.message),
            comma
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let findings = vec![
            Finding {
                lint: "float-eq",
                severity: Severity::Warning,
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                col: 9,
                message: "uses \"==\"\twith\nfloats".into(),
                suppressed: false,
            },
            Finding {
                lint: "nondeterminism",
                severity: Severity::Warning,
                file: "src/lib.rs".into(),
                line: 1,
                col: 1,
                message: "marker".into(),
                suppressed: true,
            },
        ];
        let j = to_json(&findings, 7);
        assert!(j.contains("\"files_scanned\": 7"));
        assert!(j.contains("\"warning\": 1"), "suppressed not counted: {j}");
        assert!(j.contains("\"suppressed\": 1,"));
        assert!(j.contains("\\\"==\\\"\\twith\\nfloats"));
    }
}
