//! Text-level rewriting of scenario files: the benchmark derives the program's inputs (seed,
//! set-up-only variant, single-shard variant) by editing keys of the `[scenario]` section in a
//! temporary copy, never by linking the program's parser.

/// Returns `text` with `key = value` under `[scenario]`: an existing assignment is replaced in
/// place (a trailing comment on the line is kept), a missing one is inserted right after the
/// section header. Errors when the file has no `[scenario]` section.
pub fn set_scenario_key(text: &str, key: &str, value: &str) -> Result<String, String> {
    let mut out = Vec::new();
    let mut in_scenario = false;
    let mut header_at = None;
    let mut replaced = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with('[') {
            in_scenario = section_name(trimmed) == Some("scenario");
            if in_scenario && header_at.is_none() {
                header_at = Some(out.len());
            }
        } else if in_scenario && !replaced && assigned_key(trimmed) == Some(key) {
            let comment = comment_of(line)
                .map(|c| format!(" {c}"))
                .unwrap_or_default();
            out.push(format!("{key} = {value}{comment}"));
            replaced = true;
            continue;
        }
        out.push(line.to_string());
    }
    let Some(header_at) = header_at else {
        return Err("scenario file has no [scenario] section".to_string());
    };
    if !replaced {
        out.insert(header_at + 1, format!("{key} = {value}"));
    }
    let mut joined = out.join("\n");
    joined.push('\n');
    Ok(joined)
}

/// `[name]` → `name` (ignoring a trailing comment).
fn section_name(trimmed: &str) -> Option<&str> {
    let close = trimmed.find(']')?;
    Some(trimmed[1..close].trim())
}

/// The bare key of a `key = value` line.
fn assigned_key(trimmed: &str) -> Option<&str> {
    if trimmed.starts_with('#') {
        return None;
    }
    let eq = trimmed.find('=')?;
    Some(trimmed[..eq].trim())
}

/// The trailing comment of a line: from the first `#` outside a quoted string.
fn comment_of(line: &str) -> Option<&str> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return Some(&line[i..]),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "# header comment\n[scenario]\nname = \"bench-x\" # keep # this\nseed = 7   # the seed\nmachines = 3\n\n[topology]\nseed = 99\nlink = \"lan-10m\"\n";

    #[test]
    fn replaces_an_existing_key_and_keeps_its_comment() {
        let out = set_scenario_key(FILE, "seed", "1999").unwrap();
        assert!(out.contains("\nseed = 1999 # the seed\n"));
        assert!(
            out.contains("[topology]\nseed = 99\n"),
            "other sections untouched"
        );
        assert_eq!(out.matches("seed =").count(), 2);
    }

    #[test]
    fn inserts_a_missing_key_after_the_header() {
        let out = set_scenario_key(FILE, "event_budget", "1").unwrap();
        assert!(out.contains("[scenario]\nevent_budget = 1\nname = "));
        // Idempotent: setting it again replaces instead of inserting a second line.
        let again = set_scenario_key(&out, "event_budget", "1").unwrap();
        assert_eq!(again, out);
    }

    #[test]
    fn a_hash_inside_a_string_is_not_a_comment() {
        let out = set_scenario_key(FILE, "name", "\"y\"").unwrap();
        assert!(out.contains("name = \"y\" # keep # this\n"));
        let tricky = "[scenario]\nname = \"a # b\"\n";
        assert_eq!(
            set_scenario_key(tricky, "name", "\"c\"").unwrap(),
            "[scenario]\nname = \"c\"\n"
        );
    }

    #[test]
    fn commented_out_assignments_and_other_sections_are_ignored() {
        let text = "[topology]\nseed = 1\n[scenario] # main\n# seed = 5\nname = \"n\"\n";
        let out = set_scenario_key(text, "seed", "2").unwrap();
        assert!(out.contains("[scenario] # main\nseed = 2\n# seed = 5\n"));
        assert!(out.starts_with("[topology]\nseed = 1\n"));
    }

    #[test]
    fn a_file_without_the_section_is_an_error() {
        assert!(set_scenario_key("[topology]\nlink = \"x\"\n", "seed", "1").is_err());
    }
}
