//! Output checks that fail a run: the determinism guard and the committed
//! `repro-sim` reference. (Shadow-image checks live with the op runner.)

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

pub type Counts = BTreeMap<String, String>;

/// Where runs keep their determinism records and span files.
pub fn runs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs")
}

/// Compares the counts both records have; names every one that differs.
pub fn diff_counts(recorded: &Counts, now: &Counts) -> Result<(), String> {
    let diffs: Vec<String> = recorded
        .iter()
        .filter_map(|(k, v)| match now.get(k) {
            Some(n) if n != v => Some(format!("{k}: recorded {v}, now {n}")),
            _ => None,
        })
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "counts differ for the same seed: {}",
            diffs.join("; ")
        ))
    }
}

pub fn parse_counts(text: &str) -> Counts {
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

pub fn format_counts(counts: &Counts) -> String {
    counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// FNV-1a of the running executable, so records of different builds of
/// the program never meet.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(fs::read)
        .unwrap_or_default();
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// The determinism guard: the first run of a (workload, seed, seconds)
/// with this build records its counts; every later run, traced or not,
/// must reproduce each count the record has. New counts are added.
pub fn guard(key: &str, counts: &Counts) -> Result<(), String> {
    let dir = runs_dir().join("counts");
    let path = dir.join(format!("{key}-{}.txt", build_id()));
    let mut record = fs::read_to_string(&path)
        .map(|t| parse_counts(&t))
        .unwrap_or_default();
    diff_counts(&record, counts)?;
    let before = record.len();
    for (k, v) in counts {
        record.entry(k.clone()).or_insert_with(|| v.clone());
    }
    if record.len() != before {
        fs::create_dir_all(&dir)
            .and_then(|()| fs::write(&path, format_counts(&record)))
            .map_err(|e| format!("cannot record counts in {}: {e}", path.display()))?;
    }
    Ok(())
}

/// `repro-sim` reference rows: benchmark name → exact field texts.
pub type Reference = BTreeMap<String, Vec<String>>;

pub const REFERENCE_HEADER: &str =
    "# benchmark\tcapacity_ratio\ttargets\tbuddy_cycles\tideal_cycles\n";

pub fn parse_reference(text: &str) -> Reference {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut fields = l.split('\t').map(str::to_string);
            Some((fields.next()?, fields.collect()))
        })
        .collect()
}

pub fn format_reference(rows: &Reference) -> String {
    let mut out = String::from(REFERENCE_HEADER);
    for (name, fields) in rows {
        out.push_str(name);
        for f in fields {
            out.push('\t');
            out.push_str(f);
        }
        out.push('\n');
    }
    out
}

/// Every benchmark must match its reference row exactly.
pub fn diff_reference(reference: &Reference, measured: &Reference) -> Result<(), String> {
    const FIELDS: [&str; 4] = ["capacity_ratio", "targets", "buddy_cycles", "ideal_cycles"];
    let mut diffs = Vec::new();
    for (name, got) in measured {
        match reference.get(name) {
            None => diffs.push(format!("{name}: no reference row")),
            Some(want) => {
                for (i, field) in FIELDS.iter().enumerate() {
                    if want.get(i) != got.get(i) {
                        diffs.push(format!(
                            "{name} {field}: reference {}, measured {}",
                            want.get(i).map_or("-", String::as_str),
                            got.get(i).map_or("-", String::as_str)
                        ));
                    }
                }
            }
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, &str)]) -> Counts {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn a_changed_count_is_named() {
        let a = counts(&[("buddy_sectors", "10"), ("retargets", "3")]);
        assert!(diff_counts(&a, &a).is_ok());
        let b = counts(&[("buddy_sectors", "11"), ("retargets", "3"), ("new", "1")]);
        let err = diff_counts(&a, &b).unwrap_err();
        assert!(err.contains("buddy_sectors: recorded 10, now 11"), "{err}");
        assert!(!err.contains("retargets"), "{err}");
        assert_eq!(parse_counts(&format_counts(&b)), b);
    }

    #[test]
    fn a_corrupted_reference_value_fails() {
        let text = include_str!("../reference/repro_sim.tsv");
        let reference = parse_reference(text);
        assert_eq!(reference.len(), 16, "one row per Table-1 benchmark");
        assert!(diff_reference(&reference, &reference).is_ok());
        let mut corrupted = reference.clone();
        let (name, fields) = corrupted.iter_mut().next().expect("rows");
        let name = name.clone();
        fields[2].push('1');
        let err = diff_reference(&corrupted, &reference).unwrap_err();
        assert!(err.contains(&format!("{name} buddy_cycles")), "{err}");
        assert_eq!(parse_reference(&format_reference(&reference)), reference);
    }
}
