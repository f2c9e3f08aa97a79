//! Crash-safe file replacement.
//!
//! [`atomic_write`] writes the new bytes to a temp file next to the target
//! and renames it into place, so a crash mid-write leaves either the old
//! file or the new one, never a torn mix. The temp name is unique per
//! process *and* per write ([`unique_suffix`]): two writers sharing one
//! target — threads of one process, or two processes — never interleave
//! bytes into the same temp file, and whichever rename lands last wins
//! whole.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process sequence behind [`unique_suffix`].
static SEQ: AtomicU64 = AtomicU64::new(0);

/// `<pid>.<seq>`: a name fragment no other call in any process returns.
pub fn unique_suffix() -> String {
    format!("{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed))
}

/// Replace `path` with `bytes` via `<name>.tmp.<pid>.<seq>` and a rename.
/// The temp file is removed when either step fails.
pub fn atomic_write(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    let path = path.as_ref();
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!("{name}.tmp.{}", unique_suffix()));
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn concurrent_saves_never_share_a_temp_file() {
        // Regression: a fixed `<path>.tmp` let two writers sharing one
        // target interleave into the same temp file and rename a torn mix
        // into place. Hammering one path from many threads must always
        // leave one writer's complete document and no stranded temps.
        let dir = std::env::temp_dir().join(format!("asf_atomic_write_{}", unique_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.json");
        let doc = |t: u64, round: u64| {
            format!("{{\"writer\": {t}, \"round\": {round}, \"pad\": \"{}\"}}", "x".repeat(4096))
        };
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let path = path.clone();
                std::thread::spawn(move || {
                    for round in 0..20 {
                        atomic_write(&path, doc(t, round)).unwrap();
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let v = parse(&text).expect("survivor is a whole document");
        let (t, round) =
            (v.field("writer").unwrap().as_u64().unwrap(), v.field("round").unwrap().as_u64().unwrap());
        assert_eq!(text, doc(t, round));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["target.json"], "stranded temp files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_removes_the_temp_file() {
        // Renaming a file over a non-empty directory fails; the temp file
        // written just before must not be left behind.
        let dir = std::env::temp_dir().join(format!("asf_atomic_fail_{}", unique_suffix()));
        let target = dir.join("occupied");
        std::fs::create_dir_all(target.join("child")).unwrap();
        assert!(atomic_write(&target, "bytes").is_err());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["occupied"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
