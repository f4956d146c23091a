//! The built `deepseq-serve` binary: `convert` turns `DSQM` into text and
//! back without changing a byte, load paths refuse text and name
//! `convert`, and a failed conversion leaves no output file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use deepseq_core::{DeepSeq, DeepSeqConfig};

fn deepseq_serve(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deepseq-serve"))
        .args(args)
        .output()
        .expect("run deepseq-serve")
}

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("deepseq-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_model() -> DeepSeq {
    DeepSeq::new(DeepSeqConfig {
        hidden_dim: 4,
        iterations: 2,
        seed: 5,
        ..DeepSeqConfig::default()
    })
}

#[test]
fn dsqm_to_text_to_dsqm_is_byte_identical() {
    let dir = TempDir::new("convert-roundtrip");
    let model = small_model();
    let (dsqm, text, back) = (dir.join("a.dsqm"), dir.join("a.txt"), dir.join("b.dsqm"));
    std::fs::write(&dsqm, model.save_binary()).expect("write DSQM");

    let out = deepseq_serve(&["convert".as_ref(), &dsqm, &text]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(std::fs::read_to_string(&text).unwrap(), model.to_text());

    let out = deepseq_serve(&["convert".as_ref(), &text, &back]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(std::fs::read(&back).unwrap(), model.save_binary());
}

#[test]
fn predict_refuses_a_text_checkpoint_and_names_convert() {
    let dir = TempDir::new("convert-predict");
    let (text, circuit) = (dir.join("model.txt"), dir.join("toggle.aag"));
    std::fs::write(&text, small_model().to_text()).expect("write text");
    std::fs::write(&circuit, "aag 1 0 1 0 0\n2 3\n").expect("write circuit");

    let out = deepseq_serve(&["predict".as_ref(), "--checkpoint".as_ref(), &text, &circuit]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deepseq-serve convert"), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn converting_truncated_text_fails_and_writes_nothing() {
    let dir = TempDir::new("convert-truncated");
    let text = small_model().to_text();
    let (input, output) = (dir.join("cut.txt"), dir.join("cut.dsqm"));
    for cut in [text.len() / 2, text.len() - 1] {
        std::fs::write(&input, &text[..cut]).expect("write truncated text");
        let out = deepseq_serve(&["convert".as_ref(), &input, &output]);
        assert!(!out.status.success(), "cut at {cut}: {out:?}");
        assert!(!output.exists(), "cut at {cut} wrote {}", output.display());
    }
    let entries: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(entries, ["cut.txt"], "leftover files");
}
