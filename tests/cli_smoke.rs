//! End-to-end smoke tests of the `edd` CLI binary: a search run writes a
//! JSON artifact that `eval` then consumes; informational subcommands
//! print what they promise; bad input fails with a nonzero exit code.

use std::process::Command;

fn edd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_edd"))
}

#[test]
fn devices_lists_all_platforms() {
    let out = edd().arg("devices").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["Titan RTX", "GTX 1080 Ti", "ZCU102", "ZC706", "Loom"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn zoo_prints_thirteen_models() {
    let out = edd().arg("zoo").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["GoogleNet", "VGG16", "EDD-Net-1", "EDD-Net-2", "EDD-Net-3"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn search_then_eval_roundtrip() {
    let out_path = std::env::temp_dir().join("edd_cli_smoke_arch.json");
    let out = edd()
        .args([
            "search",
            "--target",
            "fpga-pipelined",
            "--blocks",
            "2",
            "--classes",
            "4",
            "--epochs",
            "2",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "search failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out_path.exists());

    let eval = edd()
        .args(["eval", "--arch"])
        .arg(&out_path)
        .output()
        .expect("runs");
    assert!(eval.status.success());
    let text = String::from_utf8_lossy(&eval.stdout);
    assert!(text.contains("FPGA pipelined"));
    assert!(text.contains("GPU (Titan RTX)"));
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn compile_then_hot_load_roundtrip() {
    let artifact = std::env::temp_dir().join("edd_cli_smoke_model.eddm");
    let out = edd()
        .args(["compile", "--qat-epochs", "1", "--out"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "compile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BN folded"), "missing pass report:\n{text}");
    assert!(artifact.exists());

    let qinfer = edd()
        .args(["qinfer", "--artifact"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        qinfer.status.success(),
        "qinfer --artifact failed: {}",
        String::from_utf8_lossy(&qinfer.stderr)
    );
    let text = String::from_utf8_lossy(&qinfer.stdout);
    assert!(text.contains("hot-loaded"), "stdout: {text}");

    let serve = edd()
        .args(["serve", "--requests", "40", "--artifacts"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        serve.status.success(),
        "serve --artifacts failed: {}",
        String::from_utf8_lossy(&serve.stderr)
    );
    let text = String::from_utf8_lossy(&serve.stdout);
    assert!(text.contains("0 failed"), "stdout: {text}");
    std::fs::remove_file(&artifact).ok();
}

/// Two artifacts with different input shapes served side by side: every
/// request must be drawn at its own model's image length and complete.
#[test]
fn serve_mixes_artifacts_of_different_input_shapes() {
    let dir = std::env::temp_dir();
    let mut artifacts = Vec::new();
    for size in [16usize, 12] {
        let mut arch = edd::zoo::tiny_derived_arch();
        arch.name = format!("edd-tiny-{size}px");
        arch.space.image_size = size;
        let json = dir.join(format!("edd_cli_smoke_arch_{size}.json"));
        std::fs::write(&json, arch.to_json().unwrap()).unwrap();
        let artifact = dir.join(format!("edd_cli_smoke_{size}px.eddm"));
        let out = edd()
            .args(["compile", "--qat-epochs", "1", "--arch"])
            .arg(&json)
            .arg("--out")
            .arg(&artifact)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "compile of the {size}px arch failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::remove_file(&json).ok();
        artifacts.push(artifact);
    }
    let list = artifacts
        .iter()
        .map(|p| p.to_str().unwrap())
        .collect::<Vec<_>>()
        .join(",");
    let serve = edd()
        .args([
            "serve",
            "--producers",
            "1",
            "--requests",
            "40",
            "--artifacts",
        ])
        .arg(&list)
        .output()
        .expect("runs");
    let text = String::from_utf8_lossy(&serve.stdout);
    assert!(
        serve.status.success(),
        "serve of mixed-shape artifacts failed: {}\nstdout: {text}",
        String::from_utf8_lossy(&serve.stderr)
    );
    assert!(
        text.contains("40 request(s) completed, 0 failed, 0 malformed"),
        "stdout: {text}"
    );
    for artifact in &artifacts {
        std::fs::remove_file(artifact).ok();
    }
}

#[test]
fn stream_verifies_hot_loaded_artifact() {
    let artifact = std::env::temp_dir().join("edd_cli_smoke_stream.eddm");
    let out = edd()
        .args(["compile", "--qat-epochs", "1", "--out"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "compile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stream = edd()
        .args(["stream", "--rows", "40", "--verify", "--artifact"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        stream.status.success(),
        "stream --verify failed: {}",
        String::from_utf8_lossy(&stream.stderr)
    );
    let text = String::from_utf8_lossy(&stream.stdout);
    assert!(text.contains("verified: all"), "stdout: {text}");

    let short = edd()
        .args(["stream", "--rows", "3", "--artifact"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(!short.status.success());
    let err = String::from_utf8_lossy(&short.stderr);
    assert!(err.contains("shorter than the"), "stderr: {err}");
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn compile_rejects_unknown_pass() {
    let out = edd()
        .args(["compile", "--passes", "loop-unroll"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pass"), "stderr: {err}");
}

#[test]
fn qinfer_rejects_corrupt_artifact() {
    let path = std::env::temp_dir().join("edd_cli_smoke_corrupt.eddm");
    std::fs::write(&path, b"EDDMODL\0not a real artifact").unwrap();
    let out = edd()
        .args(["qinfer", "--artifact"])
        .arg(&path)
        .output()
        .expect("runs");
    assert!(!out.status.success());
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_command_fails() {
    let out = edd().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
}

#[test]
fn bad_target_fails_with_message() {
    let out = edd()
        .args(["search", "--target", "abacus"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown target"), "stderr: {err}");
}

#[test]
fn eval_missing_file_fails() {
    let out = edd()
        .args(["eval", "--arch", "/nonexistent/void.json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}
