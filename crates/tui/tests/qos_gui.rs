//! `qos_gui --stdin` end to end (needs `--features app`).

use std::io::Write;
use std::process::{Command, Stdio};

/// An accepted offer's presentation (playout elided) ends at once and
/// releases its streams, so accepting offer after offer never fills the
/// farm: every negotiation succeeds in full.
#[test]
fn accepted_offers_are_released_so_every_session_succeeds() {
    let mut gui = Command::new(env!("CARGO_BIN_EXE_qos_gui"))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("qos_gui starts");
    let script = "ok\naccept\n".repeat(40) + "exit\n";
    let mut stdin = gui.stdin.take().expect("stdin is piped");
    stdin.write_all(script.as_bytes()).expect("script written");
    drop(stdin);
    let out = gui.wait_with_output().expect("qos_gui exits");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(text.matches("status: SUCCEEDED").count(), 40, "{text}");
    assert_eq!(text.matches("offer accepted").count(), 40);
}
