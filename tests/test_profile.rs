//! The tier-1 tests build optimised (`[profile.test] opt-level = 1` in
//! the root manifest) and keep every check of a debug build: the
//! `debug_assert!` cross-checks (the GA's full recompute, the speedup
//! table against a fresh build, the interference rescan) and integer
//! overflow panics.

/// True when this test binary was built by plain `cargo test`: Cargo
/// writes a dev-derived profile's tests to `target/debug/deps/`, and
/// `cargo test --release`'s to `target/release/deps/`, a build that
/// drops both checks by design.
fn built_by_the_test_profile() -> bool {
    let exe = std::env::current_exe().expect("a test binary has a path");
    let profile_dir = exe.parent().and_then(|deps| deps.parent());
    profile_dir.and_then(|dir| dir.file_name()) == Some("debug".as_ref())
}

// The asserted constant is the point: the profile decides it.
#[allow(clippy::assertions_on_constants)]
#[test]
fn the_test_profile_keeps_debug_assertions_and_overflow_checks() {
    if !built_by_the_test_profile() {
        return;
    }
    assert!(
        cfg!(debug_assertions),
        "[profile.test] turned debug assertions off"
    );
    let wrapped = std::panic::catch_unwind(|| std::hint::black_box(u32::MAX) + 1);
    assert!(
        wrapped.is_err(),
        "[profile.test] turned overflow checks off: u32::MAX + 1 = {wrapped:?}"
    );
}
