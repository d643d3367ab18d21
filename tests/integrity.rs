//! Cross-crate integrity and recovery: journaled characterization
//! survives scripted kills bit-identically, and damaged profiles are
//! quarantined rather than silently loaded (DESIGN.md §13).

use invmeas::profile_io::quarantine_profile;
use invmeas::{characterize, CharMethod, CharSpec, Journal, ProfileError, ProfileMeta, RbmsTable};
use invmeas_faults::{FaultPlan, NoFaults};
use qnoise::{DeviceModel, NoisyExecutor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("invmeas-integrity-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn specs_for(dev: &DeviceModel) -> Vec<CharSpec> {
    let n = dev.n_qubits();
    vec![
        CharSpec::new(CharMethod::Brute, dev.name(), n, 200, 0xC0FFEE),
        CharSpec::new(CharMethod::Esct, dev.name(), n, 2_000, 0xC0FFEE),
        CharSpec::new(CharMethod::Awct, dev.name(), n, 1_500, 0xC0FFEE),
    ]
}

fn kill_plan(arrival: u64) -> FaultPlan {
    FaultPlan::from_text(&format!(
        "faultplan v1\nseed 1\njournal-write {arrival} panic scripted kill\n"
    ))
    .unwrap()
}

/// A run killed mid-journal resumes to the same profile an uninterrupted
/// run produces — for every characterization method, and regardless of
/// the executor thread count on either side of the crash.
#[test]
fn killed_journaled_runs_resume_bit_identically_across_methods() {
    let dev = DeviceModel::ibmqx2();
    let dir = scratch_dir("resume");
    for (i, spec) in specs_for(&dev).into_iter().enumerate() {
        // Uninterrupted journaled reference on one thread.
        let exec = NoisyExecutor::from_device(&dev).with_threads(1);
        let clean = dir.join(format!("clean-{i}.journal"));
        let (baseline, stats) = characterize(&exec, &spec, Some(Journal::at(&clean))).unwrap();
        assert!(
            !stats.resumed(),
            "{:?}: fresh run must not resume",
            spec.method
        );
        assert!(
            stats.checkpoints_written >= 2,
            "{:?}: needs ≥2 units",
            spec.method
        );

        // Crash at the second checkpoint, then resume on four threads.
        let crash = dir.join(format!("crash-{i}.journal"));
        let exec4 = NoisyExecutor::from_device(&dev).with_threads(4);
        let plan = kill_plan(2);
        let died = catch_unwind(AssertUnwindSafe(|| {
            characterize(
                &exec4,
                &spec,
                Some(Journal {
                    faults: &plan,
                    ..Journal::at(&crash)
                }),
            )
        }));
        assert!(died.is_err(), "{:?}: scripted panic must fire", spec.method);
        assert!(
            crash.exists(),
            "{:?}: journal must survive the kill",
            spec.method
        );

        let (resumed, stats) = characterize(&exec4, &spec, Some(Journal::at(&crash))).unwrap();
        assert_eq!(
            stats.resumed_units, 1,
            "{:?}: one checkpoint survived",
            spec.method
        );
        assert_eq!(
            resumed, baseline,
            "{:?}: resumed run must be bit-identical",
            spec.method
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Thread counts above the machine's core count route through the same
/// persistent worker pool, and a kill-and-resume at eight threads still
/// lands byte-identical to a one-thread uninterrupted profile.
#[test]
fn eight_thread_resume_matches_one_thread_profile() {
    let dev = DeviceModel::ibmqx2();
    let dir = scratch_dir("resume8");
    let spec = CharSpec::new(CharMethod::Brute, dev.name(), dev.n_qubits(), 250, 0xBEEF);

    let exec1 = NoisyExecutor::from_device(&dev).with_threads(1);
    let clean = dir.join("clean.journal");
    let (baseline, _) = characterize(&exec1, &spec, Some(Journal::at(&clean))).unwrap();

    let exec8 = NoisyExecutor::from_device(&dev).with_threads(8);
    let crash = dir.join("crash.journal");
    let died = catch_unwind(AssertUnwindSafe(|| {
        characterize(
            &exec8,
            &spec,
            Some(Journal {
                faults: &kill_plan(2),
                ..Journal::at(&crash)
            }),
        )
    }));
    assert!(died.is_err(), "scripted panic must fire");

    let (resumed, stats) = characterize(&exec8, &spec, Some(Journal::at(&crash))).unwrap();
    assert_eq!(stats.resumed_units, 1, "one checkpoint survived the kill");
    assert_eq!(
        resumed, baseline,
        "8-thread resumed profile must be byte-identical to the 1-thread run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn (half-written) checkpoint line is discarded on resume and the
/// final profile still matches the uninterrupted run.
#[test]
fn torn_checkpoint_is_discarded_and_recomputed() {
    let dev = DeviceModel::ibmqx4();
    let dir = scratch_dir("torn");
    let spec = CharSpec::new(CharMethod::Brute, dev.name(), dev.n_qubits(), 300, 7);
    let exec = NoisyExecutor::from_device(&dev).with_threads(2);

    let clean = dir.join("clean.journal");
    let (baseline, _) = characterize(&exec, &spec, Some(Journal::at(&clean))).unwrap();

    let torn = dir.join("torn.journal");
    let plan = FaultPlan::from_text("faultplan v1\nseed 1\njournal-write 3 torn\n").unwrap();
    let err = characterize(
        &exec,
        &spec,
        Some(Journal {
            faults: &plan,
            ..Journal::at(&torn)
        }),
    );
    assert!(err.is_err(), "a torn append reports an I/O failure");

    let (resumed, stats) = characterize(&exec, &spec, Some(Journal::at(&torn))).unwrap();
    assert_eq!(stats.resumed_units, 2, "the two intact checkpoints replay");
    assert_eq!(resumed, baseline);
    std::fs::remove_dir_all(&dir).ok();
}

fn flip_one_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(path, bytes).unwrap();
}

/// End-to-end damage handling: a v2 profile with a flipped bit fails its
/// checksum on load, and quarantining preserves the damaged bytes under a
/// new name instead of deleting the evidence.
#[test]
fn flipped_bit_is_caught_by_checksum_and_quarantined() {
    let dev = DeviceModel::ibmqx2();
    let dir = scratch_dir("quarantine");
    let exec = NoisyExecutor::readout_only(&dev);
    let spec = CharSpec::new(CharMethod::Brute, dev.name(), dev.n_qubits(), 400, 3);
    let (table, _) = characterize(&exec, &spec, None).unwrap();

    let path = dir.join("profile.rbms");
    let meta = ProfileMeta {
        device: dev.name().to_string(),
        method: "brute".into(),
        seed: 3,
        window: 0,
    };
    table.save(&path, &meta, &NoFaults).unwrap();

    // Sanity: the pristine file loads and carries its metadata.
    let (_, loaded_meta) = RbmsTable::load(&path, &NoFaults).unwrap();
    assert_eq!(loaded_meta.unwrap().device, dev.name());

    flip_one_byte(&path);
    let damaged = std::fs::read(&path).unwrap();
    let err = RbmsTable::load(&path, &NoFaults).unwrap_err();
    assert!(
        matches!(
            err,
            ProfileError::Checksum { .. } | ProfileError::Parse { .. }
        ),
        "a flipped bit must be rejected, got {err}"
    );

    let moved = quarantine_profile(&path).unwrap();
    assert!(
        !path.exists(),
        "the damaged file is moved, not left in place"
    );
    assert!(moved.to_string_lossy().contains(".quarantined"));
    assert_eq!(
        std::fs::read(&moved).unwrap(),
        damaged,
        "quarantine preserves the damaged bytes for inspection"
    );

    // A second quarantine at the same path picks a fresh name.
    table.save(&path, &meta, &NoFaults).unwrap();
    flip_one_byte(&path);
    let moved2 = quarantine_profile(&path).unwrap();
    assert_ne!(
        moved, moved2,
        "quarantine never overwrites earlier evidence"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Journaled characterization agrees with the exact readout channel — the
/// chunked estimator is statistically sound, not just deterministic.
#[test]
fn journaled_estimates_track_the_exact_channel() {
    let dev = DeviceModel::ibmqx2();
    let exec = NoisyExecutor::readout_only(&dev);
    let exact = RbmsTable::exact(&dev.readout());
    let spec = CharSpec::new(CharMethod::Brute, dev.name(), dev.n_qubits(), 4_000, 9);
    let (est, _) = characterize(&exec, &spec, None).unwrap();
    let mse = est.mse_vs(&exact);
    assert!(mse < 0.002, "journaled brute MSE vs exact = {mse}");
}
