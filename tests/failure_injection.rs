//! Failure injection: every layer must reject corrupt inputs with a typed
//! error (never a panic, never a silent wrong answer) — the error-handling
//! contract a server-side deployment depends on.

use ldp_common::{Domain, LdpError};
use ldp_protocols::{ProtocolKind, PureParams};
use ldprecover::{LdpRecover, PostProcess};

#[test]
fn recovery_rejects_non_finite_poisoned_inputs() {
    let domain = Domain::new(4).unwrap();
    let params = PureParams::new(0.5, 0.25, domain).unwrap();
    let recover = LdpRecover::new(0.2).unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let poisoned = vec![0.5, bad, 0.3, 0.1];
        let err = recover.recover(&poisoned, params).unwrap_err();
        assert!(
            matches!(err, LdpError::Numerical(_)),
            "expected Numerical error for {bad}, got {err}"
        );
    }
}

#[test]
fn recovery_rejects_wrong_domain_width() {
    let domain = Domain::new(4).unwrap();
    let params = PureParams::new(0.5, 0.25, domain).unwrap();
    let recover = LdpRecover::new(0.2).unwrap();
    let err = recover.recover(&[0.5, 0.5], params).unwrap_err();
    assert!(matches!(err, LdpError::DomainMismatch { expected: 4, .. }));
}

#[test]
fn post_process_none_passes_through_but_others_sanitize() {
    // PostProcess::None is the only mode allowed to emit constraint
    // violations, and it says so in its contract.
    let raw = [0.8, -0.3, 0.6];
    let out = PostProcess::None.apply(&raw).unwrap();
    assert!(out.iter().any(|&x| x < 0.0));
    for pp in [
        PostProcess::NormSub,
        PostProcess::SimplexProjection,
        PostProcess::ClipNormalize,
        PostProcess::BaseCut,
    ] {
        let out = pp.apply(&raw).unwrap();
        assert!(out.iter().all(|&x| x >= 0.0), "{pp:?}");
    }
}

#[test]
fn debias_rejects_zero_reports_and_wrong_width() {
    let domain = Domain::new(3).unwrap();
    let protocol = ProtocolKind::Grr.build(0.5, domain).unwrap();
    use ldp_protocols::LdpFrequencyProtocol as _;
    let params = protocol.params();
    assert!(matches!(
        params.debias_frequencies(&[1, 2, 3], 0).unwrap_err(),
        LdpError::EmptyInput(_)
    ));
    assert!(matches!(
        params.debias_frequencies(&[1, 2], 5).unwrap_err(),
        LdpError::DomainMismatch { .. }
    ));
}

#[test]
fn config_validation_failures_carry_actionable_messages() {
    use ldp_attacks::AttackKind;
    use ldp_datasets::DatasetKind;
    let mut config = ldp_sim::ExperimentConfig::paper_default(
        DatasetKind::Ipums,
        ProtocolKind::Grr,
        Some(AttackKind::Adaptive),
    );
    config.epsilon = -1.0;
    let msg = config.validate().unwrap_err().to_string();
    assert!(msg.contains("epsilon"), "message was: {msg}");

    config.epsilon = 0.5;
    config.beta = 0.05;
    config.attack = None;
    let msg = config.validate().unwrap_err().to_string();
    assert!(msg.contains("beta"), "message was: {msg}");
}

#[test]
fn dataset_loader_reports_line_numbers() {
    let dir = std::env::temp_dir().join("ldprecover-failure-injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.txt");
    ldp_common::write_atomic(&path, "0\n1\noops\n2\n").unwrap();
    let err =
        ldp_datasets::Dataset::from_item_file("bad", Domain::new(5).unwrap(), &path).unwrap_err();
    match err {
        LdpError::Parse { line, .. } => assert_eq!(line, 3),
        other => panic!("expected Parse error, got {other}"),
    }
    // Missing file → Io error with a source.
    let missing = dir.join("does-not-exist.txt");
    let err =
        ldp_datasets::Dataset::from_item_file("x", Domain::new(5).unwrap(), &missing).unwrap_err();
    assert!(matches!(err, LdpError::Io(_)));
}

#[test]
fn detection_and_kv_reject_structural_misuse() {
    assert!(ldprecover::Detection::new(vec![]).is_err());
    assert!(ldp_kv::KvRecover::new(-1.0).is_err());

    // KV aggregate with an out-of-domain probe index is rejected at
    // aggregation time, not silently miscounted.
    let kv = ldp_kv::KvProtocol::new(1.0, Domain::new(3).unwrap()).unwrap();
    let rogue = ldp_kv::KvReport {
        index: 7,
        present: true,
        positive: true,
    };
    assert!(kv.aggregate(&[rogue]).is_err());
}

#[test]
fn errors_format_without_panicking_for_every_variant() {
    let variants: Vec<LdpError> = vec![
        LdpError::invalid("x"),
        LdpError::DomainMismatch {
            expected: 1,
            got: 2,
            context: "test",
        },
        LdpError::EmptyInput("y"),
        LdpError::Numerical("z".into()),
        LdpError::Io(std::io::Error::other("io")),
        LdpError::Parse {
            line: 1,
            message: "m".into(),
        },
    ];
    for v in variants {
        assert!(!v.to_string().is_empty());
    }
}
