//! OpenQASM 2.0 interchange for circuits.
//!
//! The paper's experiments ran as OpenQASM jobs on the IBM Q cloud; this
//! module lets the reproduction's circuits round-trip through the same
//! format, so they can be inspected with standard tooling or submitted to
//! a real backend unchanged.
//!
//! [`to_qasm`] emits the full supported gate set; [`from_qasm`] parses the
//! subset that `to_qasm` produces (one quantum register, optional final
//! measurement of every qubit).

use crate::bitstring::MAX_WIDTH;
use crate::circuit::Circuit;
use crate::gate::Gate;
use std::fmt::Write as _;

/// Serializes a circuit as OpenQASM 2.0, ending with a full-register
/// measurement (the NISQ execution model always measures every qubit).
///
/// # Examples
///
/// ```
/// use qsim::{qasm, Circuit};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("h q[0];"));
/// assert!(text.contains("cx q[0],q[1];"));
/// let back = qasm::from_qasm(&text)?;
/// assert_eq!(back, c);
/// # Ok::<(), qsim::qasm::QasmError>(())
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let n = circuit.n_qubits();
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{n}];");
    let _ = writeln!(out, "creg c[{n}];");
    for g in circuit.gates() {
        match *g {
            Gate::X(q) => {
                let _ = writeln!(out, "x q[{q}];");
            }
            Gate::Y(q) => {
                let _ = writeln!(out, "y q[{q}];");
            }
            Gate::Z(q) => {
                let _ = writeln!(out, "z q[{q}];");
            }
            Gate::H(q) => {
                let _ = writeln!(out, "h q[{q}];");
            }
            Gate::S(q) => {
                let _ = writeln!(out, "s q[{q}];");
            }
            Gate::Sdg(q) => {
                let _ = writeln!(out, "sdg q[{q}];");
            }
            Gate::T(q) => {
                let _ = writeln!(out, "t q[{q}];");
            }
            Gate::Tdg(q) => {
                let _ = writeln!(out, "tdg q[{q}];");
            }
            Gate::Rx { qubit, theta } => {
                let _ = writeln!(out, "rx({theta:.17e}) q[{qubit}];");
            }
            Gate::Ry { qubit, theta } => {
                let _ = writeln!(out, "ry({theta:.17e}) q[{qubit}];");
            }
            Gate::Rz { qubit, theta } => {
                let _ = writeln!(out, "rz({theta:.17e}) q[{qubit}];");
            }
            Gate::Phase { qubit, lambda } => {
                let _ = writeln!(out, "p({lambda:.17e}) q[{qubit}];");
            }
            Gate::Cx { control, target } => {
                let _ = writeln!(out, "cx q[{control}],q[{target}];");
            }
            Gate::Cz { control, target } => {
                let _ = writeln!(out, "cz q[{control}],q[{target}];");
            }
            Gate::Rzz { a, b, theta } => {
                let _ = writeln!(out, "rzz({theta:.17e}) q[{a}],q[{b}];");
            }
            Gate::Swap { a, b } => {
                let _ = writeln!(out, "swap q[{a}],q[{b}];");
            }
        }
    }
    for q in 0..n {
        let _ = writeln!(out, "measure q[{q}] -> c[{q}];");
    }
    out
}

/// Error parsing OpenQASM text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QasmError {
    line: usize,
    message: String,
}

impl QasmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        QasmError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for QasmError {}

/// Parses the OpenQASM 2.0 subset produced by [`to_qasm`].
///
/// Supported statements: the version header, `include`, a single `qreg`,
/// `creg` (ignored), `measure` (ignored), `barrier` (ignored), comments,
/// and the gate set of [`Gate`].
///
/// # Errors
///
/// Returns a [`QasmError`] naming the offending line on malformed input,
/// unsupported gates, missing/duplicate `qreg`, or a `qreg` size outside
/// `1..=64`.
pub fn from_qasm(text: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parse_statement(stmt, lineno, &mut circuit)?;
        }
    }
    circuit.ok_or_else(|| QasmError::new(0, "no qreg declaration found"))
}

fn parse_statement(
    stmt: &str,
    lineno: usize,
    circuit: &mut Option<Circuit>,
) -> Result<(), QasmError> {
    if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("qreg") {
        if circuit.is_some() {
            return Err(QasmError::new(lineno, "multiple qreg declarations"));
        }
        let n = parse_reg_size(rest.trim())
            .ok_or_else(|| QasmError::new(lineno, format!("bad qreg declaration {rest:?}")))?;
        if !(1..=MAX_WIDTH).contains(&n) {
            return Err(QasmError::new(
                lineno,
                format!("qreg size {n} outside 1..={MAX_WIDTH}"),
            ));
        }
        *circuit = Some(Circuit::new(n));
        return Ok(());
    }
    if stmt.starts_with("creg") || stmt.starts_with("measure") || stmt.starts_with("barrier") {
        return Ok(());
    }
    let circuit = circuit
        .as_mut()
        .ok_or_else(|| QasmError::new(lineno, "gate before qreg declaration"))?;
    let (head, args) = stmt
        .split_once(' ')
        .ok_or_else(|| QasmError::new(lineno, format!("malformed statement {stmt:?}")))?;
    let (name, params) = match head.split_once('(') {
        Some((n, p)) => {
            let p = p
                .strip_suffix(')')
                .ok_or_else(|| QasmError::new(lineno, "unterminated parameter list"))?;
            (n, Some(p))
        }
        None => (head, None),
    };
    let qubits: Vec<usize> = args
        .split(',')
        .map(|a| parse_qubit(a.trim()))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| QasmError::new(lineno, format!("bad qubit operands {args:?}")))?;
    let theta = || -> Result<f64, QasmError> {
        params
            .ok_or_else(|| QasmError::new(lineno, format!("{name} requires a parameter")))?
            .trim()
            .parse::<f64>()
            .map_err(|_| QasmError::new(lineno, format!("bad angle in {stmt:?}")))
    };
    let one = |qubits: &[usize]| -> Result<usize, QasmError> {
        if qubits.len() == 1 {
            Ok(qubits[0])
        } else {
            Err(QasmError::new(lineno, format!("{name} takes one qubit")))
        }
    };
    let two = |qubits: &[usize]| -> Result<(usize, usize), QasmError> {
        if qubits.len() == 2 {
            Ok((qubits[0], qubits[1]))
        } else {
            Err(QasmError::new(lineno, format!("{name} takes two qubits")))
        }
    };
    let gate = match name {
        "x" => Gate::X(one(&qubits)?),
        "y" => Gate::Y(one(&qubits)?),
        "z" => Gate::Z(one(&qubits)?),
        "h" => Gate::H(one(&qubits)?),
        "s" => Gate::S(one(&qubits)?),
        "sdg" => Gate::Sdg(one(&qubits)?),
        "t" => Gate::T(one(&qubits)?),
        "tdg" => Gate::Tdg(one(&qubits)?),
        "rx" => Gate::Rx {
            qubit: one(&qubits)?,
            theta: theta()?,
        },
        "ry" => Gate::Ry {
            qubit: one(&qubits)?,
            theta: theta()?,
        },
        "rz" => Gate::Rz {
            qubit: one(&qubits)?,
            theta: theta()?,
        },
        "p" | "u1" => Gate::Phase {
            qubit: one(&qubits)?,
            lambda: theta()?,
        },
        "cx" => {
            let (control, target) = two(&qubits)?;
            Gate::Cx { control, target }
        }
        "cz" => {
            let (control, target) = two(&qubits)?;
            Gate::Cz { control, target }
        }
        "rzz" => {
            let (a, b) = two(&qubits)?;
            Gate::Rzz {
                a,
                b,
                theta: theta()?,
            }
        }
        "swap" => {
            let (a, b) = two(&qubits)?;
            Gate::Swap { a, b }
        }
        other => {
            return Err(QasmError::new(
                lineno,
                format!("unsupported gate {other:?}"),
            ))
        }
    };
    if gate.qubits().iter().any(|&q| q >= circuit.n_qubits()) {
        return Err(QasmError::new(
            lineno,
            format!("qubit out of range in {stmt:?}"),
        ));
    }
    circuit.push(gate);
    Ok(())
}

/// Parses `q[5]` into `5`.
fn parse_qubit(token: &str) -> Option<usize> {
    let rest = token.strip_prefix("q[")?;
    let idx = rest.strip_suffix(']')?;
    idx.parse().ok()
}

/// Parses `q[5]` (a register declaration operand) into `5`.
fn parse_reg_size(token: &str) -> Option<usize> {
    parse_qubit(token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVector;

    fn rich_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0)
            .x(1)
            .y(2)
            .z(0)
            .s(1)
            .push(Gate::Sdg(2))
            .push(Gate::T(0))
            .push(Gate::Tdg(1))
            .rx(0, 0.25)
            .ry(1, -1.5)
            .rz(2, 3.0)
            .p(0, 0.75)
            .cx(0, 1)
            .cz(1, 2)
            .rzz(0, 2, 0.5)
            .swap(1, 2);
        c
    }

    #[test]
    fn roundtrip_preserves_circuit() {
        let c = rich_circuit();
        let text = to_qasm(&c);
        let back = from_qasm(&text).expect("parse own output");
        assert_eq!(back, c);
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let c = rich_circuit();
        let back = from_qasm(&to_qasm(&c)).unwrap();
        let a = StateVector::from_circuit(&c);
        let b = StateVector::from_circuit(&back);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emits_headers_and_measurements() {
        let mut c = Circuit::new(2);
        c.h(0);
        let text = to_qasm(&c);
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[2];"));
        assert!(text.contains("creg c[2];"));
        assert!(text.contains("measure q[0] -> c[0];"));
        assert!(text.contains("measure q[1] -> c[1];"));
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "OPENQASM 2.0;\n// a comment\n\nqreg q[1];\nx q[0]; // inline\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.gates(), &[Gate::X(0)]);
    }

    #[test]
    fn parses_u1_alias() {
        let text = "qreg q[1];\nu1(0.5) q[0];";
        let c = from_qasm(text).unwrap();
        assert_eq!(
            c.gates(),
            &[Gate::Phase {
                qubit: 0,
                lambda: 0.5
            }]
        );
    }

    #[test]
    fn error_reporting() {
        let cases = [
            ("x q[0];", "before qreg"),
            ("qreg q[2];\nccx q[0],q[1];", "unsupported gate"),
            ("qreg q[2];\nx q[5];", "out of range"),
            ("qreg q[1];\nrx q[0];", "requires a parameter"),
            ("qreg q[1];\nqreg q[1];", "multiple qreg"),
            ("", "no qreg"),
            (
                "OPENQASM 2.0;\nqreg q[0];",
                "line 2: qreg size 0 outside 1..=64",
            ),
            ("qreg q[65];", "line 1: qreg size 65 outside"),
            ("qreg q[99999999999];", "qreg size 99999999999 outside"),
        ];
        for (text, expect) in cases {
            let err = from_qasm(text).unwrap_err().to_string();
            assert!(err.contains(expect), "{text:?}: {err}");
        }
    }

    #[test]
    fn error_includes_line_number() {
        let err = from_qasm("qreg q[1];\n\nbadgate q[0];").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }
}
