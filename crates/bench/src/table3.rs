//! The Table 3 experiment: every technique × every environment,
//! measuring CC? and RS? exactly as the paper does and diffing against
//! the published matrix.

use liberate::prelude::*;
use liberate_obs::JsonValue;

use crate::envs::{context_for, EnvSpec};
use crate::expected::{table3 as expected_table3, Cell, ExpectedRow};

/// One measured Table 3 row.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    pub technique: Technique,
    pub testbed: Cell,
    pub tmobile: Cell,
    pub china: Cell,
    pub iran: Cell,
    pub att_cc: bool,
    /// The effective parameterization per environment (split escalation),
    /// for the detail printout.
    pub effective: Vec<(EnvKind, Technique)>,
}

/// Measure all Table 3 cells for one environment. Returns cells in the
/// paper's row order.
fn measure_env(kind: EnvKind) -> Vec<(Cell, Technique)> {
    let spec = EnvSpec::for_table3(kind);
    let mut session = spec.session();
    let signal = spec.signal(&mut session);

    // Baselines: is each trace classified at all here?
    let baseline_of = |session: &mut Session,
                       trace: &liberate_traces::recorded::RecordedTrace,
                       signal: &Signal| {
        let opts = if spec.rotate_server_ports {
            ReplayOpts {
                server_port: Some(9_000 + (session.replays % 1000) as u16),
                ..Default::default()
            }
        } else {
            ReplayOpts::default()
        };
        let (_, classified) = probe(session, trace, &opts, signal);
        classified
    };
    let tcp_baseline = baseline_of(&mut session, &spec.tcp_trace, &signal);
    let udp_baseline = baseline_of(&mut session, &spec.udp_trace, &signal);

    let tcp_ctx = context_for(&session, &spec.tcp_trace);
    let udp_ctx = context_for(&session, &spec.udp_trace);

    let mut out = Vec::new();
    for technique in Technique::table3_rows() {
        let (trace, ctx, baseline) =
            if technique.applicable(liberate_traces::recorded::TraceProtocol::Tcp) {
                (&spec.tcp_trace, &tcp_ctx, tcp_baseline)
            } else {
                (&spec.udp_trace, &udp_ctx, udp_baseline)
            };
        let inputs = EvaluationInputs {
            signal: signal.clone(),
            ctx: ctx.clone(),
            rotate_server_ports: spec.rotate_server_ports,
        };
        let result = evaluate_technique(&mut session, trace, &technique, &inputs, baseline)
            .expect("row techniques apply to their chosen trace");
        out.push((
            Cell {
                cc: result.cc,
                rs: result.rs,
            },
            result.effective,
        ));
    }
    out
}

/// Run the full matrix.
pub fn run_table3() -> Vec<MeasuredRow> {
    let testbed = measure_env(EnvKind::Testbed);
    let tmobile = measure_env(EnvKind::TMobile);
    let china = measure_env(EnvKind::Gfc);
    let iran = measure_env(EnvKind::Iran);
    let att = measure_env(EnvKind::Att);

    Technique::table3_rows()
        .into_iter()
        .enumerate()
        .map(|(i, technique)| MeasuredRow {
            technique,
            testbed: testbed[i].0,
            tmobile: tmobile[i].0,
            china: china[i].0,
            iran: iran[i].0,
            att_cc: att[i].0.cc == Some(true),
            effective: vec![
                (EnvKind::Testbed, testbed[i].1.clone()),
                (EnvKind::TMobile, tmobile[i].1.clone()),
                (EnvKind::Gfc, china[i].1.clone()),
                (EnvKind::Iran, iran[i].1.clone()),
                (EnvKind::Att, att[i].1.clone()),
            ],
        })
        .collect()
}

/// Compare measured rows with the paper's table; returns human-readable
/// mismatch descriptions (empty = full reproduction).
pub fn diff_against_paper(measured: &[MeasuredRow]) -> Vec<String> {
    let expected = expected_table3();
    let mut mismatches = Vec::new();
    for (exp, got) in expected.iter().zip(measured) {
        let mut check = |env: &str, e: &Cell, g: &Cell| {
            if e.cc != g.cc {
                mismatches.push(format!(
                    "{} / {}: CC expected {:?}, measured {:?}",
                    exp.technique.description(),
                    env,
                    e.cc,
                    g.cc
                ));
            }
            if e.rs != g.rs {
                mismatches.push(format!(
                    "{} / {}: RS expected {:?}, measured {:?}",
                    exp.technique.description(),
                    env,
                    e.rs,
                    g.rs
                ));
            }
        };
        check("Testbed", &exp.testbed, &got.testbed);
        check("T-Mobile", &exp.tmobile, &got.tmobile);
        check("China", &exp.china, &got.china);
        check("Iran", &exp.iran, &got.iran);
        if exp.att_cc != got.att_cc {
            mismatches.push(format!(
                "{} / AT&T: CC expected {}, measured {}",
                exp.technique.description(),
                exp.att_cc,
                got.att_cc
            ));
        }
    }
    mismatches
}

/// Render the matrix in the paper's layout.
pub fn render(measured: &[MeasuredRow]) -> String {
    use liberate::report::{mark_bool, mark_cc, mark_reach, TextTable};
    let expected = expected_table3();
    let mut table = TextTable::new(&[
        "Prot.",
        "Technique",
        "Testbed CC",
        "RS",
        "T-Mobile CC",
        "RS",
        "China CC",
        "RS",
        "Iran CC",
        "RS",
        "AT&T",
        "paper?",
    ]);
    for (row, exp) in measured.iter().zip(&expected) {
        let agrees = exp.testbed == row.testbed
            && exp.tmobile == row.tmobile
            && exp.china == row.china
            && exp.iran == row.iran
            && exp.att_cc == row.att_cc;
        table.row(vec![
            row.technique.protocol_row().to_string(),
            row.technique.description(),
            mark_cc(row.testbed.cc).to_string(),
            mark_reach(row.testbed.rs).to_string(),
            mark_cc(row.tmobile.cc).to_string(),
            mark_reach(row.tmobile.rs).to_string(),
            mark_cc(row.china.cc).to_string(),
            mark_reach(row.china.rs).to_string(),
            mark_cc(row.iran.cc).to_string(),
            mark_reach(row.iran.rs).to_string(),
            mark_bool(row.att_cc).to_string(),
            if agrees { "match" } else { "DIFFER" }.to_string(),
        ]);
    }
    table.render()
}

/// Expected row accessor reused by reporting code.
pub fn expected_rows() -> Vec<ExpectedRow> {
    expected_table3()
}

/// Export the measured matrix as a JSON dataset (the paper publishes its
/// tools *and datasets*).
pub fn to_json(measured: &[MeasuredRow]) -> JsonValue {
    use liberate::report::{mark_cc, mark_reach};
    let cell = |c: &Cell| {
        JsonValue::object([
            ("cc", mark_cc(c.cc).into()),
            ("rs", mark_reach(c.rs).into()),
        ])
    };
    let row = |r: &MeasuredRow| {
        JsonValue::object([
            ("protocol", r.technique.protocol_row().into()),
            ("technique", r.technique.description().into()),
            ("testbed", cell(&r.testbed)),
            ("tmobile", cell(&r.tmobile)),
            ("china", cell(&r.china)),
            ("iran", cell(&r.iran)),
            ("att_cc", r.att_cc.into()),
        ])
    };
    JsonValue::object([
        ("table", "3".into()),
        (
            "environments",
            vec!["Testbed", "T-Mobile", "China", "Iran", "AT&T"].into(),
        ),
        ("rows", JsonValue::Array(measured.iter().map(row).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_reproduces_paper() {
        let measured = run_table3();
        let mismatches = diff_against_paper(&measured);
        assert!(
            mismatches.is_empty(),
            "{} mismatches:\n{}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}
