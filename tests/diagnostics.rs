//! Diagnostic quality end to end: every class of user error, pushed
//! through the full `compile` entry point, must fail at the right stage
//! with a message a Domino programmer can act on. The all-or-nothing
//! model is only usable if rejections explain themselves.

use banzai::{AtomKind, Target};
use domino_ast::Stage;

fn compile_err(src: &str) -> domino_ast::Diagnostic {
    domino_compiler::compile(src, &Target::banzai(AtomKind::Pairs))
        .expect_err("program must be rejected")
}

#[test]
fn loops_are_rejected_with_line_rate_rationale() {
    let e =
        compile_err("struct P { int a; };\nvoid f(struct P pkt) { while (pkt.a) { pkt.a = 0; } }");
    assert_eq!(e.stage, Stage::Parse);
    assert!(e.message.contains("line rate"), "{e}");
    assert!(e.message.contains("Table 1"), "{e}");
}

#[test]
fn pointer_rejection_names_the_restriction() {
    let e = compile_err("struct P { int a; };\nint *p;\nvoid f(struct P pkt) { }");
    assert!(e.message.contains("pointers are not allowed"), "{e}");
}

#[test]
fn unknown_field_lists_available_fields() {
    let e =
        compile_err("struct P { int sport; int dport; };\nvoid f(struct P pkt) { pkt.sprot = 1; }");
    assert_eq!(e.stage, Stage::Sema);
    assert!(e.message.contains("no field `sprot`"), "{e}");
    assert!(e.message.contains("sport, dport"), "{e}");
}

#[test]
fn conflicting_array_indices_explain_the_memory_constraint() {
    let e = compile_err(
        "struct P { int a; int b; int r; };\nint t[8] = {0};\n\
         void f(struct P pkt) { t[pkt.a] = 1; pkt.r = t[pkt.b]; }",
    );
    assert!(e.message.contains("two different index"), "{e}");
    assert!(e.message.contains("one address per clock cycle"), "{e}");
}

#[test]
fn multiplication_rejection_suggests_alternatives() {
    let e = compile_err(
        "struct P { int a; int b; int r; };\n\
         void f(struct P pkt) { pkt.r = pkt.a * pkt.b; }",
    );
    assert_eq!(e.stage, Stage::CodeGen);
    assert!(e.message.contains("not a line-rate operation"), "{e}");
    assert!(e.message.contains("shifts"), "{e}");
}

#[test]
fn atom_mismatch_names_both_kinds_and_shows_the_codelet() {
    let src = "struct P { int x; };\nint c = 0;\n\
               void f(struct P pkt) { if (pkt.x > 0) { c = c + 1; } }";
    let e = domino_compiler::compile(src, &Target::banzai(AtomKind::Raw)).unwrap_err();
    assert_eq!(e.stage, Stage::CodeGen);
    // Which atom is needed, which the target has, and the offending code.
    assert!(e.message.contains("PRAW"), "{e}");
    assert!(e.message.contains("RAW"), "{e}");
    assert!(e.message.contains("c = "), "{e}");
    // And the same program is accepted one rung up.
    assert!(domino_compiler::compile(src, &Target::banzai(AtomKind::Praw)).is_ok());
}

#[test]
fn missing_intrinsic_unit_names_the_target() {
    let e =
        compile_err("struct P { int a; int r; };\nvoid f(struct P pkt) { pkt.r = isqrt(pkt.a); }");
    assert!(e.message.contains("isqrt"), "{e}");
    assert!(e.message.contains("banzai-pairs"), "{e}");
}

#[test]
fn depth_exhaustion_reports_both_numbers() {
    // A 40-deep dependency chain cannot fit 32 stages.
    let mut body = String::from("pkt.t0 = pkt.a + 1;\n");
    for i in 1..40 {
        body.push_str(&format!("pkt.t{i} = pkt.t{} + 1;\n", i - 1));
    }
    let fields: String = (0..40).map(|i| format!("int t{i};")).collect();
    let src = format!("struct P {{ int a; {fields} }};\nvoid f(struct P pkt) {{ {body} }}");
    let e = compile_err(&src);
    assert!(e.message.contains("40 pipeline stages"), "{e}");
    assert!(e.message.contains("only 32"), "{e}");
}

#[test]
fn local_declarations_point_to_packet_temporaries() {
    let e = compile_err("struct P { int a; };\nvoid f(struct P pkt) { int tmp = pkt.a; }");
    assert!(e.message.contains("packet field as a temporary"), "{e}");
}

#[test]
fn spans_locate_the_error() {
    let e = compile_err("struct P { int a; };\nvoid f(struct P pkt) {\n  pkt.bogus = 1;\n}");
    let rendered = e.to_string();
    // Line 3, where pkt.bogus sits.
    assert!(rendered.contains("3:"), "{rendered}");
}

/// "Compiles or is rejected with a diagnostic" holds for any source text:
/// each of these three killed the process with a stack overflow — no
/// `Diagnostic`, in any program embedding the compiler — before the parser
/// bounded nesting. Built as text, so the test's own 2 MiB stack is the
/// budget the compiler has to stay within.
#[test]
fn runaway_nesting_is_a_parse_error_at_the_offending_token_not_a_stack_overflow() {
    use domino_ast::parser::MAX_NEST;
    let program =
        |body: &str| format!("struct P {{ int a; int r; }};\nvoid f(struct P pkt) {{\n{body}\n}}");
    let parens = |n: usize| format!("pkt.r = {}pkt.a{};", "(".repeat(n), ")".repeat(n));
    let ifs = |n: usize| format!("{}pkt.r = 1;", "if (pkt.a) ".repeat(n));
    let sum = |terms: usize| format!("pkt.r = {};", vec!["pkt.a"; terms].join(" + "));

    // Where each is refused: entering the 65th `(`, at the 65th `if`, on
    // the 65th `+` once its right operand is in.
    let first = "pkt.r = ".len() + 1;
    let (an_if, a_term) = ("if (pkt.a) ".len(), "pkt.a + ".len());
    for (what, body, col) in [
        ("parentheses", parens(3_000), first + MAX_NEST + 1),
        ("ifs", ifs(10_000), an_if * MAX_NEST + 1),
        ("sum", sum(20_000), first + a_term * (MAX_NEST + 1) + 6),
    ] {
        let e = compile_err(&program(&body));
        assert_eq!(e.stage, Stage::Parse, "{what}: {e}");
        assert!(e.message.contains("nests deeper than 64"), "{what}: {e}");
        let at = format!("error[parse] at 3:{col}: ");
        assert!(e.to_string().starts_with(&at), "{what}: {e}");
    }

    // The bound is exact, and what it admits goes through every later pass
    // on this same stack.
    let write = Target::banzai(AtomKind::Write);
    for (what, at_bound, over) in [
        ("parentheses", parens(MAX_NEST), parens(MAX_NEST + 1)),
        ("ifs", ifs(MAX_NEST), ifs(MAX_NEST + 1)),
        ("sum", sum(MAX_NEST + 1), sum(MAX_NEST + 2)),
    ] {
        let accepted = domino_compiler::compile(&program(&at_bound), &write);
        let rejected_for_depth = matches!(&accepted, Err(e) if e.stage == Stage::Parse);
        assert!(!rejected_for_depth, "{what}: {accepted:?}");
        assert_eq!(compile_err(&program(&over)).stage, Stage::Parse, "{what}");
    }
}

/// The slot-compiled fast path must keep [`Packet::expect`]'s diagnostic
/// contract: reading a slot no earlier stage wrote panics with the *field
/// name* (recovered through the `FieldTable`'s reverse mapping), never a
/// bare slot index.
#[test]
#[should_panic(expected = "packet field `a` (slot#")]
fn slot_fast_path_names_missing_fields_not_bare_indices() {
    let src = "struct P { int a; int r; };\nvoid f(struct P pkt) { pkt.r = pkt.a + 1; }";
    let pipeline = domino_compiler::compile(src, &Target::banzai(AtomKind::Write)).unwrap();
    let machine = banzai::SlotMachine::compile(&pipeline).unwrap();
    let table = machine.field_table().clone();
    let id = table.lookup("a").expect("declared fields are interned");
    // An empty flat packet: slot `a` exists in the layout but was never
    // written — exactly the compiler-bug condition `expect` guards.
    domino_ir::FlatPacket::new(table).expect(id);
}

/// And the two engines word the diagnostic identically, so a user hitting
/// the panic on either path searches for the same message.
#[test]
fn missing_field_messages_match_across_engines() {
    let src = "struct P { int a; int r; };\nvoid f(struct P pkt) { pkt.r = pkt.a + 1; }";
    let pipeline = domino_compiler::compile(src, &Target::banzai(AtomKind::Write)).unwrap();
    let machine = banzai::SlotMachine::compile(&pipeline).unwrap();
    let table = machine.field_table().clone();
    let id = table.lookup("a").unwrap();

    let panic_message = |f: Box<dyn FnOnce() + std::panic::UnwindSafe>| -> String {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let result = std::panic::catch_unwind(f);
        std::panic::set_hook(prev); // restore before any assertion can panic
        let err = result.expect_err("closure must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap()
    };

    let flat_msg = panic_message(Box::new(move || {
        domino_ir::FlatPacket::new(table).expect(id);
    }));
    let map_msg = panic_message(Box::new(|| {
        domino_ir::Packet::new().expect("a");
    }));
    assert!(flat_msg.contains("packet field `a`"), "{flat_msg}");
    assert!(map_msg.contains("packet field `a`"), "{map_msg}");
    // Same sentence shape: the flat message only adds the slot number.
    assert!(
        flat_msg.contains("read before any write") && map_msg.contains("read before any write"),
        "flat: {flat_msg}\nmap: {map_msg}"
    );
}

#[test]
fn stage_prefix_tells_users_which_phase_rejected() {
    for (src, needle) in [
        ("@", "error[lex]"),
        ("struct P { int a; };", "error[parse]"),
        (
            "struct P { int a; };\nvoid f(struct P pkt) { pkt.b = 1; }",
            "error[semantic analysis]",
        ),
        (
            "struct P { int a; int r; };\nvoid f(struct P pkt) { pkt.r = pkt.a / 3; }",
            "error[code generation]",
        ),
    ] {
        let e = compile_err(src);
        assert!(e.to_string().starts_with(needle), "{src}: {e}");
    }
}
