//! Recursive-descent parser for the P4-14 subset.

use druzhba_core::{Error, Result};

use crate::ast::{
    ActionArg, ActionDecl, ControlStmt, CounterDecl, FieldRef, HeaderInstance, HeaderType,
    MatchKind, P4Program, Primitive, RegisterDecl, TableDecl,
};
use crate::lexer::{Tok, Token};

/// Parse a token stream. Prefer [`crate::parse_p4`], which also resolves.
pub fn parse(tokens: &[Token]) -> Result<P4Program> {
    let mut p = Parser { tokens, pos: 0 };
    let mut program = P4Program::default();
    while let Some(Tok::Ident(kw)) = p.peek() {
        match kw.as_str() {
            "header_type" => program.header_types.push(p.parse_header_type()?),
            "header" => program.headers.push(p.parse_instance(false)?),
            "metadata" => program.headers.push(p.parse_instance(true)?),
            "parser" => program.parser_extracts = p.parse_parser()?,
            "register" => program.registers.push(p.parse_register()?),
            "counter" => program.counters.push(p.parse_counter()?),
            "action" => program.actions.push(p.parse_action()?),
            "table" => program.tables.push(p.parse_table()?),
            "control" => program.control = p.parse_control()?,
            other => {
                return Err(p.err(format!("unknown top-level declaration `{other}`")));
            }
        }
    }
    if p.peek().is_some() {
        return Err(p.err("trailing tokens after declarations"));
    }
    Ok(program)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl Parser<'_> {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |t| t.line)
    }

    fn err(&self, message: impl Into<String>) -> Error {
        Error::P4Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<()> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<u32> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(v),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        let ident = self.expect_ident(&format!("`{kw}`"))?;
        if ident != kw {
            return Err(self.err(format!("expected `{kw}`, found `{ident}`")));
        }
        Ok(())
    }

    fn peek_is_ident(&self, name: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == name)
    }

    fn parse_header_type(&mut self) -> Result<HeaderType> {
        self.pos += 1; // header_type
        let name = self.expect_ident("header type name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        self.expect_keyword("fields")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut fields = Vec::new();
        while !matches!(self.peek(), Some(Tok::RBrace)) {
            let fname = self.expect_ident("field name")?;
            self.expect(&Tok::Colon, "`:`")?;
            let width = self.expect_int("field width")?;
            if width == 0 || width > 32 {
                return Err(self.err(format!(
                    "field `{fname}` width {width} unsupported (1..=32)"
                )));
            }
            self.expect(&Tok::Semi, "`;`")?;
            fields.push((fname, width));
        }
        self.expect(&Tok::RBrace, "`}`")?;
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(HeaderType { name, fields })
    }

    fn parse_instance(&mut self, metadata: bool) -> Result<HeaderInstance> {
        self.pos += 1; // header | metadata
        let type_name = self.expect_ident("header type name")?;
        let name = self.expect_ident("instance name")?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(HeaderInstance {
            type_name,
            name,
            metadata,
        })
    }

    fn parse_parser(&mut self) -> Result<Vec<String>> {
        self.pos += 1; // parser
        self.expect_keyword("start")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut extracts = Vec::new();
        loop {
            if self.peek_is_ident("extract") {
                self.pos += 1;
                self.expect(&Tok::LParen, "`(`")?;
                extracts.push(self.expect_ident("header instance")?);
                self.expect(&Tok::RParen, "`)`")?;
                self.expect(&Tok::Semi, "`;`")?;
            } else if self.peek_is_ident("return") {
                self.pos += 1;
                let target = self.expect_ident("`ingress`")?;
                if target != "ingress" {
                    return Err(self.err("only `return ingress` is supported"));
                }
                self.expect(&Tok::Semi, "`;`")?;
                break;
            } else {
                return Err(self.err("expected `extract(...)` or `return ingress`"));
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(extracts)
    }

    fn parse_register(&mut self) -> Result<RegisterDecl> {
        self.pos += 1; // register
        let name = self.expect_ident("register name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut width = 32;
        let mut instance_count = 1;
        while let Some(Tok::Ident(kw)) = self.peek() {
            let kw = kw.clone();
            self.pos += 1;
            self.expect(&Tok::Colon, "`:`")?;
            let v = self.expect_int("value")?;
            self.expect(&Tok::Semi, "`;`")?;
            match kw.as_str() {
                "width" => width = v,
                "instance_count" => instance_count = v,
                other => return Err(self.err(format!("unknown register attribute `{other}`"))),
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(RegisterDecl {
            name,
            width,
            instance_count,
        })
    }

    fn parse_counter(&mut self) -> Result<CounterDecl> {
        self.pos += 1; // counter
        let name = self.expect_ident("counter name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut instance_count = 1;
        while let Some(Tok::Ident(kw)) = self.peek() {
            let kw = kw.clone();
            self.pos += 1;
            self.expect(&Tok::Colon, "`:`")?;
            match kw.as_str() {
                "instance_count" => {
                    instance_count = self.expect_int("value")?;
                    self.expect(&Tok::Semi, "`;`")?;
                }
                "type" => {
                    // `type : packets;` — accepted and ignored.
                    self.expect_ident("counter type")?;
                    self.expect(&Tok::Semi, "`;`")?;
                }
                other => return Err(self.err(format!("unknown counter attribute `{other}`"))),
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(CounterDecl {
            name,
            instance_count,
        })
    }

    fn parse_action(&mut self) -> Result<ActionDecl> {
        self.pos += 1; // action
        let name = self.expect_ident("action name")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !matches!(self.peek(), Some(Tok::RParen)) {
            loop {
                params.push(self.expect_ident("parameter name")?);
                match self.next() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    other => return Err(self.err(format!("expected `,` or `)`, got {other:?}"))),
                }
            }
        } else {
            self.pos += 1;
        }
        self.expect(&Tok::LBrace, "`{`")?;
        let mut body = Vec::new();
        while !matches!(self.peek(), Some(Tok::RBrace)) {
            body.push(self.parse_primitive(&params)?);
        }
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(ActionDecl { name, params, body })
    }

    fn parse_arg(&mut self, params: &[String]) -> Result<ActionArg> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(ActionArg::Const(v)),
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::Dot) {
                    self.pos += 1;
                    let field = self.expect_ident("field name")?;
                    Ok(ActionArg::Field(FieldRef {
                        header: name,
                        field,
                    }))
                } else if params.contains(&name) {
                    Ok(ActionArg::Param(name))
                } else {
                    Ok(ActionArg::Stateful(name))
                }
            }
            other => Err(self.err(format!("expected action argument, found {other:?}"))),
        }
    }

    fn arg_as_field(&self, arg: ActionArg, what: &str) -> Result<FieldRef> {
        match arg {
            ActionArg::Field(f) => Ok(f),
            other => Err(self.err(format!("{what} must be a field reference, got {other:?}"))),
        }
    }

    fn arg_as_name(&self, arg: ActionArg, what: &str) -> Result<String> {
        match arg {
            ActionArg::Stateful(n) | ActionArg::Param(n) => Ok(n),
            other => Err(self.err(format!("{what} must be a name, got {other:?}"))),
        }
    }

    /// The arguments of primitive `name`, which takes exactly `N`.
    fn arity<const N: usize>(&self, name: &str, args: Vec<ActionArg>) -> Result<[ActionArg; N]> {
        let argc = args.len();
        args.try_into().map_err(|_| {
            self.err(format!(
                "primitive `{name}` expects {N} argument(s), got {argc}"
            ))
        })
    }

    fn parse_primitive(&mut self, params: &[String]) -> Result<Primitive> {
        let name = self.expect_ident("primitive action")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if !matches!(self.peek(), Some(Tok::RParen)) {
            loop {
                args.push(self.parse_arg(params)?);
                match self.next() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    other => return Err(self.err(format!("expected `,` or `)`, got {other:?}"))),
                }
            }
        } else {
            self.pos += 1;
        }
        self.expect(&Tok::Semi, "`;`")?;

        Ok(match name.as_str() {
            "modify_field" => {
                let [dst, src] = self.arity(&name, args)?;
                Primitive::ModifyField {
                    dst: self.arg_as_field(dst, "modify_field dst")?,
                    src,
                }
            }
            "add_to_field" => {
                let [dst, src] = self.arity(&name, args)?;
                Primitive::AddToField {
                    dst: self.arg_as_field(dst, "add_to_field dst")?,
                    src,
                }
            }
            "subtract_from_field" => {
                let [dst, src] = self.arity(&name, args)?;
                Primitive::SubtractFromField {
                    dst: self.arg_as_field(dst, "subtract_from_field dst")?,
                    src,
                }
            }
            "register_read" => {
                let [dst, register, index] = self.arity(&name, args)?;
                Primitive::RegisterRead {
                    dst: self.arg_as_field(dst, "register_read dst")?,
                    register: self.arg_as_name(register, "register_read register")?,
                    index,
                }
            }
            "register_write" => {
                let [register, index, src] = self.arity(&name, args)?;
                Primitive::RegisterWrite {
                    register: self.arg_as_name(register, "register_write register")?,
                    index,
                    src,
                }
            }
            "count" => {
                let [counter, index] = self.arity(&name, args)?;
                Primitive::Count {
                    counter: self.arg_as_name(counter, "count counter")?,
                    index,
                }
            }
            "drop" => {
                let [] = self.arity(&name, args)?;
                Primitive::Drop
            }
            "no_op" => {
                let [] = self.arity(&name, args)?;
                Primitive::NoOp
            }
            other => return Err(self.err(format!("unknown primitive action `{other}`"))),
        })
    }

    fn parse_table(&mut self) -> Result<TableDecl> {
        self.pos += 1; // table
        let name = self.expect_ident("table name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let mut table = TableDecl {
            name,
            reads: Vec::new(),
            actions: Vec::new(),
            size: 64,
            default_action: None,
        };
        while let Some(Tok::Ident(kw)) = self.peek() {
            let kw = kw.clone();
            self.pos += 1;
            match kw.as_str() {
                "reads" => {
                    self.expect(&Tok::LBrace, "`{`")?;
                    while !matches!(self.peek(), Some(Tok::RBrace)) {
                        let header = self.expect_ident("header instance")?;
                        self.expect(&Tok::Dot, "`.`")?;
                        let field = self.expect_ident("field name")?;
                        self.expect(&Tok::Colon, "`:`")?;
                        let kind_kw = self.expect_ident("match kind")?;
                        let kind = MatchKind::from_keyword(&kind_kw)
                            .ok_or_else(|| self.err(format!("unknown match kind `{kind_kw}`")))?;
                        self.expect(&Tok::Semi, "`;`")?;
                        table.reads.push((FieldRef { header, field }, kind));
                    }
                    self.expect(&Tok::RBrace, "`}`")?;
                }
                "actions" => {
                    self.expect(&Tok::LBrace, "`{`")?;
                    while !matches!(self.peek(), Some(Tok::RBrace)) {
                        table.actions.push(self.expect_ident("action name")?);
                        self.expect(&Tok::Semi, "`;`")?;
                    }
                    self.expect(&Tok::RBrace, "`}`")?;
                }
                "size" => {
                    self.expect(&Tok::Colon, "`:`")?;
                    table.size = self.expect_int("size")?;
                    self.expect(&Tok::Semi, "`;`")?;
                }
                "default_action" => {
                    self.expect(&Tok::Colon, "`:`")?;
                    table.default_action = Some(self.expect_ident("action name")?);
                    if self.peek() == Some(&Tok::LParen) {
                        self.pos += 1;
                        self.expect(&Tok::RParen, "`)`")?;
                    }
                    self.expect(&Tok::Semi, "`;`")?;
                }
                other => return Err(self.err(format!("unknown table attribute `{other}`"))),
            }
        }
        self.expect(&Tok::RBrace, "`}`")?;
        Ok(table)
    }

    fn parse_control(&mut self) -> Result<Vec<ControlStmt>> {
        self.pos += 1; // control
        let name = self.expect_ident("control name")?;
        if name != "ingress" {
            return Err(self.err("only `control ingress` is supported"));
        }
        self.parse_control_block()
    }

    fn parse_control_block(&mut self) -> Result<Vec<ControlStmt>> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.pos += 1;
                    return Ok(stmts);
                }
                Some(Tok::Ident(kw)) if kw == "apply" => {
                    self.pos += 1;
                    self.expect(&Tok::LParen, "`(`")?;
                    let table = self.expect_ident("table name")?;
                    self.expect(&Tok::RParen, "`)`")?;
                    self.expect(&Tok::Semi, "`;`")?;
                    stmts.push(ControlStmt::Apply(table));
                }
                Some(Tok::Ident(kw)) if kw == "if" => {
                    self.pos += 1;
                    self.expect(&Tok::LParen, "`(`")?;
                    self.expect_keyword("valid")?;
                    self.expect(&Tok::LParen, "`(`")?;
                    let header = self.expect_ident("header instance")?;
                    self.expect(&Tok::RParen, "`)`")?;
                    self.expect(&Tok::RParen, "`)`")?;
                    let then_body = self.parse_control_block()?;
                    let else_body = if self.peek_is_ident("else") {
                        self.pos += 1;
                        self.parse_control_block()?
                    } else {
                        Vec::new()
                    };
                    stmts.push(ControlStmt::IfValid {
                        header,
                        then_body,
                        else_body,
                    });
                }
                other => return Err(self.err(format!("unexpected control statement {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const SAMPLE: &str = r#"
        header_type ethernet_t {
            fields {
                dst : 32;
                src : 32;
                etype : 16;
            }
        }
        header_type meta_t {
            fields { nhop : 32; }
        }
        header ethernet_t ethernet;
        metadata meta_t meta;
        parser start {
            extract(ethernet);
            return ingress;
        }
        register flow_count {
            width : 32;
            instance_count : 1024;
        }
        counter pkt_counter {
            type : packets;
            instance_count : 16;
        }
        action set_nhop(nhop) {
            modify_field(meta.nhop, nhop);
            count(pkt_counter, 0);
        }
        action bump() {
            add_to_field(ethernet.etype, 1);
        }
        action _drop() {
            drop();
        }
        table forward {
            reads {
                ethernet.dst : exact;
                ethernet.etype : ternary;
            }
            actions {
                set_nhop;
                _drop;
            }
            size : 512;
            default_action : _drop;
        }
        table mangle {
            reads { meta.nhop : lpm; }
            actions { bump; }
            size : 16;
        }
        control ingress {
            apply(forward);
            if (valid(ethernet)) {
                apply(mangle);
            }
        }
    "#;

    fn parsed() -> P4Program {
        parse(&lex(SAMPLE).unwrap()).unwrap()
    }

    #[test]
    fn parses_header_types_and_instances() {
        let p = parsed();
        assert_eq!(p.header_types.len(), 2);
        assert_eq!(p.header_types[0].fields.len(), 3);
        assert_eq!(p.headers.len(), 2);
        assert!(p.headers[1].metadata);
        assert_eq!(p.parser_extracts, vec!["ethernet"]);
    }

    #[test]
    fn parses_stateful_decls() {
        let p = parsed();
        assert_eq!(p.registers[0].instance_count, 1024);
        assert_eq!(p.counters[0].instance_count, 16);
    }

    #[test]
    fn parses_actions_with_params_and_primitives() {
        let p = parsed();
        let a = p.action("set_nhop").unwrap();
        assert_eq!(a.params, vec!["nhop"]);
        assert_eq!(a.body.len(), 2);
        assert!(matches!(
            &a.body[0],
            Primitive::ModifyField {
                src: ActionArg::Param(p),
                ..
            } if p == "nhop"
        ));
        assert!(matches!(&a.body[1], Primitive::Count { .. }));
    }

    #[test]
    fn parses_tables() {
        let p = parsed();
        let t = p.table("forward").unwrap();
        assert_eq!(t.reads.len(), 2);
        assert_eq!(t.reads[0].1, MatchKind::Exact);
        assert_eq!(t.reads[1].1, MatchKind::Ternary);
        assert_eq!(t.actions, vec!["set_nhop", "_drop"]);
        assert_eq!(t.size, 512);
        assert_eq!(t.default_action.as_deref(), Some("_drop"));
        assert_eq!(p.table("mangle").unwrap().reads[0].1, MatchKind::Lpm);
    }

    #[test]
    fn parses_control_flow() {
        let p = parsed();
        assert_eq!(p.control.len(), 2);
        assert!(matches!(&p.control[0], ControlStmt::Apply(t) if t == "forward"));
        assert!(matches!(&p.control[1], ControlStmt::IfValid { .. }));
        assert_eq!(p.applied_tables(), vec!["forward", "mangle"]);
    }

    #[test]
    fn rejects_unknown_primitive() {
        let src = "action a() { frobnicate(); } ";
        assert!(parse(&lex(src).unwrap()).is_err());
    }

    #[test]
    fn primitive_arity_errors_name_the_expected_count() {
        let cases = [
            (
                "modify_field(m.a)",
                "primitive `modify_field` expects 2 argument(s), got 1",
            ),
            (
                "add_to_field(m.a, 1, 2)",
                "primitive `add_to_field` expects 2 argument(s), got 3",
            ),
            (
                "subtract_from_field()",
                "primitive `subtract_from_field` expects 2 argument(s), got 0",
            ),
            (
                "register_read(m.a, r)",
                "primitive `register_read` expects 3 argument(s), got 2",
            ),
            (
                "register_write(r, 0, 1, 2)",
                "primitive `register_write` expects 3 argument(s), got 4",
            ),
            ("count(c)", "primitive `count` expects 2 argument(s), got 1"),
        ];
        for (call, message) in cases {
            let src = format!("action a() {{ {call}; }}");
            match parse(&lex(&src).unwrap()) {
                Err(Error::P4Parse { message: got, .. }) => assert_eq!(got, message, "{call}"),
                other => panic!("{call}: expected an arity error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_match_kind() {
        let src = "table t { reads { a.b : range; } }";
        assert!(parse(&lex(src).unwrap()).is_err());
    }

    #[test]
    fn rejects_wide_fields() {
        let src = "header_type h { fields { x : 48; } }";
        // 48-bit fields exceed the 32-bit machine value domain.
        assert!(parse(&lex(src).unwrap()).is_err());
    }
}
