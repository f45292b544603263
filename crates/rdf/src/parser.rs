//! A hand-written parser for the SPARQL subset the workspace speaks.
//!
//! Supported:
//!
//! ```sparql
//! PREFIX ex: <http://example.org/>
//! SELECT DISTINCT ?s (COUNT(?o) AS ?n)
//! WHERE {
//!   ?s ex:p ?o ; ex:q "lit" .
//!   OPTIONAL { ?o ex:r ?x }
//!   FILTER(?n > 3 && geof:sfIntersects(?g, "POINT (1 2)"^^geo:wktLiteral))
//! }
//! GROUP BY ?s
//! ORDER BY DESC(?n)
//! LIMIT 10 OFFSET 5
//! ```
//!
//! GeoSPARQL functions are recognised by local name (`sfIntersects`,
//! `sfContains`, `sfWithin`, `distance`) under any prefix.

use crate::expr::{CmpOp, Expr, SpatialOp};
use crate::term::{Term, XSD_DOUBLE, XSD_INTEGER};
use crate::RdfError;
use std::collections::HashMap;

/// A subject/predicate/object position: variable or constant.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternTerm {
    /// `?name`
    Var(String),
    /// A concrete term.
    Const(Term),
}

/// One triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    /// Subject.
    pub s: PatternTerm,
    /// Predicate.
    pub p: PatternTerm,
    /// Object.
    pub o: PatternTerm,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

/// One item of the SELECT clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain variable.
    Var(String),
    /// `(AGG(?v) AS ?alias)`; `var == None` means `COUNT(*)`.
    Agg {
        /// The function.
        func: AggFunc,
        /// Aggregated variable (None for `COUNT(*)`).
        var: Option<String>,
        /// Output name.
        alias: String,
    },
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT items; empty with `star == true` means `SELECT *`.
    pub select: Vec<SelectItem>,
    /// `SELECT *`.
    pub star: bool,
    /// `DISTINCT`.
    pub distinct: bool,
    /// Required basic graph pattern.
    pub patterns: Vec<TriplePattern>,
    /// OPTIONAL groups.
    pub optionals: Vec<Vec<TriplePattern>>,
    /// FILTER expressions (conjoined).
    pub filters: Vec<Expr>,
    /// GROUP BY variables.
    pub group_by: Vec<String>,
    /// ORDER BY (variable, ascending).
    pub order_by: Option<(String, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: Option<usize>,
    /// `AS OF <hexid>` — pin evaluation to the store as of that commit
    /// id (16 lowercase hex digits, as reported by the serving tier's
    /// `X-Commit` header). `None` reads the head.
    pub as_of: Option<u64>,
}

/// One operation of a SPARQL UPDATE request.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// `INSERT DATA { ... }` — ground triples to add.
    InsertData(Vec<(Term, Term, Term)>),
    /// `DELETE DATA { ... }` — ground triples to remove.
    DeleteData(Vec<(Term, Term, Term)>),
    /// `DELETE WHERE { ... }` — remove every instantiation of the
    /// pattern group (the group is both template and WHERE clause).
    DeleteWhere(Vec<TriplePattern>),
    /// `INSERT { template } WHERE { patterns }` — instantiate the
    /// template with every solution of the WHERE group and add the
    /// resulting ground triples. Every template variable must be bound
    /// by the WHERE group (checked at parse time).
    InsertWhere {
        /// Triple templates instantiated once per solution.
        template: Vec<TriplePattern>,
        /// The WHERE group, evaluated as `SELECT *` through the
        /// ordinary plan machinery.
        patterns: Vec<TriplePattern>,
    },
}

/// A parsed SPARQL UPDATE request: one or more operations separated by
/// `;`, sharing one PREFIX header. The supported subset is `INSERT
/// DATA`, `INSERT … WHERE`, `DELETE DATA` and `DELETE WHERE`.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Operations in request order.
    pub ops: Vec<UpdateOp>,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Iri(String),
    Pname(String, String),
    Var(String),
    Str(String),
    Num(String),
    Word(String),
    Punct(&'static str),
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> RdfError {
        RdfError::Parse(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b'#' {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<Tok, RdfError> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(Tok::Eof);
        }
        let b = self.src[self.pos];
        match b {
            b'<' => {
                let start = self.pos + 1;
                let mut end = start;
                while end < self.src.len() && self.src[end] != b'>' {
                    end += 1;
                }
                if end == self.src.len() {
                    // No closing '>' anywhere: a comparison operator.
                    self.pos += 1;
                    if self.src.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        return Ok(Tok::Punct("<="));
                    }
                    return Ok(Tok::Punct("<"));
                }
                let content = &self.src[start..end];
                if content.iter().any(|c| c.is_ascii_whitespace()) {
                    // It's a less-than, not an IRI.
                    self.pos += 1;
                    if self.pos < self.src.len() && self.src[self.pos] == b'=' {
                        self.pos += 1;
                        return Ok(Tok::Punct("<="));
                    }
                    return Ok(Tok::Punct("<"));
                }
                self.pos = end + 1;
                Ok(Tok::Iri(String::from_utf8_lossy(content).into_owned()))
            }
            b'?' | b'$' => {
                let start = self.pos + 1;
                let mut end = start;
                while end < self.src.len()
                    && (self.src[end].is_ascii_alphanumeric() || self.src[end] == b'_')
                {
                    end += 1;
                }
                if end == start {
                    return Err(self.error("empty variable name"));
                }
                self.pos = end;
                Ok(Tok::Var(String::from_utf8_lossy(&self.src[start..end]).into_owned()))
            }
            b'"' => {
                let mut out = String::new();
                let mut i = self.pos + 1;
                while i < self.src.len() && self.src[i] != b'"' {
                    if self.src[i] == b'\\' && i + 1 < self.src.len() {
                        i += 1;
                        out.push(match self.src[i] {
                            b'n' => '\n',
                            b't' => '\t',
                            other => other as char,
                        });
                    } else {
                        out.push(self.src[i] as char);
                    }
                    i += 1;
                }
                if i >= self.src.len() {
                    return Err(self.error("unterminated string"));
                }
                self.pos = i + 1;
                Ok(Tok::Str(out))
            }
            b'0'..=b'9' => self.lex_number(),
            b'-' => {
                // Negative number or minus operator: number if a digit follows.
                if self.pos + 1 < self.src.len() && self.src[self.pos + 1].is_ascii_digit() {
                    self.lex_number()
                } else {
                    self.pos += 1;
                    Ok(Tok::Punct("-"))
                }
            }
            b'{' | b'}' | b'(' | b')' | b'.' | b';' | b',' | b'*' | b'+' | b'/' => {
                self.pos += 1;
                Ok(Tok::Punct(match b {
                    b'{' => "{",
                    b'}' => "}",
                    b'(' => "(",
                    b')' => ")",
                    b'.' => ".",
                    b';' => ";",
                    b',' => ",",
                    b'*' => "*",
                    b'+' => "+",
                    _ => "/",
                }))
            }
            b'^' => {
                if self.src.get(self.pos + 1) == Some(&b'^') {
                    self.pos += 2;
                    Ok(Tok::Punct("^^"))
                } else {
                    Err(self.error("lone '^'"))
                }
            }
            b'&' => {
                if self.src.get(self.pos + 1) == Some(&b'&') {
                    self.pos += 2;
                    Ok(Tok::Punct("&&"))
                } else {
                    Err(self.error("lone '&'"))
                }
            }
            b'|' => {
                if self.src.get(self.pos + 1) == Some(&b'|') {
                    self.pos += 2;
                    Ok(Tok::Punct("||"))
                } else {
                    Err(self.error("lone '|'"))
                }
            }
            b'=' => {
                self.pos += 1;
                Ok(Tok::Punct("="))
            }
            b'!' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Ok(Tok::Punct("!="))
                } else {
                    self.pos += 1;
                    Ok(Tok::Punct("!"))
                }
            }
            b'>' => {
                if self.src.get(self.pos + 1) == Some(&b'=') {
                    self.pos += 2;
                    Ok(Tok::Punct(">="))
                } else {
                    self.pos += 1;
                    Ok(Tok::Punct(">"))
                }
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let start = self.pos;
                let mut end = start;
                while end < self.src.len()
                    && (self.src[end].is_ascii_alphanumeric()
                        || self.src[end] == b'_'
                        || self.src[end] == b'-')
                {
                    end += 1;
                }
                // Prefixed name?
                if end < self.src.len() && self.src[end] == b':' {
                    let prefix = String::from_utf8_lossy(&self.src[start..end]).into_owned();
                    let lstart = end + 1;
                    let mut lend = lstart;
                    while lend < self.src.len()
                        && (self.src[lend].is_ascii_alphanumeric()
                            || self.src[lend] == b'_'
                            || self.src[lend] == b'-')
                    {
                        lend += 1;
                    }
                    self.pos = lend;
                    return Ok(Tok::Pname(
                        prefix,
                        String::from_utf8_lossy(&self.src[lstart..lend]).into_owned(),
                    ));
                }
                self.pos = end;
                Ok(Tok::Word(
                    String::from_utf8_lossy(&self.src[start..end]).into_owned(),
                ))
            }
            b':' => {
                // Default-prefix pname `:local`.
                let lstart = self.pos + 1;
                let mut lend = lstart;
                while lend < self.src.len()
                    && (self.src[lend].is_ascii_alphanumeric()
                        || self.src[lend] == b'_'
                        || self.src[lend] == b'-')
                {
                    lend += 1;
                }
                self.pos = lend;
                Ok(Tok::Pname(
                    String::new(),
                    String::from_utf8_lossy(&self.src[lstart..lend]).into_owned(),
                ))
            }
            other => Err(self.error(&format!("unexpected character {:?}", other as char))),
        }
    }

    fn lex_number(&mut self) -> Result<Tok, RdfError> {
        let start = self.pos;
        let mut end = self.pos;
        if self.src[end] == b'-' {
            end += 1;
        }
        let mut has_dot = false;
        while end < self.src.len() {
            match self.src[end] {
                b'0'..=b'9' => end += 1,
                b'.' if !has_dot
                    && end + 1 < self.src.len()
                    && self.src[end + 1].is_ascii_digit() =>
                {
                    has_dot = true;
                    end += 1;
                }
                b'e' | b'E'
                    if end + 1 < self.src.len()
                        && (self.src[end + 1].is_ascii_digit()
                            || self.src[end + 1] == b'-'
                            || self.src[end + 1] == b'+') =>
                {
                    has_dot = true; // exponent implies double
                    end += 2;
                }
                _ => break,
            }
        }
        self.pos = end;
        Ok(Tok::Num(
            String::from_utf8_lossy(&self.src[start..end]).into_owned(),
        ))
    }
}

/// The parser.
pub struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    prefixes: HashMap<String, String>,
}

/// Parse a query string.
pub fn parse_query(src: &str) -> Result<Query, RdfError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lexer.next()?;
        let end = t == Tok::Eof;
        toks.push(t);
        if end {
            break;
        }
    }
    let mut p = Parser {
        toks,
        pos: 0,
        prefixes: default_prefixes(),
    };
    p.query()
}

/// Parse a SPARQL UPDATE string (`INSERT DATA` / `DELETE DATA` /
/// `DELETE WHERE`, `;`-separated, with an optional shared PREFIX
/// header).
pub fn parse_update(src: &str) -> Result<Update, RdfError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lexer.next()?;
        let end = t == Tok::Eof;
        toks.push(t);
        if end {
            break;
        }
    }
    let mut p = Parser {
        toks,
        pos: 0,
        prefixes: default_prefixes(),
    };
    p.update()
}

fn default_prefixes() -> HashMap<String, String> {
    let mut m = HashMap::new();
    m.insert("xsd".into(), "http://www.w3.org/2001/XMLSchema#".into());
    m.insert("geo".into(), "http://www.opengis.net/ont/geosparql#".into());
    m.insert(
        "geof".into(),
        "http://www.opengis.net/def/function/geosparql/".into(),
    );
    m.insert(
        "rdf".into(),
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#".into(),
    );
    m
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn advance(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: &str) -> RdfError {
        RdfError::Parse(format!("{msg}, found {:?}", self.peek()))
    }

    fn eat_punct(&mut self, p: &str) -> Result<(), RdfError> {
        match self.peek() {
            Tok::Punct(q) if *q == p => {
                self.advance();
                Ok(())
            }
            _ => Err(self.error(&format!("expected '{p}'"))),
        }
    }

    fn is_word(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_word(&mut self, kw: &str) -> Result<(), RdfError> {
        if self.is_word(kw) {
            self.advance();
            Ok(())
        } else {
            Err(self.error(&format!("expected keyword {kw}")))
        }
    }

    fn expand(&self, prefix: &str, local: &str) -> Result<String, RdfError> {
        self.prefixes
            .get(prefix)
            .map(|base| format!("{base}{local}"))
            .ok_or_else(|| RdfError::Parse(format!("unknown prefix {prefix:?}")))
    }

    fn prefix_decls(&mut self) -> Result<(), RdfError> {
        while self.is_word("PREFIX") {
            self.advance();
            let (prefix, _) = match self.advance() {
                Tok::Pname(p, l) if l.is_empty() => (p, l),
                other => {
                    return Err(RdfError::Parse(format!(
                        "expected 'prefix:' after PREFIX, found {other:?}"
                    )))
                }
            };
            let iri = match self.advance() {
                Tok::Iri(i) => i,
                other => {
                    return Err(RdfError::Parse(format!(
                        "expected <iri> after PREFIX, found {other:?}"
                    )))
                }
            };
            self.prefixes.insert(prefix, iri);
        }
        Ok(())
    }

    fn query(&mut self) -> Result<Query, RdfError> {
        self.prefix_decls()?;
        self.eat_word("SELECT")?;
        let distinct = if self.is_word("DISTINCT") {
            self.advance();
            true
        } else {
            false
        };
        let mut select = Vec::new();
        let mut star = false;
        loop {
            match self.peek().clone() {
                Tok::Punct("*") => {
                    self.advance();
                    star = true;
                }
                Tok::Var(v) => {
                    self.advance();
                    select.push(SelectItem::Var(v));
                }
                Tok::Punct("(") => {
                    self.advance();
                    select.push(self.aggregate()?);
                }
                _ => break,
            }
        }
        if select.is_empty() && !star {
            return Err(self.error("SELECT needs variables, aggregates or *"));
        }
        self.eat_word("WHERE")?;
        self.eat_punct("{")?;
        let mut patterns = Vec::new();
        let mut optionals = Vec::new();
        let mut filters = Vec::new();
        self.group_body(&mut patterns, &mut optionals, &mut filters)?;
        self.eat_punct("}")?;

        let mut group_by = Vec::new();
        if self.is_word("GROUP") {
            self.advance();
            self.eat_word("BY")?;
            while let Tok::Var(v) = self.peek().clone() {
                self.advance();
                group_by.push(v);
            }
            if group_by.is_empty() {
                return Err(self.error("GROUP BY needs variables"));
            }
        }
        let mut order_by = None;
        if self.is_word("ORDER") {
            self.advance();
            self.eat_word("BY")?;
            let asc = if self.is_word("DESC") {
                self.advance();
                false
            } else {
                if self.is_word("ASC") {
                    self.advance();
                }
                true
            };
            let parened = matches!(self.peek(), Tok::Punct("("));
            if parened {
                self.advance();
            }
            let v = match self.advance() {
                Tok::Var(v) => v,
                other => return Err(RdfError::Parse(format!("ORDER BY expects ?var, found {other:?}"))),
            };
            if parened {
                self.eat_punct(")")?;
            }
            order_by = Some((v, asc));
        }
        let mut limit = None;
        let mut offset = None;
        let mut as_of = None;
        loop {
            if self.is_word("LIMIT") {
                self.advance();
                limit = Some(self.number_usize()?);
            } else if self.is_word("OFFSET") {
                self.advance();
                offset = Some(self.number_usize()?);
            } else if self.is_word("AS") {
                self.advance();
                self.eat_word("OF")?;
                let id = match self.advance() {
                    Tok::Iri(text) => u64::from_str_radix(&text, 16).map_err(|_| {
                        RdfError::Parse(format!("AS OF expects a hex commit id, found <{text}>"))
                    })?,
                    other => {
                        return Err(RdfError::Parse(format!(
                            "AS OF expects <hexid>, found {other:?}"
                        )))
                    }
                };
                as_of = Some(id);
            } else {
                break;
            }
        }
        if self.peek() != &Tok::Eof {
            return Err(self.error("trailing tokens after query"));
        }
        Ok(Query {
            select,
            star,
            distinct,
            patterns,
            optionals,
            filters,
            group_by,
            order_by,
            limit,
            offset,
            as_of,
        })
    }

    fn update(&mut self) -> Result<Update, RdfError> {
        self.prefix_decls()?;
        let mut ops = Vec::new();
        loop {
            if self.is_word("INSERT") {
                self.advance();
                if self.is_word("DATA") {
                    self.advance();
                    ops.push(UpdateOp::InsertData(self.ground_block()?));
                } else if matches!(self.peek(), Tok::Punct("{")) {
                    let template = self.pattern_block()?;
                    if template.is_empty() {
                        return Err(RdfError::Parse(
                            "INSERT WHERE needs at least one template triple".into(),
                        ));
                    }
                    self.eat_word("WHERE")?;
                    let patterns = self.pattern_block()?;
                    if patterns.is_empty() {
                        return Err(RdfError::Parse(
                            "INSERT WHERE needs at least one triple pattern".into(),
                        ));
                    }
                    // Every template variable must be bound by the WHERE
                    // group, or instantiation could never ground it.
                    let bound: std::collections::HashSet<&str> = patterns
                        .iter()
                        .flat_map(|p| [&p.s, &p.p, &p.o])
                        .filter_map(|t| match t {
                            PatternTerm::Var(v) => Some(v.as_str()),
                            PatternTerm::Const(_) => None,
                        })
                        .collect();
                    for t in template.iter().flat_map(|p| [&p.s, &p.p, &p.o]) {
                        if let PatternTerm::Var(v) = t {
                            if !bound.contains(v.as_str()) {
                                return Err(RdfError::Parse(format!(
                                    "template variable ?{v} is not bound by the WHERE group"
                                )));
                            }
                        }
                    }
                    ops.push(UpdateOp::InsertWhere { template, patterns });
                } else {
                    return Err(self.error("expected DATA or { template } WHERE after INSERT"));
                }
            } else if self.is_word("DELETE") {
                self.advance();
                if self.is_word("DATA") {
                    self.advance();
                    ops.push(UpdateOp::DeleteData(self.ground_block()?));
                } else if self.is_word("WHERE") {
                    self.advance();
                    let patterns = self.pattern_block()?;
                    if patterns.is_empty() {
                        return Err(RdfError::Parse(
                            "DELETE WHERE needs at least one triple pattern".into(),
                        ));
                    }
                    ops.push(UpdateOp::DeleteWhere(patterns));
                } else {
                    return Err(self.error("expected DATA or WHERE after DELETE"));
                }
            } else {
                return Err(self.error(
                    "expected INSERT DATA, INSERT { } WHERE, DELETE DATA or DELETE WHERE",
                ));
            }
            if matches!(self.peek(), Tok::Punct(";")) {
                self.advance();
            }
            if self.peek() == &Tok::Eof {
                break;
            }
        }
        Ok(Update { ops })
    }

    /// `{ triples }` where every position must be a concrete term.
    fn ground_block(&mut self) -> Result<Vec<(Term, Term, Term)>, RdfError> {
        let patterns = self.pattern_block()?;
        let mut out = Vec::with_capacity(patterns.len());
        for tp in patterns {
            let (PatternTerm::Const(s), PatternTerm::Const(p), PatternTerm::Const(o)) =
                (tp.s, tp.p, tp.o)
            else {
                return Err(RdfError::Parse(
                    "variables are not allowed in INSERT DATA / DELETE DATA".into(),
                ));
            };
            out.push((s, p, o));
        }
        Ok(out)
    }

    /// `{ triple_block* }` with no FILTER/OPTIONAL.
    fn pattern_block(&mut self) -> Result<Vec<TriplePattern>, RdfError> {
        self.eat_punct("{")?;
        let mut patterns = Vec::new();
        while !matches!(self.peek(), Tok::Punct("}")) {
            if self.peek() == &Tok::Eof {
                return Err(self.error("unterminated block"));
            }
            self.triple_block(&mut patterns)?;
        }
        self.eat_punct("}")?;
        Ok(patterns)
    }

    fn number_usize(&mut self) -> Result<usize, RdfError> {
        match self.advance() {
            Tok::Num(n) => n
                .parse::<usize>()
                .map_err(|_| RdfError::Parse(format!("bad count {n:?}"))),
            other => Err(RdfError::Parse(format!("expected a number, found {other:?}"))),
        }
    }

    fn aggregate(&mut self) -> Result<SelectItem, RdfError> {
        let func = match self.advance() {
            Tok::Word(w) => match w.to_ascii_uppercase().as_str() {
                "COUNT" => AggFunc::Count,
                "SUM" => AggFunc::Sum,
                "AVG" => AggFunc::Avg,
                "MIN" => AggFunc::Min,
                "MAX" => AggFunc::Max,
                other => return Err(RdfError::Parse(format!("unknown aggregate {other}"))),
            },
            other => return Err(RdfError::Parse(format!("expected aggregate, found {other:?}"))),
        };
        self.eat_punct("(")?;
        let var = match self.peek().clone() {
            Tok::Punct("*") => {
                self.advance();
                None
            }
            Tok::Var(v) => {
                self.advance();
                Some(v)
            }
            _ => return Err(self.error("aggregate expects ?var or *")),
        };
        self.eat_punct(")")?;
        self.eat_word("AS")?;
        let alias = match self.advance() {
            Tok::Var(v) => v,
            other => return Err(RdfError::Parse(format!("AS expects ?var, found {other:?}"))),
        };
        self.eat_punct(")")?;
        Ok(SelectItem::Agg { func, var, alias })
    }

    fn group_body(
        &mut self,
        patterns: &mut Vec<TriplePattern>,
        optionals: &mut Vec<Vec<TriplePattern>>,
        filters: &mut Vec<Expr>,
    ) -> Result<(), RdfError> {
        loop {
            match self.peek().clone() {
                Tok::Punct("}") => return Ok(()),
                Tok::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.advance();
                    self.eat_punct("(")?;
                    let e = self.expr()?;
                    self.eat_punct(")")?;
                    filters.push(e);
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.advance();
                    self.eat_punct("{")?;
                    let mut inner = Vec::new();
                    let mut inner_opt = Vec::new();
                    let mut inner_filters = Vec::new();
                    self.group_body(&mut inner, &mut inner_opt, &mut inner_filters)?;
                    if !inner_opt.is_empty() || !inner_filters.is_empty() {
                        return Err(RdfError::Parse(
                            "nested OPTIONAL/FILTER inside OPTIONAL is not supported".into(),
                        ));
                    }
                    self.eat_punct("}")?;
                    optionals.push(inner);
                }
                Tok::Eof => return Err(self.error("unterminated group")),
                _ => {
                    self.triple_block(patterns)?;
                }
            }
        }
    }

    /// `subject pred obj (; pred obj)* .?`
    fn triple_block(&mut self, patterns: &mut Vec<TriplePattern>) -> Result<(), RdfError> {
        let s = self.pattern_term()?;
        loop {
            let p = self.pattern_term()?;
            let o = self.pattern_term()?;
            patterns.push(TriplePattern {
                s: s.clone(),
                p,
                o,
            });
            match self.peek() {
                Tok::Punct(";") => {
                    self.advance();
                    // Allow trailing ';' before '.' or '}'.
                    if matches!(self.peek(), Tok::Punct(".") | Tok::Punct("}")) {
                        break;
                    }
                }
                _ => break,
            }
        }
        if matches!(self.peek(), Tok::Punct(".")) {
            self.advance();
        }
        Ok(())
    }

    fn pattern_term(&mut self) -> Result<PatternTerm, RdfError> {
        match self.advance() {
            Tok::Var(v) => Ok(PatternTerm::Var(v)),
            Tok::Iri(i) => Ok(PatternTerm::Const(Term::iri(i))),
            Tok::Pname(p, l) => {
                if p.is_empty() && l == "a" {
                    // never reached: 'a' lexes as Word
                }
                Ok(PatternTerm::Const(Term::iri(self.expand(&p, &l)?)))
            }
            Tok::Word(w) if w == "a" => Ok(PatternTerm::Const(Term::iri(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            ))),
            Tok::Word(w) if w.eq_ignore_ascii_case("true") => {
                Ok(PatternTerm::Const(Term::boolean(true)))
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("false") => {
                Ok(PatternTerm::Const(Term::boolean(false)))
            }
            Tok::Num(n) => Ok(PatternTerm::Const(number_term(&n))),
            Tok::Str(s) => {
                // Optional datatype.
                if matches!(self.peek(), Tok::Punct("^^")) {
                    self.advance();
                    let dt = match self.advance() {
                        Tok::Iri(i) => i,
                        Tok::Pname(p, l) => self.expand(&p, &l)?,
                        other => {
                            return Err(RdfError::Parse(format!(
                                "expected datatype after ^^, found {other:?}"
                            )))
                        }
                    };
                    Ok(PatternTerm::Const(Term::Literal {
                        lexical: s,
                        datatype: dt,
                    }))
                } else {
                    Ok(PatternTerm::Const(Term::string(s)))
                }
            }
            other => Err(RdfError::Parse(format!(
                "expected a term or variable, found {other:?}"
            ))),
        }
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, RdfError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, RdfError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Tok::Punct("||")) {
            self.advance();
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, RdfError> {
        let mut lhs = self.cmp_expr()?;
        while matches!(self.peek(), Tok::Punct("&&")) {
            self.advance();
            let rhs = self.cmp_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, RdfError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Punct("=") => CmpOp::Eq,
            Tok::Punct("!=") => CmpOp::Ne,
            Tok::Punct("<") => CmpOp::Lt,
            Tok::Punct("<=") => CmpOp::Le,
            Tok::Punct(">") => CmpOp::Gt,
            Tok::Punct(">=") => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.add_expr()?;
        Ok(Expr::Cmp(Box::new(lhs), op, Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr, RdfError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => '+',
                Tok::Punct("-") => '-',
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.mul_expr()?;
            lhs = Expr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, RdfError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("*") => '*',
                Tok::Punct("/") => '/',
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.unary_expr()?;
            lhs = Expr::Arith(Box::new(lhs), op, Box::new(rhs));
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, RdfError> {
        match self.peek().clone() {
            Tok::Punct("!") => {
                self.advance();
                Ok(Expr::Not(Box::new(self.unary_expr()?)))
            }
            Tok::Punct("(") => {
                self.advance();
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(e)
            }
            Tok::Var(v) => {
                self.advance();
                Ok(Expr::Var(v))
            }
            Tok::Pname(_, local) => {
                // A function call like geof:sfIntersects(...).
                let tok = self.advance();
                if matches!(self.peek(), Tok::Punct("(")) {
                    self.function_call(&local)
                } else if let Tok::Pname(p, l) = tok {
                    Ok(Expr::Const(Term::iri(self.expand(&p, &l)?)))
                } else {
                    unreachable!()
                }
            }
            Tok::Iri(i) => {
                self.advance();
                Ok(Expr::Const(Term::iri(i)))
            }
            Tok::Num(n) => {
                self.advance();
                Ok(Expr::Const(number_term(&n)))
            }
            Tok::Str(_) => {
                let PatternTerm::Const(t) = self.pattern_term()? else {
                    unreachable!()
                };
                Ok(Expr::Const(t))
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("true") => {
                self.advance();
                Ok(Expr::Const(Term::boolean(true)))
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("false") => {
                self.advance();
                Ok(Expr::Const(Term::boolean(false)))
            }
            _ => Err(self.error("expected an expression")),
        }
    }

    fn function_call(&mut self, local: &str) -> Result<Expr, RdfError> {
        self.eat_punct("(")?;
        let a = self.expr()?;
        self.eat_punct(",")?;
        let b = self.expr()?;
        self.eat_punct(")")?;
        let e = match local {
            "sfIntersects" => Expr::Spatial(SpatialOp::Intersects, Box::new(a), Box::new(b)),
            "sfContains" => Expr::Spatial(SpatialOp::Contains, Box::new(a), Box::new(b)),
            "sfWithin" => Expr::Spatial(SpatialOp::Within, Box::new(a), Box::new(b)),
            "distance" => Expr::Distance(Box::new(a), Box::new(b)),
            other => {
                return Err(RdfError::Parse(format!("unsupported function {other:?}")))
            }
        };
        Ok(e)
    }
}

fn number_term(n: &str) -> Term {
    if n.contains('.') || n.contains('e') || n.contains('E') {
        Term::Literal {
            lexical: n.to_string(),
            datatype: XSD_DOUBLE.to_string(),
        }
    } else {
        Term::Literal {
            lexical: n.to_string(),
            datatype: XSD_INTEGER.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select() {
        let q = parse_query("SELECT ?s WHERE { ?s <http://e/p> ?o . }").unwrap();
        assert_eq!(q.select, vec![SelectItem::Var("s".into())]);
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.patterns[0].p, PatternTerm::Const(Term::iri("http://e/p")));
        assert!(!q.distinct);
    }

    #[test]
    fn prefixes_expand() {
        let q = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:name \"Alice\" }",
        )
        .unwrap();
        assert_eq!(
            q.patterns[0].p,
            PatternTerm::Const(Term::iri("http://example.org/name"))
        );
        assert_eq!(
            q.patterns[0].o,
            PatternTerm::Const(Term::string("Alice"))
        );
    }

    #[test]
    fn unknown_prefix_is_an_error() {
        assert!(matches!(
            parse_query("SELECT ?s WHERE { ?s nope:p ?o }"),
            Err(RdfError::Parse(_))
        ));
    }

    #[test]
    fn rdf_type_shorthand() {
        let q = parse_query("SELECT ?s WHERE { ?s a <http://e/C> }").unwrap();
        assert_eq!(
            q.patterns[0].p,
            PatternTerm::Const(Term::iri(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
            ))
        );
    }

    #[test]
    fn predicate_lists_with_semicolon() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:p ?o ; e:q ?r . ?o e:z 5 }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 3);
        assert_eq!(q.patterns[0].s, q.patterns[1].s);
        assert_eq!(
            q.patterns[2].o,
            PatternTerm::Const(Term::integer(5))
        );
    }

    #[test]
    fn typed_literals_and_numbers() {
        let q = parse_query(
            "SELECT ?s WHERE { ?s <http://e/d> \"2017-03-01\"^^xsd:date . ?s <http://e/v> 2.5 }",
        )
        .unwrap();
        assert_eq!(
            q.patterns[0].o,
            PatternTerm::Const(Term::date(
                ee_util::timeline::Date::new(2017, 3, 1).unwrap()
            ))
        );
        assert_eq!(q.patterns[1].o, PatternTerm::Const(Term::double(2.5)));
    }

    #[test]
    fn filters_parse_with_precedence() {
        let q = parse_query(
            "SELECT ?x WHERE { ?s <http://e/v> ?x . FILTER(?x > 3 && ?x < 10 || ?x = 0) }",
        )
        .unwrap();
        // || binds loosest: Or(And(>,<), =).
        match &q.filters[0] {
            Expr::Or(a, _) => match a.as_ref() {
                Expr::And(_, _) => {}
                other => panic!("expected And under Or, got {other:?}"),
            },
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn spatial_function_calls() {
        let q = parse_query(
            "SELECT ?g WHERE { ?s <http://e/geo> ?g . \
             FILTER(geof:sfIntersects(?g, \"POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))\"^^geo:wktLiteral)) }",
        )
        .unwrap();
        match &q.filters[0] {
            Expr::Spatial(SpatialOp::Intersects, a, b) => {
                assert_eq!(**a, Expr::Var("g".into()));
                assert!(matches!(**b, Expr::Const(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn distance_and_arithmetic() {
        let q = parse_query(
            "SELECT ?g WHERE { ?s <http://e/geo> ?g . \
             FILTER(geof:distance(?g, \"POINT (0 0)\"^^geo:wktLiteral) < 2 * 5) }",
        )
        .unwrap();
        assert!(matches!(&q.filters[0], Expr::Cmp(_, CmpOp::Lt, _)));
    }

    #[test]
    fn optional_groups() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?s ?n WHERE { ?s e:p ?o . OPTIONAL { ?s e:name ?n } }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.optionals.len(), 1);
        assert_eq!(q.optionals[0].len(), 1);
    }

    #[test]
    fn aggregates_group_order_limit() {
        let q = parse_query(
            "PREFIX e: <http://e/> \
             SELECT ?s (COUNT(?o) AS ?n) (AVG(?v) AS ?m) WHERE { ?s e:p ?o . ?o e:v ?v } \
             GROUP BY ?s ORDER BY DESC(?n) LIMIT 5 OFFSET 2",
        )
        .unwrap();
        assert_eq!(q.select.len(), 3);
        assert!(matches!(
            q.select[1],
            SelectItem::Agg {
                func: AggFunc::Count,
                ..
            }
        ));
        assert_eq!(q.group_by, vec!["s"]);
        assert_eq!(q.order_by, Some(("n".into(), false)));
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(2));
        assert_eq!(q.as_of, None);
    }

    #[test]
    fn as_of_pins_a_commit_id() {
        let q = parse_query("SELECT ?s WHERE { ?s ?p ?o } AS OF <cbf29ce484222325>").unwrap();
        assert_eq!(q.as_of, Some(0xcbf2_9ce4_8422_2325));
        // Order-insensitive among the trailing clauses.
        let q = parse_query("SELECT ?s WHERE { ?s ?p ?o } AS OF <1f> LIMIT 3").unwrap();
        assert_eq!(q.as_of, Some(0x1f));
        assert_eq!(q.limit, Some(3));
        assert!(parse_query("SELECT ?s WHERE { ?s ?p ?o } AS OF <nothex>").is_err());
        assert!(parse_query("SELECT ?s WHERE { ?s ?p ?o } AS OF 12").is_err());
    }

    #[test]
    fn count_star() {
        let q = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }").unwrap();
        assert!(matches!(
            &q.select[0],
            SelectItem::Agg {
                func: AggFunc::Count,
                var: None,
                alias
            } if alias == "n"
        ));
    }

    #[test]
    fn select_star_and_distinct() {
        let q = parse_query("SELECT DISTINCT * WHERE { ?s ?p ?o }").unwrap();
        assert!(q.star);
        assert!(q.distinct);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "SELECT WHERE { ?s ?p ?o }",
            "SELECT ?s { ?s ?p ?o }",          // missing WHERE
            "SELECT ?s WHERE { ?s ?p }",       // incomplete triple
            "SELECT ?s WHERE { ?s ?p ?o ",     // unterminated
            "SELECT ?s WHERE { ?s ?p ?o } garbage",
            "SELECT ?s WHERE { FILTER(badfunc:nope(?a, ?b)) }",
        ] {
            assert!(parse_query(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn le_ge_operators_without_trailing_iri() {
        // Regression: '<=' must lex as an operator even when no '>'
        // appears later in the input (it used to be read as an IRI open).
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:d ?d . \
             FILTER(?d >= \"2017-01-01\"^^xsd:date && ?d <= \"2017-12-31\"^^xsd:date) }",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 1);
        match &q.filters[0] {
            Expr::And(a, b) => {
                assert!(matches!(**a, Expr::Cmp(_, CmpOp::Ge, _)));
                assert!(matches!(**b, Expr::Cmp(_, CmpOp::Le, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lt_followed_by_iri_still_lexes() {
        // '<' as comparison while a real IRI appears later in the query.
        let q = parse_query(
            "SELECT ?s WHERE { ?s <http://e/v> ?v . FILTER(?v < 5) }",
        )
        .unwrap();
        assert!(matches!(&q.filters[0], Expr::Cmp(_, CmpOp::Lt, _)));
    }

    #[test]
    fn insert_data_parses_ground_triples() {
        let u = parse_update(
            "PREFIX e: <http://e/> INSERT DATA { e:s e:p e:o . e:s e:q 5 ; e:r \"x\" }",
        )
        .unwrap();
        assert_eq!(u.ops.len(), 1);
        let UpdateOp::InsertData(ts) = &u.ops[0] else {
            panic!("{:?}", u.ops[0]);
        };
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].0, Term::iri("http://e/s"));
        assert_eq!(ts[1].2, Term::integer(5));
        assert_eq!(ts[2].2, Term::string("x"));
    }

    #[test]
    fn update_ops_chain_with_semicolons() {
        let u = parse_update(
            "PREFIX e: <http://e/> \
             DELETE DATA { e:a e:p e:b } ; \
             INSERT DATA { e:a e:p e:c } ; \
             DELETE WHERE { ?s e:stale ?o }",
        )
        .unwrap();
        assert_eq!(u.ops.len(), 3);
        assert!(matches!(u.ops[0], UpdateOp::DeleteData(_)));
        assert!(matches!(u.ops[1], UpdateOp::InsertData(_)));
        let UpdateOp::DeleteWhere(ps) = &u.ops[2] else {
            panic!()
        };
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].s, PatternTerm::Var("s".into()));
    }

    #[test]
    fn insert_where_parses_template_and_group() {
        let u = parse_update(
            "PREFIX e: <http://e/> \
             INSERT { ?s e:met ?o . ?s e:type e:Person } WHERE { ?s e:knows ?o }",
        )
        .unwrap();
        assert_eq!(u.ops.len(), 1);
        let UpdateOp::InsertWhere { template, patterns } = &u.ops[0] else {
            panic!("{:?}", u.ops[0]);
        };
        assert_eq!(template.len(), 2);
        assert_eq!(patterns.len(), 1);
        assert_eq!(template[0].s, PatternTerm::Var("s".into()));
        assert_eq!(template[1].o, PatternTerm::Const(Term::iri("http://e/Person")));
        assert_eq!(patterns[0].p, PatternTerm::Const(Term::iri("http://e/knows")));
    }

    #[test]
    fn update_parse_errors() {
        for bad in [
            "",
            "INSERT { <http://e/s> <http://e/p> <http://e/o> }", // missing WHERE
            "INSERT DATA { ?s <http://e/p> <http://e/o> }",      // variable in DATA
            "DELETE DATA { <http://e/s> <http://e/p> ?o }",
            "DELETE WHERE { }",                                  // empty group
            "INSERT { } WHERE { ?s ?p ?o }",                     // empty template
            "INSERT { ?s ?p ?o } WHERE { }",                     // empty WHERE group
            "INSERT { ?s <http://e/p> ?x } WHERE { ?s ?p ?o }",  // ?x unbound
            "DELETE <http://e/s>",                               // neither DATA nor WHERE
            "INSERT DATA { <http://e/s> <http://e/p> <http://e/o> ", // unterminated
            "SELECT ?s WHERE { ?s ?p ?o }",                      // a query, not an update
        ] {
            assert!(parse_update(bad).is_err(), "{bad:?} parsed as update");
        }
    }

    #[test]
    fn comments_are_skipped() {
        let q = parse_query(
            "# a comment\nSELECT ?s # trailing\nWHERE { ?s ?p ?o }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 1);
    }
}
