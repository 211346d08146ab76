//! Item-level recursive-descent parser over lexed source.
//!
//! Consumes the comment/string-stripped [`LexedLine`]s produced by the
//! lexer and extracts the item structure the semantic passes need:
//! structs/enums with field types, and functions with their
//! parameter names, `impl` self-type, module path and full body token
//! stream. The parser is best-effort and infallible: unrecognized syntax is
//! skipped token-by-token, so a partially understood file still yields
//! every item the parser *did* recognize.

use crate::LexedLine;

/// Token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal.
    Num,
    /// Single punctuation character.
    Punct,
}

/// One source token with its origin line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token text (one char for punctuation).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// Whether the token sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
    /// Token class.
    pub kind: TokKind,
}

impl Token {
    /// Whether this token's text matches exactly (any kind).
    pub(crate) fn is(&self, text: &str) -> bool {
        self.text == text
    }

    /// Whether this is an identifier token with the given text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// One struct field or enum-variant field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Owning enum variant, if any.
    pub variant: Option<String>,
    /// Field name (`0`, `1`, … for tuple fields).
    pub name: String,
    /// Identifiers appearing in the field's type.
    pub type_idents: Vec<String>,
    /// 1-based line.
    pub line: usize,
}

/// A struct or enum definition.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// Type name.
    pub name: String,
    /// 1-based line of the definition.
    pub line: usize,
    /// Whether this is an `enum` (else `struct`).
    pub is_enum: bool,
    /// Fields (for enums: all variant fields, tagged with their variant).
    pub fields: Vec<Field>,
    /// Enum variant names (empty for structs).
    pub variants: Vec<String>,
}

/// A function item with its body token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the fn sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
    /// The `impl` block's self type, if inside one.
    pub self_type: Option<String>,
    /// Enclosing inline-module path (file modules come from the file path).
    pub module: Vec<String>,
    /// Parameter names, in declaration order. The dataflow engine seeds
    /// its taint environment from these (`PARAM(i)` provenance bits).
    pub params: Vec<String>,
    /// Every token of the body block (exclusive of the outer braces).
    pub body: Vec<Token>,
}

impl FnItem {
    /// Whether the body references `ident` as an identifier token.
    pub fn references(&self, ident: &str) -> bool {
        self.body.iter().any(|t| t.is_ident(ident))
    }

    /// Line of the first body reference to `ident`, if any.
    pub fn reference_line(&self, ident: &str) -> Option<usize> {
        self.body.iter().find(|t| t.is_ident(ident)).map(|t| t.line)
    }
}

/// The parsed items of one source file.
#[derive(Debug, Clone, Default)]
pub struct FileAst {
    /// Struct/enum definitions.
    pub types: Vec<TypeItem>,
    /// Function items (free fns, impl methods, trait defaults).
    pub fns: Vec<FnItem>,
}

/// Splits the blanked code of `lines` into a token stream.
pub fn tokenize(lines: &[LexedLine]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: idx + 1,
                    in_test: line.in_test,
                    kind: TokKind::Ident,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                i += 1;
                while i < chars.len() {
                    let d = chars[i];
                    let continues = d.is_alphanumeric()
                        || d == '_'
                        || (d == '.'
                            && chars.get(i + 1).map(|n| n.is_ascii_digit()).unwrap_or(false));
                    if !continues {
                        break;
                    }
                    i += 1;
                }
                out.push(Token {
                    text: chars[start..i].iter().collect(),
                    line: idx + 1,
                    in_test: line.in_test,
                    kind: TokKind::Num,
                });
            } else {
                out.push(Token {
                    text: c.to_string(),
                    line: idx + 1,
                    in_test: line.in_test,
                    kind: TokKind::Punct,
                });
                i += 1;
            }
        }
    }
    out
}

/// Parses one file's lexed lines into its item structure.
pub fn parse_file(lines: &[LexedLine]) -> FileAst {
    let tokens = tokenize(lines);
    let mut parser = Parser { t: &tokens, i: 0, out: FileAst::default() };
    parser.parse_items(tokens.len(), &[], None);
    parser.out
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    out: FileAst,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.t.get(self.i)
    }

    fn text(&self) -> &str {
        self.t.get(self.i).map_or("", |t| t.text.as_str())
    }

    /// Index of the `}` matching the `{` at `open` (or the end of input).
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0i64;
        let mut j = open;
        while j < self.t.len() {
            match self.t[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.t.len()
    }

    /// Skips a balanced `<...>` generics group starting at the cursor.
    fn skip_generics(&mut self) {
        if self.text() != "<" {
            return;
        }
        let mut depth = 0i64;
        while self.i < self.t.len() {
            match self.t[self.i].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    // `->` inside `Fn(..) -> T` bounds is not a closer.
                    let arrow = self.i > 0 && self.t[self.i - 1].is("-");
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            return;
                        }
                    }
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    /// Skips an attribute `#[...]` / `#![...]` at the cursor.
    fn skip_attr(&mut self) {
        self.i += 1; // '#'
        if self.text() == "!" {
            self.i += 1;
        }
        if self.text() == "[" {
            let mut depth = 0i64;
            while self.i < self.t.len() {
                match self.t[self.i].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            return;
                        }
                    }
                    _ => {}
                }
                self.i += 1;
            }
        }
    }

    /// Skips to the `;` terminating a const/static/type/use-like item,
    /// honoring nested brackets and brace blocks in initializers.
    fn skip_to_semi(&mut self, end: usize) {
        let mut depth = 0i64;
        while self.i < end {
            match self.t[self.i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
    }

    fn parse_items(&mut self, end: usize, module: &[String], self_type: Option<&str>) {
        while self.i < end {
            match self.text() {
                "#" => self.skip_attr(),
                "use" => self.skip_to_semi(end),
                "mod" => self.parse_mod(end, module, self_type),
                "fn" => self.parse_fn(end, module, self_type),
                "struct" | "enum" | "union" => self.parse_type(end),
                "impl" => self.parse_impl(end, module),
                "trait" => self.parse_trait(end, module),
                "const" | "static" | "type" => {
                    // `const fn` is a fn item, not a const item.
                    if self.t.get(self.i + 1).map(|t| t.is("fn")).unwrap_or(false) {
                        self.i += 1;
                    } else {
                        self.skip_to_semi(end);
                    }
                }
                "macro_rules" => {
                    // macro_rules! name { ... }
                    while self.i < end && self.text() != "{" {
                        self.i += 1;
                    }
                    if self.i < end {
                        self.i = self.matching_brace(self.i) + 1;
                    }
                }
                _ => self.i += 1,
            }
        }
        self.i = end;
    }

    fn parse_mod(&mut self, end: usize, module: &[String], self_type: Option<&str>) {
        self.i += 1; // 'mod'
        let Some(name) = self.peek().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone())
        else {
            return;
        };
        self.i += 1;
        if self.text() == "{" {
            // Clamp to the enclosing item's end so an unbalanced module
            // body cannot walk the parser past its caller's region.
            let close = self.matching_brace(self.i).min(end);
            self.i += 1;
            let mut inner = module.to_vec();
            inner.push(name);
            self.parse_items(close, &inner, self_type);
            self.i = close + 1;
        } else if self.text() == ";" {
            self.i += 1;
        }
    }

    fn parse_fn(&mut self, end: usize, module: &[String], self_type: Option<&str>) {
        let kw = &self.t[self.i];
        let (line, in_test) = (kw.line, kw.in_test);
        self.i += 1; // 'fn'
        let Some(name) = self.peek().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone())
        else {
            return;
        };
        self.i += 1;
        self.skip_generics();
        // Parameter list.
        let mut params = Vec::new();
        if self.text() == "(" {
            let mut depth = 0i64;
            while self.i < end {
                match self.t[self.i].text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            self.i += 1;
                            break;
                        }
                    }
                    ">" if !self.t[self.i - 1].is("-") => depth -= 1,
                    ":" if depth == 1 => {
                        // `name: Type` at top parameter depth; skip `::`.
                        let double = self.t.get(self.i + 1).map(|t| t.is(":")).unwrap_or(false)
                            || self.t[self.i - 1].is(":");
                        if !double {
                            if let Some(prev) =
                                self.t.get(self.i - 1).filter(|t| t.kind == TokKind::Ident)
                            {
                                params.push(prev.text.clone());
                            }
                        }
                    }
                    "self" if depth == 1 => params.push("self".to_string()),
                    _ => {}
                }
                self.i += 1;
            }
        }
        // Return type / where clause: scan to the body `{` or a bodyless `;`.
        let mut depth = 0i64;
        while self.i < end {
            match self.t[self.i].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth <= 0 => {
                    // Trait method without a default body.
                    self.i += 1;
                    self.out.fns.push(FnItem {
                        name,
                        line,
                        in_test,
                        self_type: self_type.map(str::to_string),
                        module: module.to_vec(),
                        params,
                        body: Vec::new(),
                    });
                    return;
                }
                "{" if depth <= 0 => break,
                _ => {}
            }
            self.i += 1;
        }
        let mut body = Vec::new();
        if self.i < end && self.text() == "{" {
            let close = self.matching_brace(self.i);
            body = self.t[self.i + 1..close.min(self.t.len())].to_vec();
            self.i = close + 1;
        }
        self.out.fns.push(FnItem {
            name,
            line,
            in_test,
            self_type: self_type.map(str::to_string),
            module: module.to_vec(),
            params,
            body,
        });
    }

    fn parse_type(&mut self, end: usize) {
        let is_enum = self.text() == "enum";
        let line = self.t[self.i].line;
        self.i += 1;
        let Some(name) = self.peek().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone())
        else {
            return;
        };
        self.i += 1;
        self.skip_generics();
        // Skip a where clause preceding the body.
        while self.i < end && !matches!(self.text(), "{" | "(" | ";") {
            self.i += 1;
        }
        let mut fields = Vec::new();
        let mut variants = Vec::new();
        match self.text() {
            "(" => {
                // Tuple struct: `struct X(A, B);`
                let mut depth = 0i64;
                let mut idx = 0usize;
                let mut current: Vec<String> = Vec::new();
                let mut fline = line;
                while self.i < end {
                    let t = &self.t[self.i];
                    match t.text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" => {
                            depth -= 1;
                            if depth == 0 {
                                if !current.is_empty() {
                                    fields.push(Field {
                                        variant: None,
                                        name: idx.to_string(),
                                        type_idents: std::mem::take(&mut current),
                                        line: fline,
                                    });
                                }
                                self.i += 1;
                                break;
                            }
                        }
                        ">" if !self.t[self.i - 1].is("-") => depth -= 1,
                        "," if depth == 1 => {
                            fields.push(Field {
                                variant: None,
                                name: idx.to_string(),
                                type_idents: std::mem::take(&mut current),
                                line: fline,
                            });
                            idx += 1;
                            fline = t.line;
                        }
                        _ => {
                            if t.kind == TokKind::Ident {
                                if current.is_empty() {
                                    fline = t.line;
                                }
                                current.push(t.text.clone());
                            }
                        }
                    }
                    self.i += 1;
                }
                if self.text() == ";" {
                    self.i += 1;
                }
            }
            "{" => {
                let close = self.matching_brace(self.i);
                let body = &self.t[self.i + 1..close.min(self.t.len())];
                if is_enum {
                    parse_enum_body(body, &mut variants, &mut fields);
                } else {
                    parse_struct_fields(body, None, &mut fields);
                }
                self.i = close + 1;
            }
            _ => {
                // Unit struct `struct X;`
                if self.text() == ";" {
                    self.i += 1;
                }
            }
        }
        self.out.types.push(TypeItem { name, line, is_enum, fields, variants });
    }

    fn parse_impl(&mut self, end: usize, module: &[String]) {
        self.i += 1; // 'impl'
        self.skip_generics();
        // Header: everything up to the body `{`; the self type is the last
        // path ident (after `for`, if a trait impl).
        let mut header: Vec<&Token> = Vec::new();
        let mut depth = 0i64;
        while self.i < end {
            match self.t[self.i].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "<" => {
                    self.skip_generics();
                    continue;
                }
                "{" if depth <= 0 => break,
                ";" if depth <= 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            header.push(&self.t[self.i]);
            self.i += 1;
        }
        let after_for: Vec<&&Token> = match header.iter().position(|t| t.is_ident("for")) {
            Some(p) => header[p + 1..].iter().collect(),
            None => header.iter().collect(),
        };
        let self_type = after_for
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        if self.text() == "{" {
            let close = self.matching_brace(self.i);
            self.i += 1;
            let st = if self_type.is_empty() { None } else { Some(self_type.as_str()) };
            self.parse_items(close, module, st);
            self.i = close + 1;
        }
    }

    fn parse_trait(&mut self, end: usize, module: &[String]) {
        self.i += 1; // 'trait'
        let name = self
            .peek()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        // Skip supertrait bounds/where clause to the body.
        let mut depth = 0i64;
        while self.i < end {
            match self.text() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "<" => {
                    self.skip_generics();
                    continue;
                }
                "{" if depth <= 0 => break,
                ";" if depth <= 0 => {
                    self.i += 1;
                    return;
                }
                _ => {}
            }
            self.i += 1;
        }
        if self.text() == "{" {
            let close = self.matching_brace(self.i);
            self.i += 1;
            let st = if name.is_empty() { None } else { Some(name.as_str()) };
            self.parse_items(close, module, st);
            self.i = close + 1;
        }
    }
}

/// Parses `name: Type, ...` fields from a struct body token slice.
fn parse_struct_fields(body: &[Token], variant: Option<&str>, fields: &mut Vec<Field>) {
    let mut depth = 0i64;
    let mut i = 0;
    while i < body.len() {
        match body[i].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ">" if i > 0 && !body[i - 1].is("-") => depth -= 1,
            "#" => {
                // Skip field attributes.
                let mut d = 0i64;
                while i < body.len() {
                    match body[i].text.as_str() {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            ":" if depth == 0 => {
                let double = body.get(i + 1).map(|t| t.is(":")).unwrap_or(false)
                    || (i > 0 && body[i - 1].is(":"));
                if !double {
                    if let Some(name_tok) = body.get(i.wrapping_sub(1)) {
                        if name_tok.kind == TokKind::Ident {
                            // Collect type idents until the field-separating
                            // comma at depth 0.
                            let mut j = i + 1;
                            let mut d = 0i64;
                            let mut type_idents = Vec::new();
                            while j < body.len() {
                                match body[j].text.as_str() {
                                    "(" | "[" | "{" | "<" => d += 1,
                                    ")" | "]" | "}" => d -= 1,
                                    ">" if !body[j - 1].is("-") => d -= 1,
                                    "," if d == 0 => break,
                                    _ => {
                                        if body[j].kind == TokKind::Ident {
                                            type_idents.push(body[j].text.clone());
                                        }
                                    }
                                }
                                j += 1;
                            }
                            fields.push(Field {
                                variant: variant.map(str::to_string),
                                name: name_tok.text.clone(),
                                type_idents,
                                line: name_tok.line,
                            });
                            i = j;
                            continue;
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Parses enum variants (and their payload fields) from a body token slice.
fn parse_enum_body(body: &[Token], variants: &mut Vec<String>, fields: &mut Vec<Field>) {
    let mut i = 0;
    while i < body.len() {
        // Skip variant attributes.
        if body[i].is("#") {
            let mut d = 0i64;
            while i < body.len() {
                match body[i].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        if body[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let vname = body[i].text.clone();
        i += 1;
        match body.get(i).map(|t| t.text.as_str()) {
            Some("(") => {
                // Tuple payload: collect type idents until the matching `)`.
                let mut d = 0i64;
                let start_line = body[i].line;
                let mut type_idents = Vec::new();
                while i < body.len() {
                    match body[i].text.as_str() {
                        "(" | "[" | "<" => d += 1,
                        ")" | "]" => {
                            d -= 1;
                            if d == 0 {
                                i += 1;
                                break;
                            }
                        }
                        ">" if !body[i - 1].is("-") => d -= 1,
                        _ => {
                            if body[i].kind == TokKind::Ident {
                                type_idents.push(body[i].text.clone());
                            }
                        }
                    }
                    i += 1;
                }
                fields.push(Field {
                    variant: Some(vname.clone()),
                    name: "0".to_string(),
                    type_idents,
                    line: start_line,
                });
            }
            Some("{") => {
                // Struct payload: named fields, tagged with this variant.
                let mut d = 0i64;
                let start = i + 1;
                let mut close = body.len();
                while i < body.len() {
                    match body[i].text.as_str() {
                        "{" => d += 1,
                        "}" => {
                            d -= 1;
                            if d == 0 {
                                close = i;
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                parse_struct_fields(&body[start..close], Some(&vname), fields);
            }
            _ => {}
        }
        variants.push(vname);
        // Skip a discriminant (`= expr`) and the trailing comma.
        while i < body.len() && !body[i].is(",") {
            i += 1;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn parse(src: &str) -> FileAst {
        parse_file(&lex(src))
    }

    #[test]
    fn parses_fns_with_params_and_body_refs() {
        let ast = parse(
            "pub fn alpha(x: u32, seed: u64) -> u64 {\n    let y = round_seed(seed, x as u64);\n    y\n}\n",
        );
        assert_eq!(ast.fns.len(), 1);
        let f = &ast.fns[0];
        assert_eq!(f.name, "alpha");
        assert_eq!(f.params, vec!["x", "seed"]);
        assert!(f.references("round_seed"));
        assert_eq!(f.reference_line("round_seed"), Some(2));
        assert!(!f.in_test);
    }

    #[test]
    fn parses_impl_methods_with_self_type() {
        let ast = parse(
            "struct Shuffler { seed: u64 }\nimpl Shuffler {\n    fn permutation(&self, n: usize) -> Vec<usize> { vec![n] }\n}\nimpl std::fmt::Display for Shuffler {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\n",
        );
        assert_eq!(ast.types.len(), 1);
        assert_eq!(ast.types[0].fields[0].name, "seed");
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].self_type.as_deref(), Some("Shuffler"));
        assert_eq!(ast.fns[1].name, "fmt");
        assert_eq!(ast.fns[1].self_type.as_deref(), Some("Shuffler"));
    }

    #[test]
    fn parses_enum_variants_and_variant_fields() {
        let ast = parse(
            "pub enum Message {\n    RoundStart { round: u64, selected: u32 },\n    GenSlice(MatrixPayload),\n    Empty,\n}\n",
        );
        let ty = &ast.types[0];
        assert!(ty.is_enum);
        assert_eq!(ty.variants, vec!["RoundStart", "GenSlice", "Empty"]);
        assert!(ty
            .fields
            .iter()
            .any(|f| f.variant.as_deref() == Some("RoundStart") && f.name == "round"));
        assert!(ty
            .fields
            .iter()
            .any(|f| f.variant.as_deref() == Some("GenSlice")
                && f.type_idents == vec!["MatrixPayload"]));
    }

    #[test]
    fn use_items_are_skipped_whole() {
        let ast = parse("use gtv_vfl::{negotiate_seed, Network};\nfn after() {}\n");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "after");
    }

    #[test]
    fn tracks_inline_modules_and_cfg_test() {
        let src = "mod inner {\n    pub fn deep() {}\n}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let ast = parse(src);
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].module, vec!["inner"]);
        assert!(!ast.fns[0].in_test);
        assert!(ast.fns[1].in_test);
    }

    #[test]
    fn fn_bodies_capture_casts_and_macros_as_tokens() {
        let ast =
            parse("fn encode(v: &[u32]) -> u32 {\n    println!(\"x\");\n    v.len() as u32\n}\n");
        let f = &ast.fns[0];
        assert!(f.references("println"));
        assert!(f.references("as"));
        assert!(f.references("u32"));
    }

    #[test]
    fn const_fn_and_where_clauses_do_not_derail() {
        let ast = parse(
            "pub const fn tag() -> u8 { 3 }\nfn generic<T>(x: T) -> T\nwhere\n    T: Clone,\n{\n    x\n}\n",
        );
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].name, "tag");
        assert_eq!(ast.fns[1].name, "generic");
        assert_eq!(ast.fns[1].params, vec!["x"]);
    }

    #[test]
    fn tuple_structs_and_arrays_in_types() {
        let ast = parse("struct Pair(u32, Vec<f32>);\nstruct Buf { data: [u8; 4] }\n");
        assert_eq!(ast.types.len(), 2);
        assert_eq!(ast.types[0].fields.len(), 2);
        assert!(ast.types[0].fields[1].type_idents.contains(&"f32".to_string()));
        assert_eq!(ast.types[1].fields[0].name, "data");
    }
}
