//! Intra-procedural dataflow over the [`parser`] AST:
//! per-function scope/symbol tables, def-use chains, loop-nesting
//! depth, and escapes-into-closure tracking.
//!
//! The analysis is deliberately lexical: a definition's liveness range
//! runs from its binding line to its last use (or, for RAII guards, to
//! the end of its enclosing block), and loop depth is the static
//! nesting of `for`/`while`/`loop` bodies. That is exactly the
//! granularity the semantic lints need — flagging an allocation *site*
//! inside a hot loop, or a lock guard whose lexical extent crosses a
//! solver call — without pretending to be a borrow checker.

use crate::parser::{self, Ast, Block, Expr, ExprKind, Item, Span, Stmt};
use crate::tokenizer::TokKind;
use std::collections::BTreeMap;

/// How a call site names its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `path::to::fn(…)`.
    Call,
    /// `recv.method(…)`.
    Method,
    /// `name!(…)`.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Call flavour.
    pub kind: CallKind,
    /// Full callee path for `Call` (`Vec::new`), macro name for
    /// `Macro`, method name for `Method`.
    pub name: String,
    /// Leftmost identifier of the receiver chain for method calls
    /// (`ws` in `ws.plan().solve()`), empty otherwise.
    pub recv_root: String,
    /// String literal arguments, unquoted, in positional order (`None`
    /// for non-literal arguments).
    pub str_args: Vec<Option<String>>,
    /// Identifiers appearing anywhere in the argument list.
    pub arg_idents: Vec<String>,
    /// Identifiers appearing in the last argument (the out-parameter
    /// slot of `*_into` calls).
    pub last_arg_idents: Vec<String>,
    /// True when any argument contains a numeric/string literal.
    pub has_literal_arg: bool,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
    /// Number of enclosing `for`/`while`/`loop` bodies.
    pub loop_depth: u32,
    /// Identifiers from enclosing loop headers (`for f in freqs` adds
    /// `f` and `freqs`), innermost last.
    pub loop_header_idents: Vec<String>,
    /// True when the call sits inside a closure body.
    pub in_closure: bool,
}

/// One definition (parameter or `let` binding).
#[derive(Debug, Clone)]
pub struct Def {
    /// Bound name.
    pub name: String,
    /// Line of the binding.
    pub line: u32,
    /// `path::to::ctor` when the initializer is (or ends in) a call;
    /// method name when it ends in a method call.
    pub init_call: String,
    /// Identifiers referenced anywhere in the initializer.
    pub init_idents: Vec<String>,
    /// String/number literal presence in the initializer arguments.
    pub init_has_literal: bool,
    /// Lines of every use (def-use chain), in source order.
    pub uses: Vec<u32>,
    /// True when some use occurs inside a closure defined after the
    /// binding (the value escapes into the closure's environment).
    pub escapes_into_closure: bool,
    /// Last line of the block the definition lives in (lexical scope
    /// end — the latest line the binding can be live on).
    pub scope_end: u32,
    /// True when the definition is a function parameter.
    pub is_param: bool,
}

/// Dataflow summary of one function.
#[derive(Debug)]
pub struct FnAnalysis {
    /// Function name.
    pub name: String,
    /// Source extent.
    pub span: Span,
    /// True when marked `// rfkit-hot` (directly; reachability-based
    /// hotness is computed by [`hot_set`]).
    pub hot_marker: bool,
    /// True when marked `// rfkit-cold` — excluded from hot-set
    /// propagation even if reachable from a hot entry.
    pub cold_marker: bool,
    /// Definitions (params first, then lets in source order).
    pub defs: Vec<Def>,
    /// Every call site in the body.
    pub calls: Vec<CallSite>,
}

impl FnAnalysis {
    /// Names of same-file functions this function calls (plain calls
    /// and single-segment paths only — exactly what a same-file call
    /// graph can resolve).
    pub fn callees(&self) -> impl Iterator<Item = &str> {
        self.calls.iter().filter_map(|c| match c.kind {
            CallKind::Call if !c.name.contains("::") => Some(c.name.as_str()),
            CallKind::Method => Some(c.name.as_str()),
            _ => None,
        })
    }
}

/// Analyzes every function in `ast` (including associated functions).
pub fn analyze(ast: &Ast) -> Vec<FnAnalysis> {
    let mut out = Vec::new();
    parser::for_each_fn(&ast.items, &mut |f| {
        out.push(analyze_fn(f));
    });
    out
}

/// Computes the set of "hot" function names for a file: functions with
/// a `// rfkit-hot` marker, functions named in `seeds`, plus every
/// same-file function transitively reachable from those through plain
/// calls and method calls (associated functions are resolved by bare
/// name). This is what "`sweep_batch`-reachable bodies" means at
/// file granularity. A `// rfkit-cold`-marked function stops the
/// propagation: it and everything only reachable through it stay cold
/// (for once-per-batch structural work like plan repathing).
pub fn hot_set(fns: &[FnAnalysis], seeds: &[&str]) -> Vec<String> {
    let defined: BTreeMap<&str, &FnAnalysis> = fns.iter().map(|f| (f.name.as_str(), f)).collect();
    let mut hot: Vec<String> = Vec::new();
    let mut work: Vec<&str> = Vec::new();
    for f in fns {
        if (f.hot_marker || seeds.contains(&f.name.as_str())) && !f.cold_marker {
            work.push(f.name.as_str());
        }
    }
    while let Some(name) = work.pop() {
        if hot.iter().any(|h| h == name) {
            continue;
        }
        hot.push(name.to_string());
        if let Some(f) = defined.get(name) {
            for callee in f.callees() {
                if let Some(next) = defined.get(callee) {
                    if !next.cold_marker && !hot.iter().any(|h| h == callee) {
                        work.push(callee);
                    }
                }
            }
        }
    }
    hot.sort();
    hot
}

// ---- walker --------------------------------------------------------

struct Walker {
    defs: Vec<Def>,
    calls: Vec<CallSite>,
    /// Scope stack: maps name -> def index. A `None` frame marks a
    /// closure boundary.
    scopes: Vec<Option<BTreeMap<String, usize>>>,
    loop_depth: u32,
    loop_header_idents: Vec<String>,
    closure_depth: u32,
}

fn analyze_fn(item: &Item) -> FnAnalysis {
    let mut w = Walker {
        defs: Vec::new(),
        calls: Vec::new(),
        scopes: vec![Some(BTreeMap::new())],
        loop_depth: 0,
        loop_header_idents: Vec::new(),
        closure_depth: 0,
    };
    let scope_end = item.span.end_line;
    for p in &item.params {
        w.bind(
            p.clone(),
            item.span.line,
            String::new(),
            Vec::new(),
            false,
            scope_end,
            true,
        );
    }
    if let Some(body) = &item.body {
        w.walk_block(body);
    }
    FnAnalysis {
        name: item.name.clone(),
        span: item.span,
        hot_marker: item.hot,
        cold_marker: item.cold,
        defs: w.defs,
        calls: w.calls,
    }
}

impl Walker {
    #[allow(clippy::too_many_arguments)]
    fn bind(
        &mut self,
        name: String,
        line: u32,
        init_call: String,
        init_idents: Vec<String>,
        init_has_literal: bool,
        scope_end: u32,
        is_param: bool,
    ) {
        let idx = self.defs.len();
        self.defs.push(Def {
            name: name.clone(),
            line,
            init_call,
            init_idents,
            init_has_literal,
            uses: Vec::new(),
            escapes_into_closure: false,
            scope_end,
            is_param,
        });
        if let Some(Some(top)) = self.scopes.last_mut() {
            top.insert(name, idx);
        }
    }

    /// Resolves a name through the scope stack; records whether the
    /// lookup crossed a closure boundary.
    fn resolve(&self, name: &str) -> Option<(usize, bool)> {
        let mut crossed = false;
        for frame in self.scopes.iter().rev() {
            match frame {
                None => crossed = true,
                Some(map) => {
                    if let Some(&idx) = map.get(name) {
                        return Some((idx, crossed));
                    }
                }
            }
        }
        None
    }

    fn use_ident(&mut self, name: &str, line: u32) {
        if let Some((idx, crossed)) = self.resolve(name) {
            self.defs[idx].uses.push(line);
            if crossed {
                self.defs[idx].escapes_into_closure = true;
            }
        }
    }

    fn walk_block(&mut self, b: &Block) {
        self.scopes.push(Some(BTreeMap::new()));
        for s in &b.stmts {
            match s {
                Stmt::Let { names, init, span } => {
                    let mut init_call = String::new();
                    let mut init_idents = Vec::new();
                    let mut init_has_literal = false;
                    if let Some(e) = init {
                        self.walk_expr(e);
                        init_call = trailing_call_name(e);
                        collect_idents(e, &mut init_idents);
                        init_has_literal = contains_literal(e);
                    }
                    for n in names {
                        self.bind(
                            n.clone(),
                            span.line,
                            init_call.clone(),
                            init_idents.clone(),
                            init_has_literal,
                            b.span.end_line,
                            false,
                        );
                    }
                }
                Stmt::Expr(e) => self.walk_expr(e),
                Stmt::Item(_) => {
                    // Nested items are analyzed as their own functions
                    // by `analyze`; their bodies do not touch this
                    // function's scope.
                }
            }
        }
        self.scopes.pop();
    }

    fn walk_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Path(segs) => {
                if segs.len() == 1 {
                    self.use_ident(&segs[0], e.span.line);
                }
            }
            ExprKind::Lit(..) | ExprKind::Atom(_) => {}
            ExprKind::Call { callee, args } => {
                // A plain-path callee is a call name, not a variable
                // use; anything else (e.g. a closure variable being
                // invoked) is walked normally.
                let path = parser::callee_path(callee);
                if path.is_empty() {
                    self.walk_expr(callee);
                } else if let ExprKind::Path(segs) = &callee.kind {
                    if segs.len() == 1 {
                        // Calling a local closure counts as a use.
                        if self.resolve(&segs[0]).is_some() {
                            self.use_ident(&segs[0], e.span.line);
                        }
                    }
                }
                self.record_call(CallKind::Call, path, String::new(), args, e.span);
                for a in args {
                    self.walk_expr(a);
                }
            }
            ExprKind::MethodCall { recv, method, args } => {
                self.walk_expr(recv);
                self.record_call(
                    CallKind::Method,
                    method.clone(),
                    receiver_root(recv),
                    args,
                    e.span,
                );
                for a in args {
                    self.walk_expr(a);
                }
            }
            ExprKind::Field { recv, .. } => self.walk_expr(recv),
            ExprKind::Macro { name, args } => {
                self.record_call(CallKind::Macro, name.clone(), String::new(), args, e.span);
                for a in args {
                    self.walk_expr(a);
                }
            }
            ExprKind::Loop {
                bindings,
                header,
                body,
                .. // `for`/`while`/`loop` all nest the same.
            } => {
                let mut header_idents = Vec::new();
                if let Some(h) = header {
                    self.walk_expr(h);
                    collect_idents(h, &mut header_idents);
                }
                header_idents.extend(bindings.iter().cloned());
                let added = header_idents.len();
                self.loop_header_idents.append(&mut header_idents);
                self.scopes.push(Some(BTreeMap::new()));
                for bnd in bindings {
                    self.bind(
                        bnd.clone(),
                        e.span.line,
                        String::new(),
                        Vec::new(),
                        false,
                        body.span.end_line,
                        false,
                    );
                }
                self.loop_depth += 1;
                self.walk_block(body);
                self.loop_depth -= 1;
                self.scopes.pop();
                self.loop_header_idents
                    .truncate(self.loop_header_idents.len() - added);
            }
            ExprKind::Closure { params, body } => {
                self.scopes.push(None); // closure boundary
                self.scopes.push(Some(BTreeMap::new()));
                for p in params {
                    self.bind(
                        p.clone(),
                        e.span.line,
                        String::new(),
                        Vec::new(),
                        false,
                        body.span.end_line,
                        false,
                    );
                }
                self.closure_depth += 1;
                self.walk_expr(body);
                self.closure_depth -= 1;
                self.scopes.pop();
                self.scopes.pop();
            }
            ExprKind::If { cond, then, els } => {
                self.walk_expr(cond);
                self.walk_block(then);
                if let Some(els) = els {
                    self.walk_expr(els);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee);
                // Arm patterns can bind (`Some(v) => v`); those binds
                // are invisible here, so arm-local names simply fail
                // to resolve — a miss, never a false chain.
                for a in arms {
                    self.walk_expr(a);
                }
            }
            ExprKind::Block(b) => self.walk_block(b),
            ExprKind::Assign { target, value } => {
                self.walk_expr(target);
                self.walk_expr(value);
            }
            ExprKind::Group(parts) => {
                for p in parts {
                    self.walk_expr(p);
                }
            }
        }
    }

    fn record_call(
        &mut self,
        kind: CallKind,
        name: String,
        recv_root: String,
        args: &[Expr],
        span: Span,
    ) {
        let mut str_args = Vec::new();
        let mut arg_idents = Vec::new();
        let mut has_literal_arg = false;
        for a in args {
            str_args.push(string_literal(a));
            collect_idents(a, &mut arg_idents);
            has_literal_arg |= contains_literal(a);
        }
        let mut last_arg_idents = Vec::new();
        if let Some(a) = args.last() {
            collect_idents(a, &mut last_arg_idents);
        }
        self.calls.push(CallSite {
            kind,
            name,
            recv_root,
            str_args,
            arg_idents,
            last_arg_idents,
            has_literal_arg,
            line: span.line,
            col: span.col,
            loop_depth: self.loop_depth,
            loop_header_idents: self.loop_header_idents.clone(),
            in_closure: self.closure_depth > 0,
        });
    }
}

/// The call name an initializer "ends in": `Rng64::new(…)` -> that
/// path; `cfg.rng().fork()` -> `fork`; a plain path or literal -> "".
fn trailing_call_name(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Call { callee, .. } => parser::callee_path(callee),
        ExprKind::MethodCall { method, .. } => method.clone(),
        ExprKind::Group(parts) => parts.last().map(trailing_call_name).unwrap_or_default(),
        _ => String::new(),
    }
}

/// Leftmost identifier of a receiver chain (`ws` in
/// `ws.plan().solve()`), or "" when the chain roots in a call/literal.
fn receiver_root(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(segs) => segs.first().cloned().unwrap_or_default(),
        ExprKind::MethodCall { recv, .. } | ExprKind::Field { recv, .. } => receiver_root(recv),
        ExprKind::Call { callee, .. } => receiver_root(callee),
        _ => String::new(),
    }
}

/// Unquoted string literal when `e` is one.
fn string_literal(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Lit(TokKind::Str, text) => Some(unquote(text)),
        _ => None,
    }
}

/// Strips quotes and `r#`/`b` prefixes from a string literal token.
pub fn unquote(text: &str) -> String {
    let t = text
        .trim_start_matches('b')
        .trim_start_matches('r')
        .trim_matches('#');
    t.trim_matches('"').to_string()
}

/// Collects every identifier (single-segment and path heads) in an
/// expression — used for "does this expression mention X" queries.
fn collect_idents(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Path(segs) => out.extend(segs.iter().cloned()),
        ExprKind::Lit(..) | ExprKind::Atom(_) => {}
        ExprKind::Call { callee, args } => {
            collect_idents(callee, out);
            for a in args {
                collect_idents(a, out);
            }
        }
        ExprKind::MethodCall { recv, method, args } => {
            collect_idents(recv, out);
            out.push(method.clone());
            for a in args {
                collect_idents(a, out);
            }
        }
        ExprKind::Field { recv, name } => {
            collect_idents(recv, out);
            out.push(name.clone());
        }
        ExprKind::Macro { args, .. } => {
            for a in args {
                collect_idents(a, out);
            }
        }
        ExprKind::Loop { header, body, .. } => {
            if let Some(h) = header {
                collect_idents(h, out);
            }
            collect_block_idents(body, out);
        }
        ExprKind::Closure { body, .. } => collect_idents(body, out),
        ExprKind::If { cond, then, els } => {
            collect_idents(cond, out);
            collect_block_idents(then, out);
            if let Some(els) = els {
                collect_idents(els, out);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            collect_idents(scrutinee, out);
            for a in arms {
                collect_idents(a, out);
            }
        }
        ExprKind::Block(b) => collect_block_idents(b, out),
        ExprKind::Assign { target, value } => {
            collect_idents(target, out);
            collect_idents(value, out);
        }
        ExprKind::Group(parts) => {
            for p in parts {
                collect_idents(p, out);
            }
        }
    }
}

fn collect_block_idents(b: &Block, out: &mut Vec<String>) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    collect_idents(e, out);
                }
            }
            Stmt::Expr(e) => collect_idents(e, out),
            Stmt::Item(_) => {}
        }
    }
}

/// True when the expression contains any numeric or string literal.
fn contains_literal(e: &Expr) -> bool {
    let mut found = false;
    visit(e, &mut |x| {
        if matches!(x.kind, ExprKind::Lit(..)) {
            found = true;
        }
    });
    found
}

/// Generic pre-order expression visitor.
pub fn visit(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Path(_) | ExprKind::Lit(..) | ExprKind::Atom(_) => {}
        ExprKind::Call { callee, args } => {
            visit(callee, f);
            for a in args {
                visit(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            visit(recv, f);
            for a in args {
                visit(a, f);
            }
        }
        ExprKind::Field { recv, .. } => visit(recv, f),
        ExprKind::Macro { args, .. } => {
            for a in args {
                visit(a, f);
            }
        }
        ExprKind::Loop { header, body, .. } => {
            if let Some(h) = header {
                visit(h, f);
            }
            visit_block(body, f);
        }
        ExprKind::Closure { body, .. } => visit(body, f),
        ExprKind::If { cond, then, els } => {
            visit(cond, f);
            visit_block(then, f);
            if let Some(els) = els {
                visit(els, f);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            visit(scrutinee, f);
            for a in arms {
                visit(a, f);
            }
        }
        ExprKind::Block(b) => visit_block(b, f),
        ExprKind::Assign { target, value } => {
            visit(target, f);
            visit(value, f);
        }
        ExprKind::Group(parts) => {
            for p in parts {
                visit(p, f);
            }
        }
    }
}

/// Visits every expression in a block.
pub fn visit_block(b: &Block, f: &mut impl FnMut(&Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    visit(e, f);
                }
            }
            Stmt::Expr(e) => visit(e, f),
            Stmt::Item(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::tokenizer::tokenize;

    fn analyze_src(src: &str) -> Vec<FnAnalysis> {
        analyze(&parse(&tokenize(src)))
    }

    #[test]
    fn def_use_chains_and_scopes() {
        let fns = analyze_src(
            "fn f(a: f64) {\n    let x = a + 1.0;\n    let y = x * 2.0;\n    use_it(y);\n    { let x = 9.0; drop(x); }\n}\n",
        );
        let f = &fns[0];
        let x = f
            .defs
            .iter()
            .find(|d| d.name == "x" && d.line == 2)
            .unwrap();
        assert_eq!(x.uses, vec![3]);
        let a = f.defs.iter().find(|d| d.name == "a").unwrap();
        assert!(a.is_param);
        assert_eq!(a.uses, vec![2]);
        // The shadowing inner x has its own use.
        let x2 = f
            .defs
            .iter()
            .find(|d| d.name == "x" && d.line == 5)
            .unwrap();
        assert_eq!(x2.uses, vec![5]);
    }

    #[test]
    fn loop_depth_and_headers() {
        let fns = analyze_src(
            "fn f(freqs: &[f64]) {\n    setup();\n    for f in freqs {\n        inner(*f);\n        while go() {\n            deep();\n        }\n    }\n}\n",
        );
        let f = &fns[0];
        let call = |n: &str| f.calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(call("setup").loop_depth, 0);
        assert_eq!(call("inner").loop_depth, 1);
        assert!(call("inner").loop_header_idents.contains(&"freqs".into()));
        assert_eq!(call("deep").loop_depth, 2);
        // `go()` is evaluated in the while header: depth 1 (inside the
        // for body), and its own body is depth 2.
        assert_eq!(call("go").loop_depth, 1);
    }

    #[test]
    fn closure_escape_is_tracked() {
        let fns = analyze_src(
            "fn f() {\n    let rng = Rng64::new(42);\n    let esc = move || rng.next_u64();\n    let local = 3;\n    direct(local);\n}\n",
        );
        let f = &fns[0];
        let rng = f.defs.iter().find(|d| d.name == "rng").unwrap();
        assert!(rng.escapes_into_closure);
        assert_eq!(rng.init_call, "Rng64::new");
        assert!(rng.init_has_literal);
        let local = f.defs.iter().find(|d| d.name == "local").unwrap();
        assert!(!local.escapes_into_closure);
    }

    #[test]
    fn calls_capture_string_args_and_receiver_roots() {
        let fns = analyze_src(
            "fn f(ws: &mut Ws) {\n    let c = rfkit_obs::Counter::new(\"a.b.c\");\n    ws.plan().solve_into(&rhs, &mut x);\n}\n",
        );
        let f = &fns[0];
        let new = f
            .calls
            .iter()
            .find(|c| c.name == "rfkit_obs::Counter::new")
            .unwrap();
        assert_eq!(new.str_args, vec![Some("a.b.c".into())]);
        let solve = f.calls.iter().find(|c| c.name == "solve_into").unwrap();
        assert_eq!(solve.kind, CallKind::Method);
        assert_eq!(solve.recv_root, "ws");
    }

    #[test]
    fn hot_set_propagates_through_same_file_calls() {
        let fns = analyze_src(
            "// rfkit-hot\nfn hot_entry() { helper(); }\nfn helper() { leaf(); }\nfn leaf() {}\nfn cold() { leaf(); }\n",
        );
        let hot = hot_set(&fns, &[]);
        assert_eq!(hot, ["helper", "hot_entry", "leaf"]);
        let seeded = hot_set(&fns, &["cold"]);
        assert!(seeded.contains(&"cold".to_string()));
    }

    #[test]
    fn cold_marker_stops_hot_propagation() {
        let fns = analyze_src(
            "// rfkit-hot\nfn hot_entry() { structural(); kernel(); }\n// rfkit-cold\nfn structural() { graph_walk(); }\nfn graph_walk() {}\nfn kernel() {}\n",
        );
        let hot = hot_set(&fns, &[]);
        assert_eq!(hot, ["hot_entry", "kernel"]);
    }

    #[test]
    fn guard_scope_end_covers_block() {
        let fns = analyze_src(
            "fn f(m: &Mutex<u32>) {\n    let _g = m.lock();\n    solve_dc(&c);\n    other();\n}\n",
        );
        let f = &fns[0];
        let g = f.defs.iter().find(|d| d.name == "_g").unwrap();
        assert_eq!(g.init_call, "lock");
        assert!(g.scope_end >= 4);
    }
}
