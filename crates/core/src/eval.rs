//! The big-step reference semantics (paper Figure 3).
//!
//! [`Evaluator`] implements the eager big-step evaluation relation
//! `ρ ⊢ e ⇓ v` together with the three application helpers `applyFn`,
//! `applyCn`, and `applyPrim` exactly as given in the paper. It is the
//! *specification* engine: the small-step machine ([`crate::step`]) and the
//! cycle-accurate hardware simulator (`zarf-hw`) are both tested for
//! agreement against it.
//!
//! Evaluation is eager; the hardware is lazy. As the paper notes, the
//! difference is unobservable for programs whose I/O is confined to
//! data-dependency-ordered positions (all programs in this workspace), and
//! the differential test suites exercise exactly that agreement.
//!
//! The implementation trampolines the body chain of `let`/`case`
//! continuations, so host stack depth tracks *Zarf call depth* rather than
//! instruction count.

use zarf_trace::{Engine, Event, SinkHandle, TraceSink};

use crate::ast::{Branch, Callee, Expr, Pattern, Program};
use crate::env::Env;
use crate::error::{EvalError, RuntimeError};
use crate::io::IoPorts;
use crate::prim::PrimOp;
use crate::value::{ClosureTarget, Value, V};

/// Default fuel: generous enough for every workload in the workspace while
/// still catching accidental divergence in tests.
pub const DEFAULT_FUEL: u64 = 500_000_000;

/// Default Zarf call-depth bound. Host stack depth tracks Zarf call depth
/// (one `apply` → `eval` pair per call), so the default is generous enough
/// for every workload in the workspace; callers replaying *untrusted
/// guesses* — e.g. candidate witnesses — should install a bound their
/// stack can actually absorb via [`Evaluator::with_call_depth`].
pub const DEFAULT_CALL_DEPTH: u32 = 1 << 20;

/// Cap on the number of fault events retained per evaluator (the probe is
/// for witness replay, not for unbounded logging).
const FAULT_LOG_CAP: usize = 1024;

/// Outcome of one `case` reduction: continue at a branch, or short-circuit
/// with a value (error scrutinee / case-on-closure).
enum CaseStep<'e> {
    Branch(&'e Expr),
    Value(V),
}

/// The big-step evaluator for a borrowed [`Program`].
#[derive(Debug)]
pub struct Evaluator<'p> {
    program: &'p Program,
    fuel: u64,
    depth: u32,
    max_depth: u32,
    sink: SinkHandle,
    faults: Vec<RuntimeError>,
}

impl<'p> Evaluator<'p> {
    /// Create an evaluator with [`DEFAULT_FUEL`] and [`DEFAULT_CALL_DEPTH`].
    pub fn new(program: &'p Program) -> Self {
        Evaluator {
            program,
            fuel: DEFAULT_FUEL,
            depth: 0,
            max_depth: DEFAULT_CALL_DEPTH,
            sink: SinkHandle::none(),
            faults: Vec::new(),
        }
    }

    /// Replace the fuel budget (number of instruction reductions permitted).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Replace the Zarf call-depth bound (number of nested calls permitted).
    /// Exceeding it aborts the run with [`EvalError::CallDepthExceeded`]
    /// before the host stack — one frame pair per Zarf call — overflows.
    pub fn with_call_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Install a trace sink; the evaluator emits [`Event::Bind`],
    /// [`Event::Dispatch`], and [`Event::Yield`] with [`Engine::Big`].
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink.set(sink);
    }

    /// Remove and return the installed sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Every runtime fault *constructed* during evaluation so far, in
    /// construction order. An error value may later be discarded by an
    /// unused binding, so observing the final result alone under-reports
    /// faults; witness replay asserts against this probe instead.
    pub fn faults_fired(&self) -> &[RuntimeError] {
        &self.faults
    }

    /// Reset the fault probe (e.g. between the argument-building phase and
    /// the entry call of a witness replay).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Record a fault construction and build the error value for it.
    fn fault(&mut self, e: RuntimeError) -> V {
        if self.faults.len() < FAULT_LOG_CAP {
            self.faults.push(e);
        }
        Value::error(e)
    }

    // Emission helpers are cold and never inlined: `eval` recurses on the
    // host stack per Zarf call depth, so the string building must not
    // enlarge its activation frame.

    #[cold]
    #[inline(never)]
    fn emit_bind(&mut self, var: &crate::ast::Name, v: &Value) {
        let (var, value) = (var.to_string(), v.to_string());
        self.sink.emit(|| Event::Bind {
            engine: Engine::Big,
            var,
            value,
        });
    }

    #[cold]
    #[inline(never)]
    fn emit_dispatch_lit(&mut self, scrutinee: &Value, n: crate::Int, hit: bool) {
        let scrutinee = scrutinee.to_string();
        let branch = if hit {
            format!("lit {n}")
        } else {
            "else".to_string()
        };
        self.sink.emit(|| Event::Dispatch {
            engine: Engine::Big,
            scrutinee,
            branch,
        });
    }

    #[cold]
    #[inline(never)]
    fn emit_dispatch_con(&mut self, scrutinee: &Value, name: &crate::ast::Name, hit: bool) {
        let scrutinee = scrutinee.to_string();
        let branch = if hit {
            format!("con {name}")
        } else {
            "else".to_string()
        };
        self.sink.emit(|| Event::Dispatch {
            engine: Engine::Big,
            scrutinee,
            branch,
        });
    }

    #[cold]
    #[inline(never)]
    fn emit_yield(&mut self, v: &Value) {
        let value = v.to_string();
        self.sink.emit(|| Event::Yield {
            engine: Engine::Big,
            value,
        });
    }

    /// Evaluate the program: `⊢ decl… fun main = e ⇓ v` (the *program* rule).
    pub fn run(&mut self, ports: &mut dyn IoPorts) -> Result<V, EvalError> {
        let main = self.program.main();
        self.eval(Env::new(), &main.body, ports)
    }

    /// Apply a named function to already-evaluated argument values. This is
    /// the entry point used by harnesses that drive one "step function" call
    /// at a time (e.g. the ICD kernel iteration).
    pub fn call(
        &mut self,
        function: &str,
        args: Vec<V>,
        ports: &mut dyn IoPorts,
    ) -> Result<V, EvalError> {
        let f = self
            .program
            .function(function)
            .ok_or_else(|| EvalError::UnknownGlobal(function.to_string()))?;
        let clo = Value::closure(ClosureTarget::Fn(f.name.clone()), vec![]);
        self.apply(clo, args, ports)
    }

    fn burn(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// `ρ ⊢ e ⇓ v`. The let/case spine is iterated rather than recursed.
    ///
    /// Host recursion happens through the `let` arm (`apply` → `eval`), so
    /// the `case`/`result` handling lives in non-inlined helpers to keep
    /// this activation frame — multiplied by Zarf call depth — small.
    fn eval(
        &mut self,
        mut env: Env,
        mut expr: &Expr,
        ports: &mut dyn IoPorts,
    ) -> Result<V, EvalError> {
        loop {
            self.burn()?;
            match expr {
                // (result): v = ρ(arg)
                Expr::Result(arg) => return self.eval_result(&env, arg),

                // (let-con) / (let-fun) / (let-var) / (let-prim) /
                // (getint) / (putint)
                Expr::Let {
                    var,
                    callee,
                    args,
                    body,
                } => {
                    let argv = args
                        .iter()
                        .map(|a| env.resolve(a))
                        .collect::<Result<Vec<_>, _>>()?;
                    let v = match callee {
                        Callee::Con(name) => self.apply_cn(name, argv)?,
                        Callee::Fn(name) => {
                            let f = self
                                .program
                                .function(name)
                                .ok_or_else(|| EvalError::UnknownGlobal(name.to_string()))?;
                            let clo = Value::closure(ClosureTarget::Fn(f.name.clone()), vec![]);
                            self.apply(clo, argv, ports)?
                        }
                        Callee::Prim(op) => {
                            let clo = Value::closure(ClosureTarget::Prim(*op), vec![]);
                            self.apply(clo, argv, ports)?
                        }
                        Callee::Var(x) => {
                            let target = env.lookup(x)?;
                            self.apply(target, argv, ports)?
                        }
                    };
                    if self.sink.enabled() {
                        self.emit_bind(var, &v);
                    }
                    env.bind(var.clone(), v);
                    expr = body;
                }

                // (case-con) / (case-lit) / (case-else1) / (case-else2)
                Expr::Case {
                    scrutinee,
                    branches,
                    default,
                } => match self.eval_case(&mut env, scrutinee, branches, default)? {
                    CaseStep::Branch(next) => expr = next,
                    CaseStep::Value(v) => return Ok(v),
                },
            }
        }
    }

    /// The (result) rule, out of line (see [`Evaluator::eval`]).
    #[inline(never)]
    fn eval_result(&mut self, env: &Env, arg: &crate::ast::Arg) -> Result<V, EvalError> {
        let v = env.resolve(arg)?;
        if self.sink.enabled() {
            self.emit_yield(&v);
        }
        Ok(v)
    }

    /// The four case rules, out of line (see [`Evaluator::eval`]).
    #[inline(never)]
    fn eval_case<'e>(
        &mut self,
        env: &mut Env,
        scrutinee: &crate::ast::Arg,
        branches: &'e [Branch],
        default: &'e Expr,
    ) -> Result<CaseStep<'e>, EvalError> {
        let v = env.resolve(scrutinee)?;
        match &*v {
            Value::Int(n) => {
                let hit = branches.iter().find(|b| b.pattern == Pattern::Lit(*n));
                if self.sink.enabled() {
                    self.emit_dispatch_lit(&v, *n, hit.is_some());
                }
                Ok(CaseStep::Branch(match hit {
                    Some(Branch { body, .. }) => body,
                    None => default,
                }))
            }
            Value::Con { name, fields } => {
                let hit = branches.iter().find_map(|b| match &b.pattern {
                    Pattern::Con(cn, vars) if cn == name => Some((vars, &b.body)),
                    _ => None,
                });
                if self.sink.enabled() {
                    self.emit_dispatch_con(&v, name, hit.is_some());
                }
                match hit {
                    Some((vars, body)) => {
                        // Arity is validated at declaration, so binder
                        // count matches field count.
                        env.bind_all(vars, fields);
                        Ok(CaseStep::Branch(body))
                    }
                    None => Ok(CaseStep::Branch(default)),
                }
            }
            Value::Closure { .. } => Ok(CaseStep::Value(self.fault(RuntimeError::CaseOnClosure))),
            Value::Error(_) => Ok(CaseStep::Value(v)),
        }
    }

    /// `applyCn` from Figure 3: saturate into a constructor value, or wrap
    /// into a partial-constructor closure.
    fn apply_cn(&mut self, name: &crate::ast::Name, args: Vec<V>) -> Result<V, EvalError> {
        let con = self
            .program
            .constructor(name)
            .ok_or_else(|| EvalError::UnknownGlobal(name.to_string()))?;
        match args.len().cmp(&con.arity()) {
            std::cmp::Ordering::Equal => Ok(Value::con(con.name.clone(), args)),
            std::cmp::Ordering::Less => {
                Ok(Value::closure(ClosureTarget::Con(con.name.clone()), args))
            }
            std::cmp::Ordering::Greater => Ok(self.fault(RuntimeError::ConOverApplied)),
        }
    }

    /// `applyFn` from Figure 3 (all four cases), generalized to any
    /// applicable value. Over-application loops: a saturated call whose
    /// result is again applicable consumes the remaining arguments.
    fn apply(
        &mut self,
        mut target: V,
        mut args: Vec<V>,
        ports: &mut dyn IoPorts,
    ) -> Result<V, EvalError> {
        loop {
            self.burn()?;
            let (ctarget, applied) = match &*target {
                Value::Closure { target, applied } => (target.clone(), applied.clone()),
                Value::Error(_) => return Ok(target),
                Value::Int(_) => {
                    return if args.is_empty() {
                        Ok(target)
                    } else {
                        Ok(self.fault(RuntimeError::ApplyToInt))
                    }
                }
                Value::Con { .. } => {
                    return if args.is_empty() {
                        Ok(target)
                    } else {
                        Ok(self.fault(RuntimeError::ApplyToCon))
                    }
                }
            };

            let arity = self.target_arity(&ctarget)?;
            let have = applied.len();
            debug_assert!(have <= arity, "closures are never over-saturated");

            if have + args.len() < arity {
                // Cases 2 & 3: still unsaturated — extend the closure.
                let mut all = applied;
                all.extend(args);
                return Ok(Value::closure(ctarget, all));
            }

            // Saturation: split off exactly the arguments needed.
            let need = arity - have;
            let rest = args.split_off(need);
            let mut sat = applied;
            sat.append(&mut args);

            let result = match &ctarget {
                ClosureTarget::Fn(name) => {
                    let f = self
                        .program
                        .function(name)
                        .ok_or_else(|| EvalError::UnknownGlobal(name.to_string()))?;
                    let frame = Env::frame(&f.params, &sat);
                    if self.depth >= self.max_depth {
                        return Err(EvalError::CallDepthExceeded);
                    }
                    self.depth += 1;
                    let r = self.eval(frame, &f.body, ports);
                    self.depth -= 1;
                    r?
                }
                ClosureTarget::Con(name) => self.apply_cn(name, sat)?,
                ClosureTarget::Prim(op) => self.invoke_prim(*op, &sat, ports)?,
            };

            if rest.is_empty() {
                return Ok(result);
            }
            // Case 4: over-application — keep applying to the result.
            target = result;
            args = rest;
        }
    }

    fn target_arity(&self, t: &ClosureTarget) -> Result<usize, EvalError> {
        Ok(match t {
            ClosureTarget::Fn(name) => self
                .program
                .function(name)
                .ok_or_else(|| EvalError::UnknownGlobal(name.to_string()))?
                .arity(),
            ClosureTarget::Con(name) => self
                .program
                .constructor(name)
                .ok_or_else(|| EvalError::UnknownGlobal(name.to_string()))?
                .arity(),
            ClosureTarget::Prim(op) => op.arity(),
        })
    }

    /// Saturated primitive invocation, including the (getint) and (putint)
    /// rules and error-value propagation.
    fn invoke_prim(
        &mut self,
        op: PrimOp,
        args: &[V],
        ports: &mut dyn IoPorts,
    ) -> Result<V, EvalError> {
        // Error values flow through primitives unchanged; any other
        // non-integer operand is a tag violation.
        let mut ints = Vec::with_capacity(args.len());
        for a in args {
            match &**a {
                Value::Int(n) => ints.push(*n),
                Value::Error(_) => return Ok(a.clone()),
                _ => return Ok(self.fault(RuntimeError::PrimOnNonInt)),
            }
        }
        match op {
            PrimOp::GetInt => {
                let n = ports.getint(ints[0])?;
                Ok(Value::int(n))
            }
            PrimOp::PutInt => {
                let written = ports.putint(ints[0], ints[1])?;
                Ok(Value::int(written))
            }
            PrimOp::Gc => Ok(Value::int(0)),
            _ => match op.eval_pure(&ints) {
                Ok(n) => Ok(Value::int(n)),
                Err(e) => Ok(self.fault(e)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Arg, ConDecl, Decl, FunDecl};
    use crate::io::{NullPorts, VecPorts};

    fn run(program: Program) -> V {
        Evaluator::new(&program).run(&mut NullPorts).unwrap()
    }

    fn list_prog(main: Expr, extra: Vec<Decl>) -> Program {
        let mut decls = vec![
            Decl::Con(ConDecl::new("Nil", &[] as &[&str])),
            Decl::Con(ConDecl::new("Cons", &["head", "tail"])),
        ];
        decls.extend(extra);
        decls.push(Decl::main(main));
        Program::new(decls).unwrap()
    }

    /// The paper's Figure 4 `map` function.
    fn map_decl() -> Decl {
        Decl::Fun(FunDecl::new(
            "map",
            &["f", "list"],
            Expr::case_(
                Arg::var("list"),
                vec![
                    Branch::con(
                        "Nil",
                        &[] as &[&str],
                        Expr::let_con("e", "Nil", vec![], Expr::result(Arg::var("e"))),
                    ),
                    Branch::con(
                        "Cons",
                        &["x", "rest"],
                        Expr::let_var(
                            "x2",
                            "f",
                            vec![Arg::var("x")],
                            Expr::let_fn(
                                "rest2",
                                "map",
                                vec![Arg::var("f"), Arg::var("rest")],
                                Expr::let_con(
                                    "l",
                                    "Cons",
                                    vec![Arg::var("x2"), Arg::var("rest2")],
                                    Expr::result(Arg::var("l")),
                                ),
                            ),
                        ),
                    ),
                ],
                Expr::let_con("e", "Nil", vec![], Expr::result(Arg::var("e"))),
            ),
        ))
    }

    #[test]
    fn arithmetic_chain() {
        // main = let a = add 2 3 in let b = mul a a in result b
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "a",
            "add",
            vec![Arg::lit(2), Arg::lit(3)],
            Expr::let_prim(
                "b",
                "mul",
                vec![Arg::var("a"), Arg::var("a")],
                Expr::result(Arg::var("b")),
            ),
        ))])
        .unwrap();
        assert_eq!(run(p).as_int(), Some(25));
    }

    #[test]
    fn case_literal_dispatch() {
        let case = |n| {
            Program::new(vec![Decl::main(Expr::case_(
                Arg::lit(n),
                vec![
                    Branch::lit(0, Expr::result(Arg::lit(100))),
                    Branch::lit(1, Expr::result(Arg::lit(200))),
                ],
                Expr::result(Arg::lit(300)),
            ))])
            .unwrap()
        };
        assert_eq!(run(case(0)).as_int(), Some(100));
        assert_eq!(run(case(1)).as_int(), Some(200));
        assert_eq!(run(case(7)).as_int(), Some(300));
    }

    #[test]
    fn constructor_build_and_match() {
        // main = let l = Cons 9 Nil-closure… match to extract head
        let p = list_prog(
            Expr::let_con(
                "nil",
                "Nil",
                vec![],
                Expr::let_con(
                    "l",
                    "Cons",
                    vec![Arg::lit(9), Arg::var("nil")],
                    Expr::case_(
                        Arg::var("l"),
                        vec![Branch::con(
                            "Cons",
                            &["h", "t"],
                            Expr::result(Arg::var("h")),
                        )],
                        Expr::result(Arg::lit(-1)),
                    ),
                ),
            ),
            vec![],
        );
        assert_eq!(run(p).as_int(), Some(9));
    }

    #[test]
    fn map_over_list_matches_paper_figure4() {
        // inc = add 1; main maps inc over [1,2,3] and sums the result.
        let inc = Decl::Fun(FunDecl::new(
            "inc",
            &["n"],
            Expr::let_prim(
                "m",
                "add",
                vec![Arg::var("n"), Arg::lit(1)],
                Expr::result(Arg::var("m")),
            ),
        ));
        let sum = Decl::Fun(FunDecl::new(
            "sum",
            &["l"],
            Expr::case_(
                Arg::var("l"),
                vec![
                    Branch::con("Nil", &[] as &[&str], Expr::result(Arg::lit(0))),
                    Branch::con(
                        "Cons",
                        &["h", "t"],
                        Expr::let_fn(
                            "s",
                            "sum",
                            vec![Arg::var("t")],
                            Expr::let_prim(
                                "r",
                                "add",
                                vec![Arg::var("h"), Arg::var("s")],
                                Expr::result(Arg::var("r")),
                            ),
                        ),
                    ),
                ],
                Expr::result(Arg::lit(-999)),
            ),
        ));
        // build [1,2,3]
        let main = Expr::let_con(
            "nil",
            "Nil",
            vec![],
            Expr::let_con(
                "l3",
                "Cons",
                vec![Arg::lit(3), Arg::var("nil")],
                Expr::let_con(
                    "l2",
                    "Cons",
                    vec![Arg::lit(2), Arg::var("l3")],
                    Expr::let_con(
                        "l1",
                        "Cons",
                        vec![Arg::lit(1), Arg::var("l2")],
                        Expr::let_fn(
                            "f",
                            "inc",
                            vec![],
                            Expr::let_fn(
                                "mapped",
                                "map",
                                vec![Arg::var("f"), Arg::var("l1")],
                                Expr::let_fn(
                                    "total",
                                    "sum",
                                    vec![Arg::var("mapped")],
                                    Expr::result(Arg::var("total")),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        );
        let p = list_prog(main, vec![map_decl(), inc, sum]);
        assert_eq!(run(p).as_int(), Some(2 + 3 + 4));
    }

    #[test]
    fn partial_application_of_prim_builds_closure() {
        // main = let inc = add 1 in let r = inc 41 in result r
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "inc",
            "add",
            vec![Arg::lit(1)],
            Expr::let_var("r", "inc", vec![Arg::lit(41)], Expr::result(Arg::var("r"))),
        ))])
        .unwrap();
        assert_eq!(run(p).as_int(), Some(42));
    }

    #[test]
    fn partial_application_of_constructor() {
        // let c = Cons 5 in let l = c Nil in match head
        let p = list_prog(
            Expr::let_con(
                "c",
                "Cons",
                vec![Arg::lit(5)],
                Expr::let_con(
                    "nil",
                    "Nil",
                    vec![],
                    Expr::let_var(
                        "l",
                        "c",
                        vec![Arg::var("nil")],
                        Expr::case_(
                            Arg::var("l"),
                            vec![Branch::con(
                                "Cons",
                                &["h", "t"],
                                Expr::result(Arg::var("h")),
                            )],
                            Expr::result(Arg::lit(-1)),
                        ),
                    ),
                ),
            ),
            vec![],
        );
        assert_eq!(run(p).as_int(), Some(5));
    }

    #[test]
    fn over_application_threads_through_returned_closure() {
        // const2 x = add x  (returns a closure); main = const2 40 2
        let f = Decl::Fun(FunDecl::new(
            "addclo",
            &["x"],
            Expr::let_prim("c", "add", vec![Arg::var("x")], Expr::result(Arg::var("c"))),
        ));
        let p = Program::new(vec![
            f,
            Decl::main(Expr::let_fn(
                "r",
                "addclo",
                vec![Arg::lit(40), Arg::lit(2)],
                Expr::result(Arg::var("r")),
            )),
        ])
        .unwrap();
        assert_eq!(run(p).as_int(), Some(42));
    }

    #[test]
    fn division_by_zero_yields_error_value() {
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "x",
            "div",
            vec![Arg::lit(1), Arg::lit(0)],
            Expr::result(Arg::var("x")),
        ))])
        .unwrap();
        let v = run(p);
        assert_eq!(&*v, &Value::Error(RuntimeError::DivideByZero));
    }

    #[test]
    fn error_value_propagates_through_prims() {
        // x = 1/0; y = add x 1 — y is still the division error
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "x",
            "div",
            vec![Arg::lit(1), Arg::lit(0)],
            Expr::let_prim(
                "y",
                "add",
                vec![Arg::var("x"), Arg::lit(1)],
                Expr::result(Arg::var("y")),
            ),
        ))])
        .unwrap();
        assert_eq!(&*run(p), &Value::Error(RuntimeError::DivideByZero));
    }

    #[test]
    fn applying_args_to_int_is_error() {
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "x",
            "add",
            vec![Arg::lit(1), Arg::lit(1)],
            Expr::let_var("y", "x", vec![Arg::lit(3)], Expr::result(Arg::var("y"))),
        ))])
        .unwrap();
        assert_eq!(&*run(p), &Value::Error(RuntimeError::ApplyToInt));
    }

    #[test]
    fn case_on_closure_is_error() {
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "c",
            "add",
            vec![Arg::lit(1)],
            Expr::case_(
                Arg::var("c"),
                vec![Branch::lit(0, Expr::result(Arg::lit(0)))],
                Expr::result(Arg::lit(1)),
            ),
        ))])
        .unwrap();
        assert_eq!(&*run(p), &Value::Error(RuntimeError::CaseOnClosure));
    }

    #[test]
    fn getint_putint_round_trip() {
        // main = let a = getint 0 in let b = add a 1 in let c = putint 1 b in result c
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "a",
            "getint",
            vec![Arg::lit(0)],
            Expr::let_prim(
                "b",
                "add",
                vec![Arg::var("a"), Arg::lit(1)],
                Expr::let_prim(
                    "c",
                    "putint",
                    vec![Arg::lit(1), Arg::var("b")],
                    Expr::result(Arg::var("c")),
                ),
            ),
        ))])
        .unwrap();
        let mut ports = VecPorts::new();
        ports.push_input(0, [41]);
        let v = Evaluator::new(&p).run(&mut ports).unwrap();
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(ports.output(1), &[42]);
    }

    #[test]
    fn fuel_exhaustion_on_divergence() {
        // loop = loop; main = loop — must abort with OutOfFuel.
        let looping = Decl::Fun(FunDecl::new(
            "looper",
            &[] as &[&str],
            Expr::let_fn("x", "looper", vec![], Expr::result(Arg::var("x"))),
        ));
        let p = Program::new(vec![
            looping,
            Decl::main(Expr::let_fn(
                "x",
                "looper",
                vec![],
                Expr::result(Arg::var("x")),
            )),
        ])
        .unwrap();
        let err = Evaluator::new(&p)
            .with_fuel(1_000)
            .run(&mut NullPorts)
            .unwrap_err();
        assert_eq!(err, EvalError::OutOfFuel);
    }

    #[test]
    fn call_depth_bound_aborts_before_the_host_stack() {
        // Recursion must abort with the typed depth error — fuel would be
        // reached only after far more host frames than a tight stack has.
        let looping = Decl::Fun(FunDecl::new(
            "looper",
            &[] as &[&str],
            Expr::let_fn("x", "looper", vec![], Expr::result(Arg::var("x"))),
        ));
        let p = Program::new(vec![
            looping,
            Decl::main(Expr::let_fn(
                "x",
                "looper",
                vec![],
                Expr::result(Arg::var("x")),
            )),
        ])
        .unwrap();
        let err = Evaluator::new(&p)
            .with_call_depth(8)
            .run(&mut NullPorts)
            .unwrap_err();
        assert_eq!(err, EvalError::CallDepthExceeded);
    }

    #[test]
    fn call_entry_point_applies_values() {
        let double = Decl::Fun(FunDecl::new(
            "double",
            &["n"],
            Expr::let_prim(
                "m",
                "mul",
                vec![Arg::var("n"), Arg::lit(2)],
                Expr::result(Arg::var("m")),
            ),
        ));
        let p = Program::new(vec![double, Decl::main(Expr::result(Arg::lit(0)))]).unwrap();
        let v = Evaluator::new(&p)
            .call("double", vec![Value::int(21)], &mut NullPorts)
            .unwrap();
        assert_eq!(v.as_int(), Some(42));
    }

    #[test]
    fn fault_probe_records_discarded_errors() {
        // x = 1/0 is bound but never used: the final result is clean, yet
        // the probe must still record the division fault's construction.
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "x",
            "div",
            vec![Arg::lit(1), Arg::lit(0)],
            Expr::result(Arg::lit(7)),
        ))])
        .unwrap();
        let mut ev = Evaluator::new(&p);
        let v = ev.run(&mut NullPorts).unwrap();
        assert_eq!(v.as_int(), Some(7));
        assert_eq!(ev.faults_fired(), &[RuntimeError::DivideByZero]);
        ev.clear_faults();
        assert!(ev.faults_fired().is_empty());
    }

    #[test]
    fn fault_probe_records_each_class() {
        // case on closure
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "c",
            "add",
            vec![Arg::lit(1)],
            Expr::case_(
                Arg::var("c"),
                vec![Branch::lit(0, Expr::result(Arg::lit(0)))],
                Expr::result(Arg::lit(1)),
            ),
        ))])
        .unwrap();
        let mut ev = Evaluator::new(&p);
        let _ = ev.run(&mut NullPorts).unwrap();
        assert_eq!(ev.faults_fired(), &[RuntimeError::CaseOnClosure]);
    }

    #[test]
    fn shadowing_uses_most_recent_binding() {
        // let x = 1+1 in let x = x+10 in result x  => 12
        let p = Program::new(vec![Decl::main(Expr::let_prim(
            "x",
            "add",
            vec![Arg::lit(1), Arg::lit(1)],
            Expr::let_prim(
                "x",
                "add",
                vec![Arg::var("x"), Arg::lit(10)],
                Expr::result(Arg::var("x")),
            ),
        ))])
        .unwrap();
        assert_eq!(run(p).as_int(), Some(12));
    }

    #[test]
    fn nullary_function_callee_evaluates_immediately() {
        // fortytwo = result 42; main = let x = fortytwo in result x
        let f = Decl::Fun(FunDecl::new(
            "fortytwo",
            &[] as &[&str],
            Expr::result(Arg::lit(42)),
        ));
        let p = Program::new(vec![
            f,
            Decl::main(Expr::let_fn(
                "x",
                "fortytwo",
                vec![],
                Expr::result(Arg::var("x")),
            )),
        ])
        .unwrap();
        assert_eq!(run(p).as_int(), Some(42));
    }
}
